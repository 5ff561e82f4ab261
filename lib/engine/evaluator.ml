open Netgraph

exception Unroutable of int * int

type sparse = { edges : int array; flows : float array }

type dag = {
  dist : float array;
  out_sp : int array array;
  order : int array;
}

type metrics = { mutable mlu : float; mutable phi : float }

(* ------------------------------------------------------------------ *)
(* Flat internal state                                                 *)
(* ------------------------------------------------------------------ *)

(* The public [dag] / [sparse] records above are view-layer
   materializations; internally everything lives in flat preallocated
   arrays so the probe loop (set_weight / evaluate / undo) allocates
   nothing once warm:

   - [fdag]: one shortest-path DAG in CSR form — dist (n floats),
     sp_cnt/sp_col (the per-node shortest-path out-edges, anchored at
     the graph CSR row offsets so each row can be rebuilt on its own),
     and the decreasing-distance propagation order.  Immutable once
     filled.
   - [urow]: one destination's unit-flow cache, filled lazily by the
     segment lookups ([add_unit], [unit_load]); loads never read it.
     Entries for source s live at [u_off.(s) .. u_off.(s)+u_len.(s)) in
     the bump-allocated u_edges/u_flows storage; [u_stamp.(s) = u_gen]
     marks s as materialized, so invalidating the whole row is one
     counter bump.  A repair drops the row; the next lookup rebuilds it.
   - [fvec]: one destination's cached load contribution, sparse: the
     (edge, share) pairs its sweep wrote, in sweep order, in storage
     whose length is a power of two capped at m.

   All three come from per-evaluator grow-only pools.  An object may be
   recycled into its pool only if it was born in the evaluator's current
   epoch: {!copy} bumps the epoch, so anything a clone might share
   (fdags and fvecs are shared by pointer; urows are deep-copied) is
   never overwritten.  Sentinels ([no_dag] & co.) stand in for "absent"
   so per-destination slots are plain arrays, not option arrays. *)

type fdag = {
  fdist : float array; (* n: distance to the destination *)
  sp_cnt : int array; (* n: tight out-edges of v, at the graph row base *)
  sp_col : int array; (* m: shortest-path out-edges, ascending per row *)
  forder : int array; (* n: finite-dist nodes, decreasing distance *)
  mutable forder_len : int;
  mutable d_born : int;
}

type urow = {
  u_stamp : int array; (* n *)
  mutable u_gen : int;
  u_off : int array; (* n *)
  u_len : int array; (* n *)
  mutable u_edges : int array; (* grow-only entry storage *)
  mutable u_flows : float array;
  mutable u_used : int;
  mutable u_born : int;
}

type fvec = {
  fe : int array; (* written edges, in sweep order *)
  fs : float array; (* their shares *)
  mutable flen : int;
  mutable v_born : int;
}

(* Shared sentinels; their [born] of [min_int] never matches an epoch,
   so even an accidental recycle attempt is a no-op. *)
let no_dag =
  { fdist = [||]; sp_cnt = [||]; sp_col = [||]; forder = [||];
    forder_len = 0; d_born = min_int }

let no_urow =
  { u_stamp = [||]; u_gen = 0; u_off = [||]; u_len = [||]; u_edges = [||];
    u_flows = [||]; u_used = 0; u_born = min_int }

let no_fvec = { fe = [||]; fs = [||]; flen = 0; v_born = min_int }

type t = {
  graph : Digraph.t;
  n : int;
  m : int;
  weights : float array;
  stats : Stats.t;
  mutable probe : Probe.t;
  (* borrowed graph CSR (never mutated) *)
  g_src : int array;
  g_dst : int array;
  g_cap : float array;
  g_out_row : int array;
  g_out_col : int array;
  g_in_row : int array;
  g_in_col : int array;
  (* installed per-destination state; sentinels mean "absent" *)
  dags : fdag array;
  urows : urow array;
  dest_loads : fvec array;
  (* commodity bookkeeping, flat per destination: bd_src.(d)/(bd_size.(d))
     are the commodity sources and sizes in arrival order (a tuple array
     would box every size behind a pointer on the hot accumulate path) *)
  mutable bd_src : int array array;
  mutable bd_size : float array array;
  mutable active_dests : int array; (* dests with traffic, ascending *)
  loads_buf : float array;
  mutable loads_valid : bool;
  (* flat undo trail: entry i changed tr_edge.(i) from tr_oldw.(i); its
     per-destination snapshots are the tr_nsaved.(i) newest rows of the
     sv_* stack below it, its unmaterialized destinations the
     tr_nunknown.(i) newest of uk_dest *)
  mutable tr_edge : int array;
  mutable tr_oldw : float array;
  mutable tr_valid : bool array; (* false: undo falls back to a flush *)
  mutable tr_nsaved : int array;
  mutable tr_nunknown : int array;
  mutable tr_len : int;
  mutable sv_dest : int array;
  mutable sv_dag : fdag array;
  mutable sv_urow : urow array;
  mutable sv_vec : fvec array;
  mutable sv_len : int;
  mutable uk_dest : int array;
  mutable uk_len : int;
  (* object pools *)
  mutable pool_dag : fdag array;
  mutable pool_dag_len : int;
  mutable pool_urow : urow array;
  mutable pool_urow_len : int;
  (* fvecs by size class: class k holds room for min m 2^k entries *)
  pool_vec : fvec array array;
  pool_vec_len : int array;
  mutable epoch : int;
  (* scratch *)
  node_flow : float array;
  edge_flow : float array;
  touched : int array;
  (* a load sweep's (edge, share) writes, before they are copied into an
     exactly sized [fvec] *)
  sweep_edges : int array;
  sweep_shares : float array;
  (* DAG-repair scratch: generation-stamped membership marks plus the
     changed-node / rebuilt-row staging arrays (all length n) *)
  ord_stamp : int array;
  row_stamp : int array;
  ord_scratch : int array;
  row_scratch : int array;
  mutable scratch_gen : int;
  pscratch : Paths.Scratch.t;
}

let rel_eps = 1e-9

(* Dirtiness is decided with a slightly wider tolerance than DAG
   membership: a false positive only costs one unnecessary repair. *)
let dirty_eps = 1e-8

let check_weights g w =
  if Array.length w <> Digraph.edge_count g then
    invalid_arg "Evaluator: weight vector length mismatch";
  Array.iter
    (fun x -> if not (x > 0.) then invalid_arg "Evaluator: weights must be positive")
    w

(* The size class of a contribution of [len] entries: the least k with
   2^k >= len. *)
let vec_class len =
  let k = ref 0 in
  while 1 lsl !k < len do
    incr k
  done;
  !k

let create ?(stats = Stats.create ()) ?(probe = Probe.null) graph weights =
  check_weights graph weights;
  let n = Digraph.node_count graph and m = Digraph.edge_count graph in
  {
    graph;
    n;
    m;
    weights = Array.copy weights;
    stats;
    probe;
    g_src = Digraph.srcs graph;
    g_dst = Digraph.dsts graph;
    g_cap = Digraph.caps graph;
    g_out_row = Digraph.out_offsets graph;
    g_out_col = Digraph.out_index graph;
    g_in_row = Digraph.in_offsets graph;
    g_in_col = Digraph.in_index graph;
    dags = Array.make n no_dag;
    urows = Array.make n no_urow;
    dest_loads = Array.make n no_fvec;
    bd_src = Array.make n [||];
    bd_size = Array.make n [||];
    active_dests = [||];
    loads_buf = Array.make m 0.;
    loads_valid = false;
    tr_edge = [||];
    tr_oldw = [||];
    tr_valid = [||];
    tr_nsaved = [||];
    tr_nunknown = [||];
    tr_len = 0;
    sv_dest = [||];
    sv_dag = [||];
    sv_urow = [||];
    sv_vec = [||];
    sv_len = 0;
    uk_dest = [||];
    uk_len = 0;
    pool_dag = [||];
    pool_dag_len = 0;
    pool_urow = [||];
    pool_urow_len = 0;
    pool_vec = Array.make (vec_class m + 1) [||];
    pool_vec_len = Array.make (vec_class m + 1) 0;
    epoch = 0;
    node_flow = Array.make n 0.;
    edge_flow = Array.make m 0.;
    touched = Array.make (max n m) 0;
    sweep_edges = Array.make m 0;
    sweep_shares = Array.make m 0.;
    ord_stamp = Array.make n 0;
    row_stamp = Array.make n 0;
    ord_scratch = Array.make n 0;
    row_scratch = Array.make n 0;
    scratch_gen = 0;
    pscratch = Paths.Scratch.create ();
  }

let urow_copy ur =
  if ur == no_urow then no_urow
  else
    {
      u_stamp = Array.copy ur.u_stamp;
      u_gen = ur.u_gen;
      u_off = Array.copy ur.u_off;
      u_len = Array.copy ur.u_len;
      u_edges = Array.sub ur.u_edges 0 ur.u_used;
      u_flows = Array.sub ur.u_flows 0 ur.u_used;
      u_used = ur.u_used;
      (* never recycled: the blit is bounded, the object just ages out *)
      u_born = min_int;
    }

(* Clone for parallel search.  fdags and fvecs are immutable once
   filled, so the clone shares them by pointer; bumping the source's
   epoch guarantees neither side ever recycles a pre-copy object into
   its pool.  urows are mutable caches (they grow as new sources are
   materialized), so the clone gets bounded flat-array blits of the
   materialized rows.  The clone starts with an empty trail: whatever
   uncommitted weight changes the source held become the clone's
   committed state. *)
let copy ?stats t =
  t.epoch <- t.epoch + 1;
  (* Copies run on worker domains whose scheduling is dynamic; they
     never inherit the tracer probe ([create]'s default is
     [Probe.null]), or span streams would depend on which worker claimed
     which task. *)
  {
    (create ?stats t.graph t.weights) with
    dags = Array.copy t.dags;
    urows = Array.map urow_copy t.urows;
    dest_loads = Array.copy t.dest_loads;
    bd_src = Array.copy t.bd_src;
    bd_size = Array.copy t.bd_size;
    active_dests = Array.copy t.active_dests;
    loads_buf = Array.copy t.loads_buf;
    loads_valid = t.loads_valid;
    epoch = t.epoch;
  }

let graph t = t.graph

let weights t = t.weights

let stats t = t.stats

(* ------------------------------------------------------------------ *)
(* Pools                                                               *)
(* ------------------------------------------------------------------ *)

let dag_alloc t =
  if t.pool_dag_len > 0 then begin
    t.pool_dag_len <- t.pool_dag_len - 1;
    let d = t.pool_dag.(t.pool_dag_len) in
    t.pool_dag.(t.pool_dag_len) <- no_dag;
    d.d_born <- t.epoch;
    d
  end
  else begin
    { fdist = Array.make t.n infinity; sp_cnt = Array.make t.n 0;
      sp_col = Array.make t.m 0; forder = Array.make t.n 0; forder_len = 0;
      d_born = t.epoch }
  end

let dag_recycle t d =
  if d != no_dag && d.d_born = t.epoch then begin
    if t.pool_dag_len = Array.length t.pool_dag then begin
      let grown = Array.make (max 8 (2 * t.pool_dag_len)) no_dag in
      Array.blit t.pool_dag 0 grown 0 t.pool_dag_len;
      t.pool_dag <- grown
    end;
    t.pool_dag.(t.pool_dag_len) <- d;
    t.pool_dag_len <- t.pool_dag_len + 1
  end

let urow_alloc t =
  if t.pool_urow_len > 0 then begin
    t.pool_urow_len <- t.pool_urow_len - 1;
    let ur = t.pool_urow.(t.pool_urow_len) in
    t.pool_urow.(t.pool_urow_len) <- no_urow;
    ur.u_gen <- ur.u_gen + 1; (* one bump invalidates every source *)
    ur.u_used <- 0;
    ur.u_born <- t.epoch;
    ur
  end
  else begin
    { u_stamp = Array.make t.n 0; u_gen = 1; u_off = Array.make t.n 0;
      u_len = Array.make t.n 0; u_edges = [||]; u_flows = [||]; u_used = 0;
      u_born = t.epoch }
  end

let urow_recycle t ur =
  if ur != no_urow && ur.u_born = t.epoch then begin
    if t.pool_urow_len = Array.length t.pool_urow then begin
      let grown = Array.make (max 8 (2 * t.pool_urow_len)) no_urow in
      Array.blit t.pool_urow 0 grown 0 t.pool_urow_len;
      t.pool_urow <- grown
    end;
    t.pool_urow.(t.pool_urow_len) <- ur;
    t.pool_urow_len <- t.pool_urow_len + 1
  end

external blit_ints : int array -> int -> int array -> int -> int -> unit
  = "te_blit_ints"
[@@noalloc]

(* Copies the first [len] elements of [src] into [dst] with one memmove.
   [Array.blit] would pay [caml_modify] per element once [dst] is in the
   major heap; ints are immediates, which need no write barrier. *)
let copy_ints src dst len =
  if len > Array.length src || len > Array.length dst then
    invalid_arg "Evaluator.copy_ints";
  blit_ints src 0 dst 0 len

(* A vector with room for [len] entries, from the pool of its size
   class.  Capacities are powers of two (capped at m, which no sweep
   exceeds: it writes each edge at most once), so a vector is never
   regrown, a recycled one fits every contribution of its class, and a
   repeated probe sequence stops allocating once each class holds as
   many vectors as the sequence uses at once. *)
let fvec_alloc t len =
  let k = vec_class len in
  let top = t.pool_vec_len.(k) in
  if top > 0 then begin
    let stack = t.pool_vec.(k) in
    t.pool_vec_len.(k) <- top - 1;
    let v = stack.(top - 1) in
    stack.(top - 1) <- no_fvec;
    v.v_born <- t.epoch;
    v
  end
  else begin
    let cap = min t.m (1 lsl k) in
    { fe = Array.make cap 0; fs = Array.make cap 0.; flen = 0;
      v_born = t.epoch }
  end

let fvec_recycle t v =
  if v != no_fvec && v.v_born = t.epoch then begin
    let k = vec_class (Array.length v.fe) in
    let top = t.pool_vec_len.(k) in
    if top = Array.length t.pool_vec.(k) then begin
      let grown = Array.make (max 8 (2 * top)) no_fvec in
      Array.blit t.pool_vec.(k) 0 grown 0 top;
      t.pool_vec.(k) <- grown
    end;
    t.pool_vec.(k).(top) <- v;
    t.pool_vec_len.(k) <- top + 1
  end

(* ------------------------------------------------------------------ *)
(* Trail plumbing                                                      *)
(* ------------------------------------------------------------------ *)

(* Reads the displaced weight from [t.weights] itself: taking it as a
   float parameter would box it at this (non-inlinable) call boundary
   on every probe.  Callers must push before writing the new value. *)
let push_trail t edge =
  let cap = Array.length t.tr_edge in
  if t.tr_len = cap then begin
    let nc = max 8 (2 * cap) in
    let gi a = let b = Array.make nc 0 in Array.blit a 0 b 0 cap; b in
    t.tr_edge <- gi t.tr_edge;
    t.tr_nsaved <- gi t.tr_nsaved;
    t.tr_nunknown <- gi t.tr_nunknown;
    let bf = Array.make nc 0. in
    Array.blit t.tr_oldw 0 bf 0 cap;
    t.tr_oldw <- bf;
    let bb = Array.make nc false in
    Array.blit t.tr_valid 0 bb 0 cap;
    t.tr_valid <- bb
  end;
  let i = t.tr_len in
  t.tr_edge.(i) <- edge;
  t.tr_oldw.(i) <- t.weights.(edge);
  t.tr_valid.(i) <- true;
  t.tr_nsaved.(i) <- 0;
  t.tr_nunknown.(i) <- 0;
  t.tr_len <- i + 1

let push_saved t dest fd ur dl =
  let cap = Array.length t.sv_dest in
  if t.sv_len = cap then begin
    let nc = max 8 (2 * cap) in
    let b = Array.make nc 0 in
    Array.blit t.sv_dest 0 b 0 cap;
    t.sv_dest <- b;
    let bd = Array.make nc no_dag in
    Array.blit t.sv_dag 0 bd 0 cap;
    t.sv_dag <- bd;
    let bu = Array.make nc no_urow in
    Array.blit t.sv_urow 0 bu 0 cap;
    t.sv_urow <- bu;
    let bv = Array.make nc no_fvec in
    Array.blit t.sv_vec 0 bv 0 cap;
    t.sv_vec <- bv
  end;
  let i = t.sv_len in
  t.sv_dest.(i) <- dest;
  t.sv_dag.(i) <- fd;
  t.sv_urow.(i) <- ur;
  t.sv_vec.(i) <- dl;
  t.sv_len <- i + 1

let push_unknown t dest =
  let cap = Array.length t.uk_dest in
  if t.uk_len = cap then begin
    let b = Array.make (max 8 (2 * cap)) 0 in
    Array.blit t.uk_dest 0 b 0 cap;
    t.uk_dest <- b
  end;
  t.uk_dest.(t.uk_len) <- dest;
  t.uk_len <- t.uk_len + 1

(* ------------------------------------------------------------------ *)
(* Monomorphic in-place sorts (no closures, no polymorphic compare)    *)
(* ------------------------------------------------------------------ *)

(* The forder key, (distance descending, id ascending), as "a goes
   after b".  The annotation pins the comparisons to floats: left
   polymorphic they compile to [caml_lessthan] over a generic array,
   whose element reads box one float each. *)
let order_after (dist : float array) a b =
  let da = dist.(a) and db = dist.(b) in
  if da < db then true else if da > db then false else a > b

(* Inserts [v] into the ordered prefix [a.(0 .. len - 1)] and returns
   the new length.  Fed a settle record backwards (nonincreasing
   distance), it moves entries only within [v]'s equal-distance run;
   the key is a total order, so the result is the sorted permutation. *)
let insert_order (dist : float array) a len v =
  let j = ref len in
  while !j > 0 && order_after dist a.(!j - 1) v do
    a.(!j) <- a.(!j - 1);
    decr j
  done;
  a.(!j) <- v;
  len + 1

(* Ascending heapsort of an int prefix. *)
let sift_int a root len =
  let r = ref root in
  let continue = ref true in
  while !continue do
    let l = (2 * !r) + 1 in
    if l >= len then continue := false
    else begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(!r) then begin
        let tmp = a.(c) in
        a.(c) <- a.(!r);
        a.(!r) <- tmp;
        r := c
      end
      else continue := false
    end
  done

let sort_ints a len =
  for i = (len / 2) - 1 downto 0 do
    sift_int a i len
  done;
  for e = len - 1 downto 1 do
    let tmp = a.(0) in
    a.(0) <- a.(e);
    a.(e) <- tmp;
    sift_int a 0 e
  done

(* ------------------------------------------------------------------ *)
(* Shortest-path DAGs                                                  *)
(* ------------------------------------------------------------------ *)

(* Rebuilds DAG row [v] from fd.fdist: the node's shortest-path
   out-edges are its tight out-edges, in ascending edge-id order (the
   CSR row order), written at the graph CSR row base.  A row's content
   depends only on v's distance, its out-neighbours' distances and its
   out-edge weights — nothing outside the row — which is what lets
   [dag_repair] recompute rows selectively. *)
let fill_row t fd v =
  let dist = fd.fdist in
  let dv = dist.(v) in
  if dv = infinity then fd.sp_cnt.(v) <- 0
  else begin
    let w = t.weights in
    let out_row = t.g_out_row and out_col = t.g_out_col and gdst = t.g_dst in
    let tol = rel_eps *. (1. +. abs_float dv) in
    let base = out_row.(v) in
    let p = ref base in
    for i = base to out_row.(v + 1) - 1 do
      let e = out_col.(i) in
      let u = gdst.(e) in
      if dist.(u) < infinity && abs_float ((w.(e) +. dist.(u)) -. dv) <= tol
      then begin
        fd.sp_col.(!p) <- e;
        incr p
      end
    done;
    fd.sp_cnt.(v) <- !p - base
  end

(* Fills sp_cnt/sp_col/forder from fd.fdist (the from-scratch path),
   the order from the full Dijkstra's settle record. *)
let dag_fill t fd =
  for v = 0 to t.n - 1 do
    fill_row t fd v
  done;
  let settled = Paths.Scratch.settled t.pscratch in
  let k = ref 0 in
  for i = Paths.Scratch.settled_count t.pscratch - 1 downto 0 do
    k := insert_order fd.fdist fd.forder !k settled.(i)
  done;
  fd.forder_len <- !k

(* Repairs [nfd] (fresh; fdist already updated by the incremental
   Dijkstra on [t.pscratch]) from [old] (the pre-change DAG for the same
   destination) after the weight of [edge] changed.  Rows whose inputs
   are unchanged are copied from [old] wholesale, as two block moves
   ([copy_ints]); only the rows of distance-changed nodes, of their
   in-neighbours, and of the changed edge's source are recomputed.  The
   changed nodes are found among those the incremental Dijkstra visited,
   not by a scan of all n.  forder is repaired by splicing the changed
   nodes, taken in the Dijkstra's settle order, into the surviving old
   order; the key is a total order, so this reproduces the full sort's
   permutation bit for bit. *)
let dag_repair t nfd old edge =
  let odist = old.fdist and ndist = nfd.fdist in
  copy_ints old.sp_col nfd.sp_col t.m;
  copy_ints old.sp_cnt nfd.sp_cnt t.n;
  (* distance-changed nodes (infinity = infinity compares equal) *)
  t.scratch_gen <- t.scratch_gen + 1;
  let gen = t.scratch_gen in
  let stamp = t.ord_stamp and ch = t.ord_scratch in
  let vis = Paths.Scratch.visited t.pscratch in
  let nch = ref 0 in
  for k = 0 to Paths.Scratch.visited_count t.pscratch - 1 do
    let v = vis.(k) in
    if odist.(v) <> ndist.(v) then begin
      stamp.(v) <- gen;
      ch.(!nch) <- v;
      incr nch
    end
  done;
  let rstamp = t.row_stamp and rows = t.row_scratch in
  let in_row = t.g_in_row and in_col = t.g_in_col and gsrc = t.g_src in
  let nrows = ref 0 in
  for k = 0 to !nch - 1 do
    let c = ch.(k) in
    if rstamp.(c) <> gen then begin
      rstamp.(c) <- gen;
      rows.(!nrows) <- c;
      incr nrows
    end;
    for i = in_row.(c) to in_row.(c + 1) - 1 do
      let v = gsrc.(in_col.(i)) in
      if rstamp.(v) <> gen then begin
        rstamp.(v) <- gen;
        rows.(!nrows) <- v;
        incr nrows
      end
    done
  done;
  (let v = gsrc.(edge) in
   if rstamp.(v) <> gen then begin
     rstamp.(v) <- gen;
     rows.(!nrows) <- v;
     incr nrows
   end);
  for k = 0 to !nrows - 1 do
    fill_row t nfd rows.(k)
  done;
  (* The still-finite changed nodes, distance descending, id ascending:
     the repair settled them in nondecreasing distance, so its record
     read backwards needs sorting only within equal-distance runs. *)
  let settled = Paths.Scratch.settled t.pscratch in
  let nf = ref 0 in
  for k = Paths.Scratch.settled_count t.pscratch - 1 downto 0 do
    let v = settled.(k) in
    if stamp.(v) = gen then nf := insert_order ndist ch !nf v
  done;
  (* One pass over the old order: survivors keep their keys, so stay
     sorted; each changed node goes in before the first survivor that
     follows it. *)
  let out = nfd.forder and ofo = old.forder in
  let j = ref 0 and k = ref 0 in
  for i = 0 to old.forder_len - 1 do
    let v = ofo.(i) in
    if stamp.(v) <> gen then begin
      while !j < !nf && order_after ndist v ch.(!j) do
        out.(!k) <- ch.(!j);
        incr j;
        incr k
      done;
      out.(!k) <- v;
      incr k
    end
  done;
  while !j < !nf do
    out.(!k) <- ch.(!j);
    incr j;
    incr k
  done;
  nfd.forder_len <- !k

let fdag_for t dest =
  let fd = t.dags.(dest) in
  if fd != no_dag then begin
    t.stats.Stats.dag_hits <- t.stats.Stats.dag_hits + 1;
    fd
  end
  else begin
    t.stats.Stats.dag_misses <- t.stats.Stats.dag_misses + 1;
    t.stats.Stats.full_spf <- t.stats.Stats.full_spf + 1;
    let p = t.probe in
    let tok = if p.Probe.enabled then p.Probe.start "ev:spf_full" else -1 in
    let t0 = Mono.now () in
    let fd = dag_alloc t in
    Paths.dijkstra_to_into t.pscratch t.graph ~weights:t.weights ~target:dest
      ~dist:fd.fdist;
    dag_fill t fd;
    let ht = Stats.hot_times t.stats in
    ht.(Stats.hot_spf_full) <-
      ht.(Stats.hot_spf_full) +. (Mono.now () -. t0);
    if tok >= 0 then p.Probe.finish tok;
    t.dags.(dest) <- fd;
    fd
  end

let dag t ~target =
  let fd = fdag_for t target in
  {
    dist = Array.copy fd.fdist;
    out_sp =
      Array.init t.n (fun v ->
          Array.sub fd.sp_col t.g_out_row.(v) fd.sp_cnt.(v));
    order = Array.sub fd.forder 0 fd.forder_len;
  }

(* ECMP node throughflow of one (src, dst) unit, straight off the cached
   destination DAG: a single decreasing-distance propagation (the same
   sweep as [compute_unit_into]) whose per-node inflow is kept instead
   of consumed.  [into.(v)] is the fraction of the flow unit passing
   through [v] — the ECMP-aware betweenness contribution of the pair to
   node [v] — so preprocessing passes can score waypoint candidates
   without any new SPF run beyond the DAGs the load computation already
   built. *)
let node_flows t ~src ~dst ~into =
  if Array.length into <> t.n then
    invalid_arg "Evaluator.node_flows: array length <> node count";
  Array.fill into 0 t.n 0.;
  if src = dst then into.(src) <- 1.
  else begin
    let fd = fdag_for t dst in
    if fd.fdist.(src) = infinity then raise (Unroutable (src, dst));
    let gdst = t.g_dst and orow = t.g_out_row in
    into.(src) <- 1.;
    for k = 0 to fd.forder_len - 1 do
      let v = fd.forder.(k) in
      let f = into.(v) in
      if f > 0. && v <> dst then begin
        let lo = orow.(v) in
        let hi = lo + fd.sp_cnt.(v) in
        let share = f /. float_of_int (hi - lo) in
        for i = lo to hi - 1 do
          let u = gdst.(fd.sp_col.(i)) in
          into.(u) <- into.(u) +. share
        done
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Unit flows                                                          *)
(* ------------------------------------------------------------------ *)

let ensure_urow t dest =
  let ur = t.urows.(dest) in
  if ur != no_urow then ur
  else begin
    let ur = urow_alloc t in
    t.urows.(dest) <- ur;
    ur
  end

let urow_reserve ur need =
  if Array.length ur.u_edges < need then begin
    let nc = max 64 (max need (2 * Array.length ur.u_edges)) in
    let be = Array.make nc 0 in
    Array.blit ur.u_edges 0 be 0 ur.u_used;
    ur.u_edges <- be;
    let bf = Array.make nc 0. in
    Array.blit ur.u_flows 0 bf 0 ur.u_used;
    ur.u_flows <- bf
  end

(* Appends source [src]'s unit-flow entries to [ur] (the row of
   destination [dst]).  Propagation runs in decreasing-distance order:
   a node's whole inflow is known before it is processed because SP-DAG
   edges strictly decrease the distance to the target. *)
let compute_unit_into t ur src dst =
  t.stats.Stats.unit_misses <- t.stats.Stats.unit_misses + 1;
  if src = dst then begin
    ur.u_off.(src) <- ur.u_used;
    ur.u_len.(src) <- 0;
    ur.u_stamp.(src) <- ur.u_gen
  end
  else begin
    let fd = fdag_for t dst in
    if fd.fdist.(src) = infinity then raise (Unroutable (src, dst));
    let nf = t.node_flow and ef = t.edge_flow and tc = t.touched in
    let gdst = t.g_dst and orow = t.g_out_row in
    let ntouched = ref 0 in
    nf.(src) <- 1.;
    for k = 0 to fd.forder_len - 1 do
      let v = fd.forder.(k) in
      let f = nf.(v) in
      if f > 0. && v <> dst then begin
        nf.(v) <- 0.;
        let lo = orow.(v) in
        let hi = lo + fd.sp_cnt.(v) in
        let share = f /. float_of_int (hi - lo) in
        for i = lo to hi - 1 do
          let e = fd.sp_col.(i) in
          if ef.(e) = 0. then begin
            tc.(!ntouched) <- e;
            incr ntouched
          end;
          ef.(e) <- ef.(e) +. share;
          nf.(gdst.(e)) <- nf.(gdst.(e)) +. share
        done
      end
      else if v = dst then nf.(v) <- 0.
    done;
    let k = !ntouched in
    sort_ints tc k;
    urow_reserve ur (ur.u_used + k);
    let base = ur.u_used in
    let ue = ur.u_edges and uf = ur.u_flows in
    for i = 0 to k - 1 do
      let e = tc.(i) in
      ue.(base + i) <- e;
      uf.(base + i) <- ef.(e);
      ef.(e) <- 0.
    done;
    ur.u_off.(src) <- base;
    ur.u_len.(src) <- k;
    ur.u_stamp.(src) <- ur.u_gen;
    ur.u_used <- base + k
  end

(* The miss branch carries the hot_units timer pair; a hit costs no
   clock read (two [Mono.now] calls are comparable to a whole cached
   lookup).  A DAG build the miss triggers is [spf_full] time, not
   [units] time. *)
let unit_entry t ur src dst =
  if ur.u_stamp.(src) = ur.u_gen then
    t.stats.Stats.unit_hits <- t.stats.Stats.unit_hits + 1
  else begin
    let ht = Stats.hot_times t.stats in
    let full0 = ht.(Stats.hot_spf_full) in
    let t0 = Mono.now () in
    compute_unit_into t ur src dst;
    ht.(Stats.hot_units) <-
      ht.(Stats.hot_units)
      +. (Mono.now () -. t0 -. (ht.(Stats.hot_spf_full) -. full0))
  end

let unit_load t ~src ~dst =
  let ur = ensure_urow t dst in
  unit_entry t ur src dst;
  let off = ur.u_off.(src) and len = ur.u_len.(src) in
  { edges = Array.sub ur.u_edges off len; flows = Array.sub ur.u_flows off len }

let add_unit t ~src ~dst ~scale ~into =
  let ur = ensure_urow t dst in
  unit_entry t ur src dst;
  let off = ur.u_off.(src) and len = ur.u_len.(src) in
  let ue = ur.u_edges and uf = ur.u_flows in
  for j = off to off + len - 1 do
    into.(ue.(j)) <- into.(ue.(j)) +. (scale *. uf.(j))
  done

(* Both rows are ascending and duplicate-free, so one merge pass visits
   their union; an edge on both gets [(base + s*a) + s*b], the order in
   which two [add_unit] calls accumulate it.  The rows are read only
   after both lookups: the second may regrow a row the first returned. *)
let segment_peak t ~src ~via ~dst ~scale ~base ~out =
  if not (scale >= 0.) then
    invalid_arg "Evaluator.segment_peak: scale must be >= 0";
  let cap = t.g_cap in
  let peak = ref 0. in
  if via < 0 then begin
    let ur = ensure_urow t dst in
    unit_entry t ur src dst;
    let off = ur.u_off.(src) in
    let ue = ur.u_edges and uf = ur.u_flows in
    for j = off to off + ur.u_len.(src) - 1 do
      let e = ue.(j) in
      let r = (base.(e) +. (scale *. uf.(j))) /. cap.(e) in
      if r > !peak then peak := r
    done
  end
  else begin
    let ur1 = ensure_urow t via in
    unit_entry t ur1 src via;
    let ur2 = ensure_urow t dst in
    unit_entry t ur2 via dst;
    let ue1 = ur1.u_edges and uf1 = ur1.u_flows in
    let ue2 = ur2.u_edges and uf2 = ur2.u_flows in
    let i = ref ur1.u_off.(src) and j = ref ur2.u_off.(via) in
    let hi1 = !i + ur1.u_len.(src) and hi2 = !j + ur2.u_len.(via) in
    while !i < hi1 || !j < hi2 do
      let e1 = if !i < hi1 then ue1.(!i) else max_int in
      let e2 = if !j < hi2 then ue2.(!j) else max_int in
      let r =
        if e1 < e2 then begin
          let x = base.(e1) +. (scale *. uf1.(!i)) in
          incr i;
          x /. cap.(e1)
        end
        else if e2 < e1 then begin
          let x = base.(e2) +. (scale *. uf2.(!j)) in
          incr j;
          x /. cap.(e2)
        end
        else begin
          let x = base.(e1) +. (scale *. uf1.(!i)) +. (scale *. uf2.(!j)) in
          incr i;
          incr j;
          x /. cap.(e1)
        end
      in
      if r > !peak then peak := r
    done
  end;
  out.(0) <- !peak

(* ------------------------------------------------------------------ *)
(* Commodities and loads                                               *)
(* ------------------------------------------------------------------ *)

let set_commodities t commodities =
  let n = t.n in
  let buckets = Array.make n [] in
  Array.iter
    (fun { Demand.src; dst; size } ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Evaluator.set_commodities: endpoint outside the graph";
      if not (size >= 0. && size < infinity) then
        invalid_arg "Evaluator.set_commodities: size must be finite and >= 0";
      if src <> dst then buckets.(dst) <- (src, size) :: buckets.(dst))
    commodities;
  let active = ref [] in
  for dst = n - 1 downto 0 do
    let bucket = buckets.(dst) in
    let k = List.length bucket in
    let srcs = Array.make k 0 and sizes = Array.make k 0. in
    (* [bucket] holds the commodities in reverse arrival order *)
    let i = ref (k - 1) in
    List.iter
      (fun (s, sz) ->
        srcs.(!i) <- s;
        sizes.(!i) <- sz;
        decr i)
      bucket;
    t.bd_src.(dst) <- srcs;
    t.bd_size.(dst) <- sizes;
    t.dest_loads.(dst) <- no_fvec;
    if k > 0 then active := dst :: !active
  done;
  t.active_dests <- Array.of_list !active;
  (* Undo snapshots captured per-destination load contributions for the
     previous commodity set; they no longer apply. *)
  for i = 0 to t.tr_len - 1 do
    t.tr_valid.(i) <- false
  done;
  t.loads_valid <- false

(* Rebuilds one destination's load contribution in one sweep down its
   DAG.  ECMP splitting is linear, so seeding every commodity's size at
   its source and pushing each node's whole inflow evenly over its
   shortest-path out-edges, in decreasing-distance order, loads the
   edges with all the demand towards [dest] at once.  Each edge leaves
   exactly one node, so its load is written once, and only written
   edges are recorded.  Every source is checked before [node_flow] is
   touched: an [Unroutable] leaves the scratch clean.  The sweep leaves
   every [node_flow] entry it touched back at zero.  Its timer excludes
   the DAG build [fdag_for] may run ([spf_full]). *)
let dest_contribution t dest =
  let dl = t.dest_loads.(dest) in
  if dl != no_fvec then dl
  else begin
    let ht = Stats.hot_times t.stats in
    let full0 = ht.(Stats.hot_spf_full) in
    let t0 = Mono.now () in
    let fd = fdag_for t dest in
    let dist = fd.fdist in
    let srcs = t.bd_src.(dest) and sizes = t.bd_size.(dest) in
    for i = 0 to Array.length srcs - 1 do
      if dist.(srcs.(i)) = infinity then raise (Unroutable (srcs.(i), dest))
    done;
    let nf = t.node_flow in
    for i = 0 to Array.length srcs - 1 do
      let s = srcs.(i) in
      nf.(s) <- nf.(s) +. sizes.(i)
    done;
    let se = t.sweep_edges and ss = t.sweep_shares in
    let len = ref 0 in
    let gdst = t.g_dst and orow = t.g_out_row in
    for k = 0 to fd.forder_len - 1 do
      let u = fd.forder.(k) in
      let f = nf.(u) in
      if f > 0. then begin
        nf.(u) <- 0.;
        if u <> dest then begin
          let lo = orow.(u) in
          let c = fd.sp_cnt.(u) in
          let share = f /. float_of_int c in
          for i = lo to lo + c - 1 do
            let e = fd.sp_col.(i) in
            se.(!len) <- e;
            ss.(!len) <- share;
            incr len;
            let x = gdst.(e) in
            nf.(x) <- nf.(x) +. share
          done
        end
      end
    done;
    let k = !len in
    let dl = fvec_alloc t k in
    copy_ints se dl.fe k;
    Array.blit ss 0 dl.fs 0 k;
    dl.flen <- k;
    t.dest_loads.(dest) <- dl;
    ht.(Stats.hot_units) <-
      ht.(Stats.hot_units)
      +. (Mono.now () -. t0 -. (ht.(Stats.hot_spf_full) -. full0));
    dl
  end

(* Re-sums the cached contributions (building missing ones) into [buf]
   in a fixed, ascending destination order, which keeps the aggregate
   deterministic and drift-free across long update/undo sequences.
   Scatter-adding only the written entries gives the bits a dense
   re-sum would: the accumulator starts at +0.0, every share is
   >= +0.0, so the skipped entries would each have added +0.0, which is
   exact.  Times only the re-sum: the sweeps and DAG builds time
   themselves. *)
let resum t buf =
  let ht = Stats.hot_times t.stats in
  let units0 = ht.(Stats.hot_units) and full0 = ht.(Stats.hot_spf_full) in
  let t0 = Mono.now () in
  Array.fill buf 0 t.m 0.;
  let act = t.active_dests in
  for i = 0 to Array.length act - 1 do
    let dl = dest_contribution t act.(i) in
    let fe = dl.fe and fs = dl.fs in
    for j = 0 to dl.flen - 1 do
      let e = fe.(j) in
      buf.(e) <- buf.(e) +. fs.(j)
    done
  done;
  let nested =
    ht.(Stats.hot_units) -. units0 +. (ht.(Stats.hot_spf_full) -. full0)
  in
  ht.(Stats.hot_loads) <- ht.(Stats.hot_loads) +. (Mono.now () -. t0 -. nested)

let loads t =
  if not t.loads_valid then begin
    resum t t.loads_buf;
    t.loads_valid <- true
  end;
  t.loads_buf

let mlu_of_loads g loads =
  let cap = Digraph.caps g in
  let best = ref 0. in
  for e = 0 to Digraph.edge_count g - 1 do
    let u = loads.(e) /. cap.(e) in
    if u > !best then best := u
  done;
  !best

(* Fortz–Thorup piecewise-linear congestion cost.  phi_hat is the
   integral of the slope function 1/3/10/70/500/5000 over utilization. *)
let breakpoints = [| 0.; 1. /. 3.; 2. /. 3.; 0.9; 1.; 1.1 |]

let slopes = [| 1.; 3.; 10.; 70.; 500.; 5000. |]

let phi_hat u =
  let acc = ref 0. in
  let i = ref 0 in
  let continue = ref true in
  while !continue && !i < 6 do
    let lo = breakpoints.(!i) in
    let hi = if !i = 5 then infinity else breakpoints.(!i + 1) in
    if u > hi then acc := !acc +. (slopes.(!i) *. (hi -. lo))
    else begin
      acc := !acc +. (slopes.(!i) *. (u -. lo));
      continue := false
    end;
    incr i
  done;
  !acc

let phi_cost g loads =
  let total = ref 0. in
  for e = 0 to Digraph.edge_count g - 1 do
    let c = Digraph.cap g e in
    total := !total +. (c *. phi_hat (loads.(e) /. c))
  done;
  !total

let mlu t = mlu_of_loads t.graph (loads t)

let phi t = phi_cost t.graph (loads t)

(* Same piecewise constants as [phi_hat], named so the inlined ladder in
   [evaluate_into] reads like the loop it replaces. *)
let bp1 = 1. /. 3.
let bp2 = 2. /. 3.
let bp3 = 0.9
let bp4 = 1.
let bp5 = 1.1

let evaluate_into t r =
  t.stats.Stats.evaluations <- t.stats.Stats.evaluations + 1;
  let p = t.probe in
  let tok = if p.Probe.enabled then p.Probe.start "ev:eval" else -1 in
  let l = loads t in
  let cap = t.g_cap in
  let best = ref 0. in
  let total = ref 0. in
  for e = 0 to t.m - 1 do
    let c = cap.(e) in
    let u = l.(e) /. c in
    if u > !best then best := u;
    (* [phi_hat u], unrolled with the identical accumulation order (the
       function itself cannot be inlined and a non-inlined call would
       box [u] on every edge). *)
    let ph =
      if u > bp1 then begin
        let a = 1. *. (bp1 -. 0.) in
        if u > bp2 then begin
          let a = a +. (3. *. (bp2 -. bp1)) in
          if u > bp3 then begin
            let a = a +. (10. *. (bp3 -. bp2)) in
            if u > bp4 then begin
              let a = a +. (70. *. (bp4 -. bp3)) in
              if u > bp5 then begin
                let a = a +. (500. *. (bp5 -. bp4)) in
                a +. (5000. *. (u -. bp5))
              end
              else a +. (500. *. (u -. bp4))
            end
            else a +. (70. *. (u -. bp3))
          end
          else a +. (10. *. (u -. bp2))
        end
        else a +. (3. *. (u -. bp1))
      end
      else 1. *. (u -. 0.)
    in
    total := !total +. (c *. ph)
  done;
  r.mlu <- !best;
  r.phi <- !total;
  if tok >= 0 then p.Probe.finish tok

(* ------------------------------------------------------------------ *)
(* Weight updates                                                      *)
(* ------------------------------------------------------------------ *)

(* Can the newest trail entry's change of edge (u, v) alter the DAG [fd]?
   Only if the edge was on it (old weight tight) or lands on it (new
   weight tight or shorter).  [dv] never depends on the edge (a path
   v -> dest through it would be a cycle).  An unreachable u (disabled
   edge) goes dirty exactly when the new weight is finite: the link-up
   half of a flap.  Weights are read from arrays: no float boxes. *)
let dest_dirty t fd edge =
  let old_w = t.tr_oldw.(t.tr_len - 1) and new_w = t.weights.(edge) in
  let du = fd.fdist.(t.g_src.(edge)) and dv = fd.fdist.(t.g_dst.(edge)) in
  dv < infinity
  &&
  if du = infinity then new_w < infinity
  else
    let tol = dirty_eps *. (1. +. abs_float du) in
    old_w +. dv <= du +. tol || new_w +. dv <= du +. tol

(* Repairs [dest]'s DAG [fd] after the newest trail entry's change into
   a fresh pool DAG, so the trail's snapshot stays intact, and drops the
   unit-flow row and load contribution (rebuilt lazily). *)
let repair_dest t edge dest fd =
  let st = t.stats in
  let entry = t.tr_len - 1 in
  st.Stats.incr_spf <- st.Stats.incr_spf + 1;
  push_saved t dest fd t.urows.(dest) t.dest_loads.(dest);
  t.tr_nsaved.(entry) <- t.tr_nsaved.(entry) + 1;
  let t0 = Mono.now () in
  let nfd = dag_alloc t in
  Array.blit fd.fdist 0 nfd.fdist 0 t.n;
  (Paths.Scratch.farg t.pscratch).(0) <- t.tr_oldw.(entry);
  let touched =
    Paths.dijkstra_update_prepared t.pscratch t.graph ~weights:t.weights
      ~dist:nfd.fdist ~edge
  in
  st.Stats.spf_nodes_touched <- st.Stats.spf_nodes_touched + touched;
  dag_repair t nfd fd edge;
  let ht = Stats.hot_times st in
  ht.(Stats.hot_spf_incr) <- ht.(Stats.hot_spf_incr) +. (Mono.now () -. t0);
  t.dags.(dest) <- nfd;
  t.urows.(dest) <- no_urow;
  if Array.length t.bd_src.(dest) > 0 then begin
    t.dest_loads.(dest) <- no_fvec;
    t.loads_valid <- false
  end

(* Applies a single weight change, repairing every dirty destination. *)
let apply_weight t edge new_w =
  let st = t.stats in
  st.Stats.weight_updates <- st.Stats.weight_updates + 1;
  let p = t.probe in
  let tok = if p.Probe.enabled then p.Probe.start "ev:repair" else -1 in
  push_trail t edge;
  let entry = t.tr_len - 1 in
  t.weights.(edge) <- new_w;
  for dest = 0 to t.n - 1 do
    let fd = t.dags.(dest) in
    if fd == no_dag then begin
      push_unknown t dest;
      t.tr_nunknown.(entry) <- t.tr_nunknown.(entry) + 1
    end
    else if dest_dirty t fd edge then begin
      st.Stats.dirty_dests <- st.Stats.dirty_dests + 1;
      repair_dest t edge dest fd
    end
    else st.Stats.clean_dests <- st.Stats.clean_dests + 1
  done;
  if tok >= 0 then p.Probe.finish tok

let set_weight t ~edge new_w =
  if not (new_w > 0.) then invalid_arg "Evaluator.set_weight: weight must be positive";
  if t.weights.(edge) <> new_w then apply_weight t edge new_w

(* An infinite weight is exactly edge removal for shortest-path state:
   Dijkstra never relaxes through it, so no DAG contains the edge and a
   node whose every route used it ends up at distance infinity.  The
   change rides the ordinary trail, so [undo] restores the link. *)
let disable_edge t ~edge =
  t.stats.Stats.edges_disabled <- t.stats.Stats.edges_disabled + 1;
  set_weight t ~edge infinity

let reachable t ~src ~dst = src = dst || (fdag_for t dst).fdist.(src) < infinity

(* Past this many changed entries a bulk update flushes the caches: the
   per-edge repairs would collectively touch most destinations anyway. *)
let bulk_threshold = 4

let flush t =
  for dest = 0 to t.n - 1 do
    t.dags.(dest) <- no_dag;
    t.urows.(dest) <- no_urow;
    t.dest_loads.(dest) <- no_fvec
  done;
  t.loads_valid <- false

let set_weights t w =
  check_weights t.graph w;
  let ndiff = ref 0 in
  for e = 0 to t.m - 1 do
    if t.weights.(e) <> w.(e) then incr ndiff
  done;
  if !ndiff <= bulk_threshold then begin
    for e = 0 to t.m - 1 do
      if t.weights.(e) <> w.(e) then set_weight t ~edge:e w.(e)
    done
  end
  else begin
    for e = 0 to t.m - 1 do
      if t.weights.(e) <> w.(e) then begin
        push_trail t e;
        t.tr_valid.(t.tr_len - 1) <- false;
        t.weights.(e) <- w.(e)
      end
    done;
    t.stats.Stats.weight_updates <- t.stats.Stats.weight_updates + !ndiff;
    flush t
  end

let clear_saved_refs t =
  for i = 0 to t.sv_len - 1 do
    t.sv_dag.(i) <- no_dag;
    t.sv_urow.(i) <- no_urow;
    t.sv_vec.(i) <- no_fvec
  done;
  t.sv_len <- 0;
  t.uk_len <- 0;
  t.tr_len <- 0

let commit t =
  if t.tr_len > 0 then begin
    t.stats.Stats.commits <- t.stats.Stats.commits + 1;
    (* The captured pre-change objects can never be restored now; feed
       the current-epoch ones back to the pools. *)
    for i = 0 to t.sv_len - 1 do
      dag_recycle t t.sv_dag.(i);
      urow_recycle t t.sv_urow.(i);
      fvec_recycle t t.sv_vec.(i)
    done;
    clear_saved_refs t
  end

let undo t =
  if t.tr_len > 0 then begin
    t.stats.Stats.undos <- t.stats.Stats.undos + 1;
    let p = t.probe in
    let tok = if p.Probe.enabled then p.Probe.start "ev:undo" else -1 in
    let all_valid = ref true in
    for i = 0 to t.tr_len - 1 do
      if not t.tr_valid.(i) then all_valid := false
    done;
    if !all_valid then begin
      (* Newest first: restoring in reverse application order recovers
         the exact original state even when one edge changed twice.
         Objects installed by the reverted repairs are recycled — an
         installed object is never referenced by any snapshot (snapshots
         capture only pre-repair state), so this cannot double-free. *)
      let sv_end = ref t.sv_len and uk_end = ref t.uk_len in
      for i = t.tr_len - 1 downto 0 do
        t.weights.(t.tr_edge.(i)) <- t.tr_oldw.(i);
        let ns = t.tr_nsaved.(i) in
        for j = !sv_end - ns to !sv_end - 1 do
          let dest = t.sv_dest.(j) in
          let cur = t.dags.(dest) in
          if cur != t.sv_dag.(j) then dag_recycle t cur;
          let curu = t.urows.(dest) in
          if curu != t.sv_urow.(j) then urow_recycle t curu;
          let curv = t.dest_loads.(dest) in
          if curv != t.sv_vec.(j) then fvec_recycle t curv;
          t.dags.(dest) <- t.sv_dag.(j);
          t.urows.(dest) <- t.sv_urow.(j);
          t.dest_loads.(dest) <- t.sv_vec.(j);
          t.sv_dag.(j) <- no_dag;
          t.sv_urow.(j) <- no_urow;
          t.sv_vec.(j) <- no_fvec;
          if Array.length t.bd_src.(dest) > 0 then t.loads_valid <- false
        done;
        sv_end := !sv_end - ns;
        (* Destinations first materialized after the change were built
           under the now-reverted weights: drop them. *)
        let nu = t.tr_nunknown.(i) in
        for j = !uk_end - nu to !uk_end - 1 do
          let dest = t.uk_dest.(j) in
          if t.dags.(dest) != no_dag then begin
            dag_recycle t t.dags.(dest);
            urow_recycle t t.urows.(dest);
            fvec_recycle t t.dest_loads.(dest);
            t.dags.(dest) <- no_dag;
            t.urows.(dest) <- no_urow;
            t.dest_loads.(dest) <- no_fvec;
            if Array.length t.bd_src.(dest) > 0 then t.loads_valid <- false
          end
        done;
        uk_end := !uk_end - nu
      done;
      t.sv_len <- 0;
      t.uk_len <- 0;
      t.tr_len <- 0
    end
    else begin
      (* Some entry lost its snapshot (bulk update or a commodity swap
         mid-trail): revert the weights and rebuild lazily. *)
      for i = 0 to t.tr_len - 1 do
        t.weights.(t.tr_edge.(i)) <- t.tr_oldw.(i)
      done;
      t.stats.Stats.weight_updates <-
        t.stats.Stats.weight_updates + t.tr_len;
      flush t;
      clear_saved_refs t
    end;
    if tok >= 0 then p.Probe.finish tok
  end

(* ------------------------------------------------------------------ *)
(* Bounded probes                                                      *)
(* ------------------------------------------------------------------ *)

let cut_eps = 1e-9

(* Shares are >= 0, so committed loads minus the dirty destinations' old
   shares plus the repaired ones' new shares bound the probe's loads
   from below, within a few ulps of [bound + 2 * committed] ([cut_eps]
   of slack).  Bound and dirty list use unit-row scratch arrays. *)
let probe_run t edge w above r =
  let st = t.stats and committed = t.loads_buf in
  push_trail t edge;
  t.weights.(edge) <- w;
  st.Stats.weight_updates <- st.Stats.weight_updates + 1;
  let bound = t.edge_flow and dirty = t.touched in
  let nall = ref 0 and nd = ref 0 in
  Array.blit committed 0 bound 0 t.m;
  for dest = 0 to t.n - 1 do
    let fd = t.dags.(dest) in
    if fd == no_dag then ()
    else if not (dest_dirty t fd edge) then
      st.Stats.clean_dests <- st.Stats.clean_dests + 1
    else begin
      incr nall;
      if Array.length t.bd_src.(dest) > 0 then begin
        dirty.(!nd) <- dest;
        incr nd;
        let dl = t.dest_loads.(dest) in
        for j = 0 to dl.flen - 1 do
          bound.(dl.fe.(j)) <- bound.(dl.fe.(j)) -. dl.fs.(j)
        done
      end
    end
  done;
  let k = ref 0 and cut = ref false in
  while (not !cut) && !k < !nd do
    let dest = dirty.(!k) in
    repair_dest t edge dest t.dags.(dest);
    let dl = dest_contribution t dest in
    for j = 0 to dl.flen - 1 do
      let e = dl.fe.(j) in
      let b = bound.(e) +. dl.fs.(j) in
      bound.(e) <- b;
      if b -. (cut_eps *. (b +. committed.(e) +. committed.(e)))
         > above *. t.g_cap.(e)
      then cut := true
    done;
    incr k
  done;
  st.Stats.dirty_dests <- st.Stats.dirty_dests + !nall;
  st.Stats.dests_skipped <- st.Stats.dests_skipped + !nall - !k;
  if !cut then begin
    st.Stats.probes_cut <- st.Stats.probes_cut + 1;
    r.mlu <- infinity
  end
  else begin
    resum t bound;
    let best = ref 0. in
    for e = 0 to t.m - 1 do
      let u = bound.(e) /. t.g_cap.(e) in
      if u > !best then best := u
    done;
    r.mlu <- !best
  end

(* The committed loads are never written during a probe, so they are
   valid again once [undo] restores the committed state. *)
let probe_restore t tok =
  Array.fill t.edge_flow 0 t.m 0.;
  if tok >= 0 then t.probe.Probe.finish tok;
  undo t;
  t.loads_valid <- true

let probe_mlu t ~edge w ~above r =
  if t.tr_len <> 0 || not (w > 0.) then
    invalid_arg "Evaluator.probe_mlu: pending trail or non-positive weight";
  t.stats.Stats.evaluations <- t.stats.Stats.evaluations + 1;
  r.phi <- nan;
  ignore (loads t);
  let p = t.probe in
  let tok = if p.Probe.enabled then p.Probe.start "ev:repair" else -1 in
  match probe_run t edge w above r with
  | () -> probe_restore t tok
  | exception ex -> probe_restore t tok; raise ex
