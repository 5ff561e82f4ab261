(* Binary min-heap keyed by float priority, holding node ids.  We allow
   duplicate entries and skip stale pops, which keeps the code simple and
   is the usual trade-off for Dijkstra.

   The heap is part of the reusable {!Scratch} arena, so its operations
   must not allocate.  Without flambda the native compiler boxes floats
   crossing a non-inlined function boundary, so the hot entry points
   never take or return a float: the key travels through the one-slot
   [karg] float array (stores into a float array stay unboxed), and pops
   read [keys.(0)] / [vals.(0)] directly before calling {!Heap.drop}. *)
module Heap = struct
  type t = {
    mutable keys : float array;
    mutable vals : int array;
    mutable size : int;
    karg : float array; (* 1-slot argument channel: push key, unboxed *)
  }

  let create cap =
    { keys = Array.make (max 1 cap) 0.; vals = Array.make (max 1 cap) 0;
      size = 0; karg = Array.make 1 0. }

  let clear h = h.size <- 0

  let is_empty h = h.size = 0

  let grow h =
    let c = Array.length h.keys in
    let keys = Array.make (2 * c) 0. and vals = Array.make (2 * c) 0 in
    Array.blit h.keys 0 keys 0 h.size;
    Array.blit h.vals 0 vals 0 h.size;
    h.keys <- keys;
    h.vals <- vals

  (* Pushes [(karg.(0), v)]; grow-only, so allocation-free once warm. *)
  let push_karg h v =
    if h.size = Array.length h.keys then grow h;
    let k = h.karg.(0) in
    let i = ref h.size in
    h.size <- h.size + 1;
    h.keys.(!i) <- k;
    h.vals.(!i) <- v;
    while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
      let p = (!i - 1) / 2 in
      let tk = h.keys.(p) and tv = h.vals.(p) in
      h.keys.(p) <- h.keys.(!i); h.vals.(p) <- h.vals.(!i);
      h.keys.(!i) <- tk; h.vals.(!i) <- tv;
      i := p
    done

  (* Removes the minimum; the caller reads [keys.(0)] / [vals.(0)]
     before dropping. *)
  let drop h =
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
      if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let s = !smallest in
        let tk = h.keys.(s) and tv = h.vals.(s) in
        h.keys.(s) <- h.keys.(!i); h.vals.(s) <- h.vals.(!i);
        h.keys.(!i) <- tk; h.vals.(!i) <- tv;
        i := s
      end
    done
end

(* ------------------------------------------------------------------ *)
(* Reusable scratch arena                                              *)
(* ------------------------------------------------------------------ *)

module Scratch = struct
  type t = {
    heap : Heap.t;
    mutable mark : int array; (* stamped membership: mark.(v) = stamp *)
    mutable stamp : int;
    mutable stack : int array; (* DFS work stack, then the settle record *)
    mutable nsettled : int;
    mutable visited : int array; (* nodes the last repair may have changed *)
    mutable nvisited : int;
    farg : float array; (* 1-slot float argument channel (see Heap.karg) *)
  }

  let create () =
    { heap = Heap.create 64; mark = [||]; stamp = 0; stack = [||];
      nsettled = 0; visited = [||]; nvisited = 0; farg = Array.make 1 0. }

  (* Grow-only: after the first call at a given size every later call is
     allocation-free. *)
  let ensure s n =
    if Array.length s.mark < n then begin
      s.mark <- Array.make n 0;
      s.stamp <- 0;
      s.stack <- Array.make n 0;
      s.visited <- Array.make n 0
    end

  let farg s = s.farg

  let visited s = s.visited

  let visited_count s = s.nvisited

  let settled s = s.stack

  let settled_count s = s.nsettled

  (* Records [v] at its one valid pop, so in nondecreasing distance. *)
  let settle s v =
    s.stack.(s.nsettled) <- v;
    s.nsettled <- s.nsettled + 1

  (* Records [v] unless it is already marked with the current stamp. *)
  let visit s v =
    if s.mark.(v) <> s.stamp then begin
      s.mark.(v) <- s.stamp;
      s.visited.(s.nvisited) <- v;
      s.nvisited <- s.nvisited + 1
    end
end

(* Per-domain scratch for [dijkstra_to], the one arena-less entry
   point: it allocates only its result.  Domain-local, so parallel
   sweeps on worker domains never share one. *)
let dls_scratch = Domain.DLS.new_key (fun () -> Scratch.create ())

let domain_scratch () = Domain.DLS.get dls_scratch

let check_weights g weights =
  if Array.length weights <> Digraph.edge_count g then
    invalid_arg "Paths: weight vector length mismatch";
  Array.iter
    (fun w -> if not (w > 0.) then invalid_arg "Paths: weights must be positive")
    weights

(* Core settle loop over one CSR direction: [row]/[col] index the edges
   incident to a settled node, [ep.(e)] is the node an edge leads to in
   the traversal direction (esrc, as every search runs towards a
   target on the reversed graph). *)
let settle_loop scratch row col ep weights dist =
  let h = scratch.Scratch.heap in
  scratch.Scratch.nsettled <- 0;
  while not (Heap.is_empty h) do
    let d = h.Heap.keys.(0) and v = h.Heap.vals.(0) in
    Heap.drop h;
    if d <= dist.(v) then begin
      Scratch.settle scratch v;
      for i = row.(v) to row.(v + 1) - 1 do
        let e = col.(i) in
        let u = ep.(e) in
        let nd = d +. weights.(e) in
        if nd < dist.(u) then begin
          dist.(u) <- nd;
          h.Heap.karg.(0) <- nd;
          Heap.push_karg h u
        end
      done
    end
  done

let dijkstra_to_into scratch g ~weights ~target ~dist =
  let n = Digraph.node_count g in
  if Array.length dist <> n then
    invalid_arg "Paths.dijkstra_to_into: dist length mismatch";
  Scratch.ensure scratch n;
  let h = scratch.Scratch.heap in
  Heap.clear h;
  Array.fill dist 0 n infinity;
  dist.(target) <- 0.;
  h.Heap.karg.(0) <- 0.;
  Heap.push_karg h target;
  settle_loop scratch (Digraph.in_offsets g) (Digraph.in_index g)
    (Digraph.srcs g) weights dist

let dijkstra_to g ~weights ~target =
  check_weights g weights;
  let dist = Array.make (Digraph.node_count g) infinity in
  dijkstra_to_into (domain_scratch ()) g ~weights ~target ~dist;
  dist

(* Incremental single-edge repair of a distance-to-target array.

   [dist] is assumed correct for the weight vector that equals [weights]
   everywhere except on [edge], whose previous value was [old_weight].
   Distances propagate towards the target, so all work happens on the
   reversed graph, exactly as in [dijkstra_to].

   Tolerance: callers detect ties with a relative epsilon; tightness
   tests here use a slightly generous one.  Over-approximating the
   affected set only costs work, never correctness, because every node
   in it gets its distance recomputed from scratch. *)
let tight_eps = 1e-9

let update_decrease scratch g weights dist edge =
  let u = Digraph.src g edge and v = Digraph.dst g edge in
  let nd = weights.(edge) +. dist.(v) in
  if dist.(v) = infinity || nd >= dist.(u) then 0
  else begin
    Scratch.ensure scratch (Digraph.node_count g);
    scratch.Scratch.stamp <- scratch.Scratch.stamp + 1;
    let h = scratch.Scratch.heap in
    Heap.clear h;
    let in_row = Digraph.in_offsets g and in_col = Digraph.in_index g in
    let esrc = Digraph.srcs g in
    dist.(u) <- nd;
    Scratch.visit scratch u;
    h.Heap.karg.(0) <- nd;
    Heap.push_karg h u;
    while not (Heap.is_empty h) do
      let d = h.Heap.keys.(0) and x = h.Heap.vals.(0) in
      Heap.drop h;
      if d <= dist.(x) then begin
        Scratch.settle scratch x;
        for i = in_row.(x) to in_row.(x + 1) - 1 do
          let e = in_col.(i) in
          let p = esrc.(e) in
          let cand = d +. weights.(e) in
          if cand < dist.(p) then begin
            dist.(p) <- cand;
            Scratch.visit scratch p;
            h.Heap.karg.(0) <- cand;
            Heap.push_karg h p
          end
        done
      end
    done;
    (* every node whose distance fell, counted once however often *)
    scratch.Scratch.nvisited
  end

(* Reads the old weight from [scratch.farg.(0)]: a float parameter would
   be boxed at this (non-inlinable) function's call boundary, defeating
   the allocation-free repair path. *)
let update_increase scratch g weights dist edge =
  let old_weight = scratch.Scratch.farg.(0) in
  let u = Digraph.src g edge and v = Digraph.dst g edge in
  (* [is_tight] inlined by hand: the call may not be inlined by the
     compiler, and a non-inlined call boxes its float arguments. *)
  let du = dist.(u) and dv = dist.(v) in
  if
    not
      (du < infinity && dv < infinity
      && abs_float ((old_weight +. dv) -. du)
         <= tight_eps *. (1. +. abs_float du))
  then 0
  else begin
    Scratch.ensure scratch (Digraph.node_count g);
    let in_row = Digraph.in_offsets g and in_col = Digraph.in_index g in
    let out_row = Digraph.out_offsets g and out_col = Digraph.out_index g in
    let esrc = Digraph.srcs g and edst = Digraph.dsts g in
    (* Affected over-approximation: nodes with a tight path (under the
       old weight) through [edge].  Membership is a stamp in the arena's
       mark array, so clearing it between probes is one counter bump. *)
    scratch.Scratch.stamp <- scratch.Scratch.stamp + 1;
    let stamp = scratch.Scratch.stamp in
    let mark = scratch.Scratch.mark and stack = scratch.Scratch.stack in
    Scratch.visit scratch u;
    stack.(0) <- u;
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      let x = stack.(!sp) in
      for i = in_row.(x) to in_row.(x + 1) - 1 do
        let e = in_col.(i) in
        let p = esrc.(e) in
        if
          mark.(p) <> stamp && e <> edge
          && dist.(p) < infinity && dist.(x) < infinity
          && abs_float ((weights.(e) +. dist.(x)) -. dist.(p))
             <= tight_eps *. (1. +. abs_float dist.(p))
        then begin
          Scratch.visit scratch p;
          stack.(!sp) <- p;
          incr sp
        end
      done
    done;
    (* Re-seed every affected node from its unaffected out-neighbours
       (current weights, including the new value on [edge]). *)
    let h = scratch.Scratch.heap in
    Heap.clear h;
    let visited = scratch.Scratch.visited in
    for k = 0 to scratch.Scratch.nvisited - 1 do
      let x = visited.(k) in
      let best = ref infinity in
      for i = out_row.(x) to out_row.(x + 1) - 1 do
        let e = out_col.(i) in
        let y = edst.(e) in
        if mark.(y) <> stamp then begin
          let cand = weights.(e) +. dist.(y) in
          if cand < !best then best := cand
        end
      done;
      dist.(x) <- !best;
      if !best < infinity then begin
        h.Heap.karg.(0) <- !best;
        Heap.push_karg h x
      end
    done;
    (* Dijkstra restricted to the affected region; the DFS stack is
       free again, so the settle record reuses it. *)
    while not (Heap.is_empty h) do
      let d = h.Heap.keys.(0) and x = h.Heap.vals.(0) in
      Heap.drop h;
      if d <= dist.(x) then begin
        Scratch.settle scratch x;
        for i = in_row.(x) to in_row.(x + 1) - 1 do
          let e = in_col.(i) in
          let p = esrc.(e) in
          if mark.(p) = stamp then begin
            let cand = d +. weights.(e) in
            if cand < dist.(p) then begin
              dist.(p) <- cand;
              h.Heap.karg.(0) <- cand;
              Heap.push_karg h p
            end
          end
        done
      end
    done;
    scratch.Scratch.nvisited
  end

(* Allocation-free repair core: the old weight travels through the
   arena's [farg] slot instead of a (boxed) float argument — the form
   the engine's zero-allocation probe loop calls. *)
let dijkstra_update_prepared scratch g ~weights ~dist ~edge =
  if Array.length weights <> Digraph.edge_count g then
    invalid_arg "Paths: weight vector length mismatch";
  if Array.length dist <> Digraph.node_count g then
    invalid_arg "Paths.dijkstra_update_prepared: dist length mismatch";
  let old_weight = scratch.Scratch.farg.(0) in
  let w = weights.(edge) in
  if not (w > 0.) then invalid_arg "Paths: weights must be positive";
  scratch.Scratch.nvisited <- 0;
  scratch.Scratch.nsettled <- 0;
  if w = old_weight then 0
  else if w < old_weight then update_decrease scratch g weights dist edge
  else update_increase scratch g weights dist edge

let topo_order g ~keep =
  let n = Digraph.node_count g in
  let indeg = Array.make n 0 in
  let m = Digraph.edge_count g in
  for e = 0 to m - 1 do
    if keep e then indeg.(Digraph.dst g e) <- indeg.(Digraph.dst g e) + 1
  done;
  let order = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    Digraph.iter_out g v (fun e ->
        if keep e then begin
          let w = Digraph.dst g e in
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then begin
            order.(!tail) <- w;
            incr tail
          end
        end)
  done;
  if !tail <> n then failwith "Paths.topo_order: subgraph has a cycle";
  order

let reachable g ~source =
  let n = Digraph.node_count g in
  let seen = Array.make n false in
  let rec go stack =
    match stack with
    | [] -> ()
    | v :: rest ->
      let stack = ref rest in
      Digraph.iter_out g v (fun e ->
          let w = Digraph.dst g e in
          if not seen.(w) then begin
            seen.(w) <- true;
            stack := w :: !stack
          end);
      go !stack
  in
  seen.(source) <- true;
  go [ source ];
  seen
