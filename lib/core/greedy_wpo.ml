open Netgraph

type order = Desc | Asc | Random of int

type result = {
  waypoints : int option array;
  mlu : float;
  initial_mlu : float;
}

type multi_result = {
  setting : Segments.setting;
  mlu : float;
  round_mlu : float list;
}

let order_indices order demands =
  let indices = Array.init (Array.length demands) Fun.id in
  (match order with
  | Desc ->
    Array.sort
      (fun a b -> compare demands.(b).Network.size demands.(a).Network.size)
      indices
  | Asc ->
    Array.sort
      (fun a b -> compare demands.(a).Network.size demands.(b).Network.size)
      indices
  | Random seed ->
    let st = Random.State.make [| seed; 0x3e0 |] in
    for i = Array.length indices - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = indices.(i) in
      indices.(i) <- indices.(j);
      indices.(j) <- t
    done);
  indices

(* The greedy never changes weights, so the engine's DAG and unit-flow
   caches persist for the whole run; only the load vector is private
   (the search trials waypoint insertions by patching a copy).  All
   segment arithmetic goes through [Evaluator.add_unit], which
   accumulates straight from the engine's flat cached entries — no
   sparse views are ever materialized on the scan path. *)

(* ------------------------------------------------------------------ *)
(* Parallel candidate scan                                             *)
(* ------------------------------------------------------------------ *)

type candidate = Drop | Way of int

(* Candidates are scanned in fixed-size chunks so the work decomposition
   (and any float accumulation inside a task) is independent of the
   worker count — one leg of the [--jobs N] ≡ [--jobs 1] bit-identity
   guarantee.  The other leg: every candidate is scored on a pristine
   copy of the round's base loads, so its utilization depends only on
   the candidate itself, never on which candidates were tried before it
   on the same buffer. *)
let scan_chunk = 4

type scan_ctx = {
  g : Digraph.t;
  m : int;
  caps : float array; (* borrowed from the graph's CSR storage *)
  pool : Par.Pool.t;
  evs : Engine.Evaluator.t array; (* slot 0 is the main evaluator *)
  bufs : float array array; (* per-worker private load buffer *)
  main_stats : Engine.Stats.t;
  tracer : Obs.Tracer.t;
  metrics : Obs.Metrics.t;
}

(* Clones come from the context's persistent cache, on the calling
   domain, after the caches are warm — neither [Evaluator.copy] nor
   [Evaluator.sync_from] may race with another domain using the source
   evaluator.  Slots already populated by an earlier fan-out (a previous
   greedy run, or the local search sharing the same context) are
   delta-synced instead of recopied. *)
let make_ctx (octx : Obs.Ctx.t) ev =
  let g = Engine.Evaluator.graph ev in
  let m = Digraph.edge_count g in
  let pool = octx.Obs.Ctx.pool in
  let par = Par.Pool.parallelism pool in
  let evs =
    Array.init par (fun w ->
        if w = 0 then ev
        else Engine.Evaluator.Clones.get octx.Obs.Ctx.clones ~worker:w ~src:ev)
  in
  { g; m; caps = Digraph.caps g; pool; evs;
    bufs = Array.init par (fun _ -> Array.make m 0.);
    main_stats = Engine.Evaluator.stats ev; tracer = octx.Obs.Ctx.tracer;
    metrics = octx.Obs.Ctx.metrics }

(* Clones persist in the cache across fan-outs, so their counters are
   folded into the run total and reset — leaving them live would
   double-count on the next merge. *)
let merge_clone_stats ctx =
  for w = 1 to Array.length ctx.evs - 1 do
    let cs = Engine.Evaluator.stats ctx.evs.(w) in
    Engine.Stats.merge ~into:ctx.main_stats cs;
    Engine.Stats.reset cs
  done

(* Returns the strict (utilization, candidate index) argmin — the first
   candidate among those of minimal utilization — or [None] if no
   candidate is routable.  [add_cand ev buf c] accumulates the segment
   loads candidate [c] would place onto [buf] (via
   [Evaluator.add_unit] on the worker's own evaluator); candidates
   raising [Unroutable] are skipped. *)
let scan_candidates ctx ~loads ~add_cand cands =
  let ncand = Array.length cands in
  if ncand = 0 then None
  else begin
    (* The scan span is recorded by the orchestrating domain (workers
       never touch the buffer), so the trace is jobs-independent. *)
    let scan_tok = Obs.Tracer.start ctx.tracer "wpo:scan" in
    Obs.Tracer.attr ctx.tracer scan_tok (Obs.Attr.int "candidates" ncand);
    let ch = Par.Pool.chunks ~chunk:scan_chunk ncand in
    let per_chunk =
      Par.Pool.map ctx.pool ~tasks:(Array.length ch) (fun ~worker ci ->
          let start, len = ch.(ci) in
          let ev = ctx.evs.(worker) and buf = ctx.bufs.(worker) in
          let best = ref None and nev = ref 0 in
          for j = start to start + len - 1 do
            Array.blit loads 0 buf 0 ctx.m;
            match add_cand ev buf cands.(j) with
            | exception Engine.Evaluator.Unroutable _ -> ()
            | () ->
              incr nev;
              let u = ref 0. in
              for e = 0 to ctx.m - 1 do
                let r = buf.(e) /. ctx.caps.(e) in
                if r > !u then u := r
              done;
              (match !best with
              | Some (bu, _) when bu <= !u -> ()
              | _ -> best := Some (!u, j))
          done;
          (!best, !nev))
    in
    let scanned = ref 0 and best = ref None in
    (* Chunks reduce in index order and ties keep the earlier chunk, so
       the winner is the global first-of-the-minima regardless of which
       worker scored which chunk. *)
    Array.iter
      (fun (b, nev) ->
        scanned := !scanned + nev;
        match (b, !best) with
        | None, _ -> ()
        | Some _, None -> best := b
        | Some (u, _), Some (bu, _) -> if u < bu then best := b)
      per_chunk;
    if !scanned > 0 then Obs.Metrics.incr ctx.metrics ~by:!scanned "wpo.scanned";
    Obs.Tracer.finish ctx.tracer scan_tok;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Multi-round greedy (one more waypoint per round)                    *)
(* ------------------------------------------------------------------ *)

(* Pruned candidate-list construction, shared by both greedies: the
   exact residual-MLU bound first (an empty scan is provably identical
   to scanning and rejecting every candidate), then the preprocessing
   pass's per-pair list.  [full] is the size the unpruned list would
   have had; the difference feeds the effectiveness counters.  All of
   this runs on the orchestrating domain, so pruned runs keep the
   bit-identical-across-jobs guarantee. *)
let pruned_cands ctx p ~loads ~u_min ~src ~dst ~full ~wrap =
  let cands =
    if Prune.scan_skippable p ~loads ~u_min then [||]
    else wrap (Prune.candidates p ~src ~dst)
  in
  Engine.Stats.record_pruning ctx.main_stats
    ~pruned:(max 0 (full - Array.length cands))
    ~kept:(Array.length cands);
  cands

let optimize_multi_ctx (octx : Obs.Ctx.t) ?(order = Desc) ?prune ~rounds g
    weights demands =
  if rounds < 1 then invalid_arg "Greedy_wpo.optimize_multi: rounds >= 1";
  let n = Digraph.node_count g in
  let tracer = octx.Obs.Ctx.tracer in
  let ev =
    Engine.Evaluator.create ~stats:octx.Obs.Ctx.stats
      ~probe:(Obs.Ctx.probe octx) g weights
  in
  Engine.Evaluator.set_commodities ev (Network.to_commodities demands);
  let add src dst scale into =
    Engine.Evaluator.add_unit ev ~src ~dst ~scale ~into
  in
  let loads = Array.copy (Engine.Evaluator.loads ev) in
  let ctx = make_ctx octx ev in
  let pruner = Option.map (fun s -> Prune.prepare octx s ev demands) prune in
  let setting = Array.make (Array.length demands) [] in
  let indices = order_indices order demands in
  let u_min = ref (Engine.Evaluator.mlu_of_loads g loads) in
  let round_mlu = ref [] in
  for round = 1 to rounds do
    let round_tok = Obs.Tracer.start tracer "wpo:round" in
    Obs.Tracer.attr tracer round_tok (Obs.Attr.int "round" round);
    Array.iter
      (fun i ->
        let d = demands.(i) in
        let size = d.Network.size in
        (* The greedy re-splits the LAST segment (anchor -> t), where
           the anchor is the most recent waypoint (or the source). *)
        let anchor =
          match List.rev setting.(i) with w :: _ -> w | [] -> d.Network.src
        in
        if anchor <> d.Network.dst then begin
          add anchor d.Network.dst (-.size) loads;
          let cands =
            match pruner with
            | None ->
              let ways = ref [] in
              for w = n - 1 downto 0 do
                if w <> anchor && w <> d.Network.dst then ways := Way w :: !ways
              done;
              Array.of_list !ways
            | Some p ->
              pruned_cands ctx p ~loads ~u_min:!u_min ~src:anchor
                ~dst:d.Network.dst ~full:(n - 2)
                ~wrap:(Array.map (fun w -> Way w))
          in
          let add_cand ev buf = function
            | Way w ->
              Engine.Evaluator.add_unit ev ~src:anchor ~dst:w ~scale:size
                ~into:buf;
              Engine.Evaluator.add_unit ev ~src:w ~dst:d.Network.dst
                ~scale:size ~into:buf
            | Drop -> assert false
          in
          match scan_candidates ctx ~loads ~add_cand cands with
          | Some (u, j) when u < !u_min -. 1e-12 ->
            let w = match cands.(j) with Way w -> w | Drop -> assert false in
            setting.(i) <- setting.(i) @ [ w ];
            u_min := u;
            add anchor w size loads;
            add w d.Network.dst size loads
          | _ -> add anchor d.Network.dst size loads
        end)
      indices;
    let u = Engine.Evaluator.mlu_of_loads g loads in
    round_mlu := u :: !round_mlu;
    Obs.Tracer.attr tracer round_tok (Obs.Attr.float "mlu" u);
    Obs.Tracer.finish tracer round_tok
  done;
  merge_clone_stats ctx;
  { setting; mlu = Engine.Evaluator.mlu_of_loads g loads;
    round_mlu = List.rev !round_mlu }

(* ------------------------------------------------------------------ *)
(* Single-waypoint greedy (Algorithm 3 + improvement passes)           *)
(* ------------------------------------------------------------------ *)

let optimize_ctx (octx : Obs.Ctx.t) ?(order = Desc) ?(passes = 1) ?prune g
    weights demands =
  if passes < 1 then invalid_arg "Greedy_wpo.optimize: passes >= 1";
  let n = Digraph.node_count g in
  let tracer = octx.Obs.Ctx.tracer in
  let ev =
    Engine.Evaluator.create ~stats:octx.Obs.Ctx.stats
      ~probe:(Obs.Ctx.probe octx) g weights
  in
  Engine.Evaluator.set_commodities ev (Network.to_commodities demands);
  let add src dst scale into =
    Engine.Evaluator.add_unit ev ~src ~dst ~scale ~into
  in
  let loads = Array.copy (Engine.Evaluator.loads ev) in
  let ctx = make_ctx octx ev in
  let pruner = Option.map (fun s -> Prune.prepare octx s ev demands) prune in
  let initial_mlu = Engine.Evaluator.mlu_of_loads g loads in
  let waypoints = Array.make (Array.length demands) None in
  let indices = order_indices order demands in
  let u_min = ref initial_mlu in
  (* Accumulates [scale] times the segments demand [i] currently loads
     onto the network. *)
  let add_segments i scale =
    let d = demands.(i) in
    match waypoints.(i) with
    | None -> add d.Network.src d.Network.dst scale loads
    | Some w ->
      add d.Network.src w scale loads;
      add w d.Network.dst scale loads
  in
  (* Pass 1 is Algorithm 3 verbatim; later passes revisit each demand,
     allowing reassignment or removal of its waypoint (the sequential
     greedy is order-fragile and an improvement pass recovers most of
     the loss). *)
  for pass = 1 to passes do
    let pass_tok = Obs.Tracer.start tracer "wpo:pass" in
    Obs.Tracer.attr tracer pass_tok (Obs.Attr.int "pass" pass);
    Array.iter
      (fun i ->
        let d = demands.(i) in
        let size = d.Network.size in
        add_segments i (-.size);
        (* On improvement passes, also consider dropping the waypoint. *)
        let drop = pass > 1 && waypoints.(i) <> None in
        let cands =
          match pruner with
          | None ->
            let ways = ref [] in
            for w = n - 1 downto 0 do
              if w <> d.Network.src && w <> d.Network.dst && Some w <> waypoints.(i)
              then ways := Way w :: !ways
            done;
            if drop then Array.of_list (Drop :: !ways)
            else Array.of_list !ways
          | Some p ->
            let full =
              n - 2
              - (if waypoints.(i) <> None then 1 else 0)
              + (if drop then 1 else 0)
            in
            pruned_cands ctx p ~loads ~u_min:!u_min ~src:d.Network.src
              ~dst:d.Network.dst ~full ~wrap:(fun ws ->
                let ways = ref [] in
                for j = Array.length ws - 1 downto 0 do
                  if Some ws.(j) <> waypoints.(i) then
                    ways := Way ws.(j) :: !ways
                done;
                if drop then Array.of_list (Drop :: !ways)
                else Array.of_list !ways)
        in
        let add_cand ev buf = function
          | Drop ->
            Engine.Evaluator.add_unit ev ~src:d.Network.src ~dst:d.Network.dst
              ~scale:size ~into:buf
          | Way w ->
            Engine.Evaluator.add_unit ev ~src:d.Network.src ~dst:w ~scale:size
              ~into:buf;
            Engine.Evaluator.add_unit ev ~src:w ~dst:d.Network.dst ~scale:size
              ~into:buf
        in
        (match scan_candidates ctx ~loads ~add_cand cands with
        | Some (u, j) when u < !u_min -. 1e-12 ->
          waypoints.(i) <-
            (match cands.(j) with Drop -> None | Way w -> Some w)
        | _ -> ());
        add_segments i size;
        u_min := Engine.Evaluator.mlu_of_loads g loads)
      indices;
    Obs.Tracer.attr tracer pass_tok (Obs.Attr.float "mlu" !u_min);
    Obs.Tracer.finish tracer pass_tok
  done;
  merge_clone_stats ctx;
  let final_mlu = Engine.Evaluator.mlu_of_loads g loads in
  { waypoints; mlu = final_mlu; initial_mlu }
