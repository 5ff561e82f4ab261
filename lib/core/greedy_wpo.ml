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
   caches persist for the whole run.  The running load vector is the
   only mutable state, and scoring a candidate never writes it:
   [Evaluator.segment_peak] walks the candidate's two cached unit rows
   against the loads, and the candidate's MLU is the larger of that
   peak and the demand's residual MLU (computed once per demand).  This
   is the dense splice-and-scan bit for bit, because a candidate only
   adds non-negative load (DESIGN.md, "Scoring a candidate").

   Everything runs on the calling domain and the context's pool is
   never used: a scan costs microseconds, and spreading it over a pool
   measured slower than one domain (EXPERIMENTS.md, "Sequential
   GreedyWPO scan").  So the result, the trace and [wpo.scanned] are
   the same for every pool size. *)

(* A candidate is a waypoint id; [drop] stands for the direct route. *)
let drop = -1

(* The state both greedies share: the evaluator whose cached unit rows
   score every candidate, the running loads, the optional pruner, the
   visit order, the unpruned candidate grid and [segment_peak]'s result
   cell. *)
type run = {
  ev : Engine.Evaluator.t;
  loads : float array;
  pruner : Prune.t option;
  indices : int array;
  nodes : int array;
  peak : float array;
  tracer : Obs.Tracer.t;
  stats : Engine.Stats.t;
}

let setup (octx : Obs.Ctx.t) ~order ~prune g weights demands =
  let ev =
    Engine.Evaluator.create ~stats:octx.Obs.Ctx.stats
      ~probe:(Obs.Ctx.probe octx) g weights
  in
  Engine.Evaluator.set_commodities ev demands;
  let loads = Array.copy (Engine.Evaluator.loads ev) in
  let pruner = Option.map (fun s -> Prune.prepare octx s ev demands) prune in
  { ev; loads; pruner; indices = order_indices order demands;
    nodes = Array.init (Digraph.node_count g) Fun.id; peak = [| 0. |];
    tracer = octx.Obs.Ctx.tracer; stats = octx.Obs.Ctx.stats }

let add r src dst scale =
  Engine.Evaluator.add_unit r.ev ~src ~dst ~scale ~into:r.loads

(* Returns the strict (MLU, candidate index) argmin — the first
   candidate among those of minimal MLU — or [None] if no candidate is
   routable.  Candidate [vias.(j)] routes [size] from [src] over that
   waypoint (or directly, for [drop]) to [dst] on top of [r.loads],
   whose MLU is [residual]; candidates raising [Unroutable] are
   skipped. *)
let scan_candidates r ~residual ~src ~dst ~size vias =
  let ncand = Array.length vias in
  if ncand = 0 then None
  else begin
    let scan_tok = Obs.Tracer.start r.tracer "wpo:scan" in
    Obs.Tracer.attr r.tracer scan_tok (Obs.Attr.int "candidates" ncand);
    let out = r.peak in
    let best_u = ref infinity and best_j = ref (-1) and scanned = ref 0 in
    for j = 0 to ncand - 1 do
      match
        Engine.Evaluator.segment_peak r.ev ~src ~via:vias.(j) ~dst ~scale:size
          ~base:r.loads ~out
      with
      | exception Engine.Evaluator.Unroutable _ -> ()
      | () ->
        incr scanned;
        let u = if out.(0) > residual then out.(0) else residual in
        if !best_j < 0 || u < !best_u then begin
          best_u := u;
          best_j := j
        end
    done;
    r.stats.Engine.Stats.wpo_scanned <- r.stats.wpo_scanned + !scanned;
    Obs.Tracer.finish r.tracer scan_tok;
    if !best_j < 0 then None else Some (!best_u, !best_j)
  end

(* The scan's candidate list: [drop] first when [with_drop], then the
   waypoints of [ws], in order, other than [src], [dst] and [cur]. *)
let candidates ~with_drop ~src ~dst ~cur ws =
  let keep w = w <> src && w <> dst && w <> cur in
  let first = Bool.to_int with_drop in
  let k = Array.fold_left (fun k w -> if keep w then k + 1 else k) first ws in
  let out = Array.make k drop in
  let j = ref first in
  Array.iter
    (fun w ->
      if keep w then begin
        out.(!j) <- w;
        incr j
      end)
    ws;
  out

(* The scan's candidate list for one demand visit, shared by both
   greedies.  The exact scan skip comes first: [residual] (the MLU with
   the demand's flow removed) lower-bounds every candidate's MLU, since
   a candidate only adds load, so once it fails the strict improvement
   test against [u_min] the list is empty — provably the same outcome
   as scoring and rejecting every candidate (DESIGN.md, "The exact scan
   skip").  Otherwise the list is [vias] of every node, or of the
   pruner's per-pair list; a pruned visit feeds the effectiveness
   counters against [full], the size of the unpruned list, and a
   skipped one counts that whole list as pruned. *)
let visit_cands stats pruner ~nodes ~residual ~u_min ~src ~dst ~full ~vias =
  let skip = residual >= u_min -. 1e-12 in
  match pruner with
  | None -> if skip then [||] else vias nodes
  | Some p ->
    let cands = if skip then [||] else vias (Prune.candidates p ~src ~dst) in
    Engine.Stats.record_pruning stats
      ~pruned:(max 0 (full - Array.length cands))
      ~kept:(Array.length cands);
    cands

(* ------------------------------------------------------------------ *)
(* Multi-round greedy (one more waypoint per round)                    *)
(* ------------------------------------------------------------------ *)

let optimize_multi_ctx (octx : Obs.Ctx.t) ?(order = Desc) ?prune ~rounds g
    weights demands =
  if rounds < 1 then invalid_arg "Greedy_wpo.optimize_multi: rounds >= 1";
  let n = Digraph.node_count g in
  let r = setup octx ~order ~prune g weights demands in
  let stats = Engine.Evaluator.stats r.ev in
  let setting = Array.make (Array.length demands) [] in
  let u_min = ref (Engine.Evaluator.mlu_of_loads g r.loads) in
  let round_mlu = ref [] in
  for round = 1 to rounds do
    let round_tok = Obs.Tracer.start r.tracer "wpo:round" in
    Obs.Tracer.attr r.tracer round_tok (Obs.Attr.int "round" round);
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
          let dst = d.Network.dst in
          add r anchor dst (-.size);
          let residual = Engine.Evaluator.mlu_of_loads g r.loads in
          let vias = candidates ~with_drop:false ~src:anchor ~dst ~cur:drop in
          let cands =
            visit_cands stats r.pruner ~nodes:r.nodes ~residual ~u_min:!u_min
              ~src:anchor ~dst ~full:(n - 2) ~vias
          in
          match scan_candidates r ~residual ~src:anchor ~dst ~size cands with
          | Some (u, j) when u < !u_min -. 1e-12 ->
            let w = cands.(j) in
            setting.(i) <- setting.(i) @ [ w ];
            u_min := u;
            add r anchor w size;
            add r w dst size
          | _ -> add r anchor dst size
        end)
      r.indices;
    let u = Engine.Evaluator.mlu_of_loads g r.loads in
    round_mlu := u :: !round_mlu;
    Obs.Tracer.attr r.tracer round_tok (Obs.Attr.float "mlu" u);
    Obs.Tracer.finish r.tracer round_tok
  done;
  { setting; mlu = Engine.Evaluator.mlu_of_loads g r.loads;
    round_mlu = List.rev !round_mlu }

(* ------------------------------------------------------------------ *)
(* Single-waypoint greedy (Algorithm 3 + improvement passes)           *)
(* ------------------------------------------------------------------ *)

let optimize_ctx (octx : Obs.Ctx.t) ?(order = Desc) ?(passes = 1) ?prune g
    weights demands =
  if passes < 1 then invalid_arg "Greedy_wpo.optimize: passes >= 1";
  let n = Digraph.node_count g in
  let r = setup octx ~order ~prune g weights demands in
  let stats = Engine.Evaluator.stats r.ev in
  let initial_mlu = Engine.Evaluator.mlu_of_loads g r.loads in
  let waypoints = Array.make (Array.length demands) None in
  let u_min = ref initial_mlu in
  (* Accumulates [scale] times the segments demand [i] currently loads
     onto the network. *)
  let add_segments i scale =
    let d = demands.(i) in
    match waypoints.(i) with
    | None -> add r d.Network.src d.Network.dst scale
    | Some w ->
      add r d.Network.src w scale;
      add r w d.Network.dst scale
  in
  (* Pass 1 is Algorithm 3 verbatim; later passes revisit each demand,
     allowing reassignment or removal of its waypoint (the sequential
     greedy is order-fragile and an improvement pass recovers most of
     the loss). *)
  for pass = 1 to passes do
    let pass_tok = Obs.Tracer.start r.tracer "wpo:pass" in
    Obs.Tracer.attr r.tracer pass_tok (Obs.Attr.int "pass" pass);
    Array.iter
      (fun i ->
        let d = demands.(i) in
        let size = d.Network.size in
        add_segments i (-.size);
        let residual = Engine.Evaluator.mlu_of_loads g r.loads in
        let src = d.Network.src and dst = d.Network.dst in
        let cur = Option.value waypoints.(i) ~default:drop in
        (* On improvement passes, also consider dropping the waypoint. *)
        let with_drop = pass > 1 && cur <> drop in
        let vias = candidates ~with_drop ~src ~dst ~cur in
        let full =
          n - 2 - (if cur <> drop then 1 else 0) + (if with_drop then 1 else 0)
        in
        let cands =
          visit_cands stats r.pruner ~nodes:r.nodes ~residual ~u_min:!u_min
            ~src ~dst ~full ~vias
        in
        (match scan_candidates r ~residual ~src ~dst ~size cands with
        | Some (u, j) when u < !u_min -. 1e-12 ->
          waypoints.(i) <- (if cands.(j) = drop then None else Some cands.(j))
        | _ -> ());
        add_segments i size;
        u_min := Engine.Evaluator.mlu_of_loads g r.loads)
      r.indices;
    Obs.Tracer.attr r.tracer pass_tok (Obs.Attr.float "mlu" !u_min);
    Obs.Tracer.finish r.tracer pass_tok
  done;
  { waypoints; mlu = Engine.Evaluator.mlu_of_loads g r.loads; initial_mlu }
