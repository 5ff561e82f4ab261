(** Algorithm 2 (JOINT-Heur): the paper's heuristic for joint link
    weight and waypoint optimization.

    Pipeline: (1) HeurOSPF gives weights; (2) GreedyWPO picks one
    waypoint per demand under those weights; (3) each demand is split at
    its waypoint into two demands; (4) HeurOSPF runs again on the split
    list.  The paper reports the gains of steps 3–4 as negligible and
    plots the first two stages; both variants are available and the
    returned setting is the better of the two evaluations. *)

type result = {
  weights : Weights.t;
  int_weights : int array;
  waypoints : Segments.setting;
  mlu : float;
  stage_mlu : (string * float) list;
      (** MLU after each pipeline stage, for reporting *)
}

val optimize_ctx :
  Obs.Ctx.t ->
  ?restarts:int ->
  ?ls_params:Local_search.params ->
  ?full_pipeline:bool ->
  ?prune:Prune.spec ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  result
(** The context-taking entry point.  [full_pipeline] (default [false],
    as plotted in the paper) enables steps 3–4.  The context is threaded
    through every stage (weight search, greedy waypoints, cross-stage
    evaluations), so one stats/tracer instance accounts for the whole
    pipeline; each stage is wrapped in its own span (["joint:weights"],
    ["joint:waypoints"], and ["joint:split-reopt"] for stages 3–4).
    The context's pool and [restarts] are forwarded to
    {!Local_search.optimize_ctx}, whose restarts run as pool tasks;
    results stay bit-identical across pool sizes.  [prune] (default off) forwards to
    the greedy waypoint stage as in {!Greedy_wpo.optimize_ctx}; the
    weight search is unaffected. *)

val split_reopt :
  Obs.Ctx.t -> ?restarts:int -> ls_params:Local_search.params ->
  Netgraph.Digraph.t -> Network.demand array -> result -> int * result
(** Steps 3–4 on a steps 1–2 result, as in {!optimize_ctx} with
    [full_pipeline] (and {!Solver}'s ["joint"]): trail entry
    ["HeurOSPF2"], the new weights only if they route better, and the
    re-run search's evaluation count. *)

val optimize_iterated_ctx :
  Obs.Ctx.t ->
  ?restarts:int ->
  ?ls_params:Local_search.params ->
  ?iterations:int ->
  ?prune:Prune.spec ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  result
(** The paper's open question (§8): alternate weight optimization and
    greedy waypoint optimization (one waypoint per demand per
    iteration) for [iterations] rounds (default 3), each weight search
    warm-started on the split demand list induced by the current
    waypoints, keeping the best setting seen.  Each iteration records one
    ["joint:weights"] and one ["joint:waypoints"] span tagged with an
    ["iteration"] attribute. *)
