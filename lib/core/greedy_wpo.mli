(** Algorithm 3 (GreedyWPO): greedy single-waypoint selection under a
    fixed weight setting.

    Demands are visited in descending size order (the paper's order; the
    alternatives are exposed for the ablation bench).  For each demand
    every node is tried as its single waypoint, and the assignment is
    kept when it strictly improves the running MLU. *)

type order = Desc | Asc | Random of int

type result = {
  waypoints : int option array;  (** parallel to the demand array *)
  mlu : float;  (** MLU of the final assignment *)
  initial_mlu : float;  (** MLU with no waypoints, for the gap *)
}

val optimize_ctx :
  Obs.Ctx.t ->
  ?order:order ->
  ?passes:int ->
  ?prune:Prune.spec ->
  Netgraph.Digraph.t ->
  Weights.t ->
  Network.demand array ->
  result
(** The context-taking entry point.  The context's tracer records one
    ["wpo:pass"] span per pass with a ["wpo:scan"] span per candidate
    scan nested inside.
    [passes = 1] (default) is Algorithm 3 verbatim; additional passes
    revisit every demand and may reassign or drop its waypoint, which
    repairs most of the sequential greedy's order-dependence.  All unit
    flows come from one shared {!Engine.Evaluator}, whose cache counters
    land in [stats].

    The greedy runs on the calling domain and leaves the context's pool
    idle: each candidate is scored against the running loads by
    {!Engine.Evaluator.segment_peak}, and the winner is the first
    candidate of minimal MLU.  The result, the trace and the stats
    are therefore the same for every pool size.

    Every visit first applies the exact residual-MLU bound: with the
    demand's own flow removed, the MLU lower-bounds every candidate, so
    when it already fails the strict improvement test the visit scores
    no candidate, with no effect on the result.  The stats' [wpo.scanned]
    counter counts the candidates scored.

    [prune] (default off: all results byte-identical to previous
    releases) runs the {!Prune} preprocessing pass once up front and
    scans only each demand's pruned candidate list.  The effectiveness
    lands in the [candidates_pruned] / [candidates_kept] stats counters
    (a skipped visit counts its whole list as pruned).
    @raise Engine.Evaluator.Unroutable if a demand itself is unroutable (candidate
    waypoints that would make a segment unroutable are skipped). *)

type multi_result = {
  setting : Segments.setting;
  mlu : float;
  round_mlu : float list;  (** MLU after each greedy round *)
}

val optimize_multi_ctx :
  Obs.Ctx.t ->
  ?order:order ->
  ?prune:Prune.spec ->
  rounds:int ->
  Netgraph.Digraph.t ->
  Weights.t ->
  Network.demand array ->
  multi_result
(** The paper's open question "how many waypoints suffice?" (§8): runs
    the greedy [rounds] times; round [k] may append one more waypoint to
    each demand's list (so W <= rounds), greedily re-splitting the last
    segment.  [rounds = 1] coincides with {!optimize_ctx}.  The tracer
    records one ["wpo:round"] span per round.  [prune] behaves as in
    {!optimize_ctx}, and the pool stays idle as there; later rounds look
    up pruned candidates for the current segment anchor. *)
