(** Reconfiguration-aware re-optimization.

    The paper's closing future-work item: "TE algorithms that react to
    shifts in the traffic demand and account for reconfiguration costs"
    (§8).  Re-running the optimizers from scratch after a demand shift
    may rewrite many link weights; every OSPF weight change triggers a
    network-wide reconvergence, so operators prefer settings that are
    close to the deployed ones.

    [reoptimize] runs a budgeted variant of the HeurOSPF local search
    whose moves are restricted to at most [max_weight_changes] links
    away from the deployed setting, then re-picks waypoints greedily
    (waypoint changes are cheap — they only touch ingress segment
    stacks and are therefore not budgeted). *)

type churn = {
  weight_changes : int;  (** links whose weight differs from deployed *)
  waypoint_changes : int;  (** demands whose waypoint list changed *)
}

val churn_between :
  deployed_weights:int array ->
  deployed_waypoints:Segments.setting ->
  int array ->
  Segments.setting ->
  churn

type result = {
  weights : int array;
  waypoints : Segments.setting;
  mlu : float;
  churn : churn;
}

val reoptimize_ctx :
  Obs.Ctx.t ->
  ?ls_params:Local_search.params ->
  ?max_weight_changes:int ->
  ?frozen_edges:int list ->
  ?ev:Engine.Evaluator.t ->
  ?prune:Prune.spec ->
  deployed_weights:int array ->
  deployed_waypoints:Segments.setting ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  result
(** The context-taking entry point: re-optimize for (shifted) [demands]
    starting from the deployed setting.  [max_weight_changes] defaults
    to [max 1 (|E| / 10)].  The result's MLU is never worse than keeping
    the deployed setting as-is.  The budgeted weight search is recorded
    as a ["reopt:weights"] span and the greedy waypoint re-pick as
    ["reopt:waypoints"]; a context deadline stops the weight search
    early (the waypoint step always runs).

    The weight search probes each candidate with
    {!Engine.Evaluator.probe_mlu} and memoizes the result per (edge,
    weight) until the next accepted move, so a pick that repeats a pair
    reads the stored MLU instead of probing again.  A reuse still
    spends one evaluation of [ls_params.max_evals], so the search takes
    the same draws and returns the same bits as one that re-probes.
    The span carries three int attributes: [evals] (budget units used:
    probes, reuses, and picks the churn budget rejects), [probes]
    ([probe_mlu] calls) and [reused] (memo hits).  The context's pool
    parallelizes the waypoint scan as in {!Greedy_wpo.optimize_ctx}.

    [ev] supplies a warm evaluator built on the same graph (physical
    equality is checked): it is re-synced to the deployed weights with
    an incremental [set_weights] + [commit] instead of a full rebuild —
    the serving loop keeps one evaluator alive across a whole update
    stream this way.  On return its weights/commodities reflect the
    search's last probe state, not necessarily the returned candidate;
    callers must re-sync it to whatever they deploy.  [prune] forwards
    a candidate-pruning spec to the greedy waypoint re-pick (see
    {!Prune}).

    [frozen_edges] (default none) marks failed links: they are pinned at
    infinite weight for every evaluation — equivalent to removal, see
    {!Engine.Evaluator.disable_edge} — and are never move candidates, so
    the search re-optimizes the surviving topology.  The returned weight
    vector keeps the deployed values on frozen edges (a failed link's
    weight is unobservable), so they never count as churn.  Every demand
    (segment) must remain routable without the frozen edges; otherwise
    {!Engine.Evaluator.Unroutable} is raised — callers sweeping failure
    scenarios should test reachability first (the scenario layer skips
    re-optimization for disconnecting failures). *)
