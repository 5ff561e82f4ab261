(** Exact waypoint optimization as a MILP ("ILP Waypoints" of Figure 5).

    With a fixed weight setting the ECMP unit-load vector of every
    (source, destination) pair is a constant, so choosing at most one
    waypoint per demand is a linear assignment problem:

    minimize U subject to, per demand i, sum_w z_iw = 1 (w ranges over
    "none" and every candidate waypoint), and per link e,
    sum_iw load_iw(e) z_iw <= U c_e, with z binary.

    This matches the paper's WPO-with-fixed-weights MILP and is solved
    exactly by {!Linprog.Milp} (branch and bound). *)

type t = {
  waypoints : Segments.setting;  (** ordered waypoint list per demand *)
  mlu : float;
  exact : bool;  (** false when the node limit stopped the search early *)
  nodes_explored : int;
}

val solve_ctx :
  Obs.Ctx.t ->
  ?max_nodes:int ->
  ?candidates:int list ->
  ?max_waypoints:int ->
  ?warm:bool ->
  ?prune:Prune.spec ->
  Netgraph.Digraph.t ->
  Weights.t ->
  Network.demand array ->
  t
(** The context-taking entry point.  [candidates] restricts the waypoint
    universe (default: every node); [prune] (default off) intersects it
    further with the {!Prune} pass's per-demand candidate lists before
    any z variable is created — the MILP shrinks, the warm-start greedy
    scans the same pruned lists, and the [candidates_pruned] /
    [candidates_kept] stats counters report the reduction.
    [max_waypoints] is the per-demand
    sequence-length cap W (default 1; options grow as candidates^W, so
    W >= 2 is for small instances).  [max_nodes] bounds the
    branch-and-bound tree (default 50_000).  [warm] (default true)
    toggles parent-basis warm starts in the branch and bound.  The
    context's stats receive the LP effort counters
    ({!Engine.Stats.record_lp}); the tracer records one ["milp:wpo"]
    root span with ["milp:warm-start"] (the GreedyWPO incumbent) and
    ["milp:branch-and-bound"] nested inside, plus per-node ["milp:node"]
    and per-solve ["lp:solve"]/["lp:factor"] spans from the LP layer;
    the stats also count [milp.nodes] and [milp.cycle_limits].
    @raise Engine.Evaluator.Unroutable on an unroutable demand. *)
