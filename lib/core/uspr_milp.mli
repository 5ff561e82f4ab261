(** The paper's MILP formulation of weight and joint optimization
    ([18], demonstrated on small examples in §7.1), implemented in the
    unique-shortest-path (USPR) regime.

    Variables: link weights [w_e] in [1, wmax] (continuous), per-target
    distance potentials [d_v^t], binary forwarding choices [y_{e,t}]
    (one outgoing edge per node and target), and per-demand path
    indicators [x] (continuous — the integral [y] trees force them to
    0/1).  Big-M constraints make each selected edge tight
    ([w_e + d_u = d_v]) and every other edge longer by a margin
    [epsilon], so the induced OSPF routing follows exactly the chosen
    unique shortest paths.  The objective minimizes the MLU [U] with
    [sum_d size_d x_{d,e} <= U c_e].

    USPR restricts ECMP's even splits to single paths; on instances
    whose optima do not need splitting (all the paper's gap instances)
    it coincides with the ECMP optimum, and in general it shows the
    pure effect of waypoints: demands sharing (src, dst) are forced onto
    one path unless waypoints separate them. *)

type t = {
  weights : Weights.t;
  mlu : float;
  exact : bool;  (** optimality proven (no node-limit abort) *)
  nodes_explored : int;
}

val lwo_ctx :
  Obs.Ctx.t ->
  ?wmax:float ->
  ?epsilon:float ->
  ?max_nodes:int ->
  ?warm:bool ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  t
(** Optimal USPR link weights ("ILP Weights"), context-taking entry
    point.  Demands are aggregated per pair first.  [wmax] defaults to
    [4 n]; [epsilon] (the unique-path margin) to [0.1]; [max_nodes] to
    [20_000].  [warm] (default true) toggles parent-basis warm starts
    inside the branch and bound.  The context's stats receive the
    LP effort counters; the tracer records one ["milp:lwo"] root
    span with ["milp:branch-and-bound"] plus the LP layer's
    ["milp:node"]/["lp:solve"]/["lp:factor"] spans nested inside; the
    stats also count [milp.nodes] and [milp.cycle_limits].
    @raise Failure if some demand is unroutable. *)

type joint_result = {
  setting : t;
  waypoints : Segments.setting;
}

val joint_ctx :
  Obs.Ctx.t ->
  ?wmax:float ->
  ?epsilon:float ->
  ?max_nodes:int ->
  ?candidates:int list ->
  ?max_combos:int ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  joint_result
(** Joint optimization with up to one waypoint per demand ("ILP Joint"),
    context-taking entry point: enumerates waypoint assignments (at most
    [max_combos], default 512) and solves the USPR weight MILP on each
    induced segment list.  The enumeration is recorded as one
    ["milp:joint"] span (with an ["assignments"] attribute) containing
    one ["milp:lwo"] span per assignment.
    @raise Invalid_argument when the assignment space exceeds
    [max_combos] — this is an exact reference for tiny instances only. *)
