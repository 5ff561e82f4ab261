(** Demand-level ECMP helpers (§2: ES-flows restricted to shortest paths).

    Given a weight setting, traffic from [s] to [t] follows the
    shortest-path DAG towards [t] and splits evenly at every node over
    all outgoing DAG links.  The DAGs, unit flows and loads live in
    {!Engine.Evaluator}; this module adds the one-shot measurements of
    a setting.  Unroutable demands raise {!Engine.Evaluator.Unroutable}. *)

val mlu_of :
  ?stats:Engine.Stats.t -> ?waypoints:int list array -> Netgraph.Digraph.t ->
  Weights.t -> Network.demand array -> float
(** The MLU of a (weights, waypoints) setting: a fresh evaluator with
    [Segments.expand demands waypoints] attached as its commodities
    ([waypoints.(i)] is demand [i]'s ordered waypoint list, §2.1).
    Every bench table and te-tool command re-evaluates a setting
    through it.  Counts one evaluation in [stats].
    @raise Invalid_argument if [waypoints] and [demands] differ in
    length. *)

val max_es_flow_value : Netgraph.Digraph.t -> Weights.t -> src:int -> dst:int -> float
(** Size of the largest even-split ECMP flow from [src] to [dst] that
    respects capacities under this weight setting: the flow pattern is
    fixed by the weights, so this is [1 / max_e (unit_load_e / cap_e)]. *)
