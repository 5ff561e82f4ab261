(** Demand-level ECMP helpers (§2: ES-flows restricted to shortest paths).

    Given a weight setting, traffic from [s] to [t] follows the
    shortest-path DAG towards [t] and splits evenly at every node over
    all outgoing DAG links.  The DAGs and unit flows themselves live in
    {!Engine.Evaluator}; this module lifts them to whole demand lists
    with waypoints, plus a few one-shot measurements.  Unroutable
    demands raise {!Engine.Evaluator.Unroutable}. *)

val loads :
  ?waypoints:int list array -> Engine.Evaluator.t -> Network.demand array ->
  float array
(** Per-edge load of the whole demand list under the evaluator's current
    weights; [waypoints.(i)] is the ordered waypoint list of demand [i]
    (visited before the final destination, §2.1).  Degenerate hops are
    skipped as in {!Segments.segment_endpoints}.  Returns a fresh array. *)

val mlu : Netgraph.Digraph.t -> float array -> float
(** max over links of load / capacity. *)

val utilizations : Netgraph.Digraph.t -> float array -> float array

val mlu_of :
  ?waypoints:int list array -> Netgraph.Digraph.t -> Weights.t ->
  Network.demand array -> float
(** One-shot [mlu (loads ...)] on a fresh evaluator. *)

val max_es_flow_value : Netgraph.Digraph.t -> Weights.t -> src:int -> dst:int -> float
(** Size of the largest even-split ECMP flow from [src] to [dst] that
    respects capacities under this weight setting: the flow pattern is
    fixed by the weights, so this is [1 / max_e (unit_load_e / cap_e)]. *)
