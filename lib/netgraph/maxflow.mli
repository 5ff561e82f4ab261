(** Maximum flow (Dinic), acyclic flows and flow decomposition. *)

type flow = {
  value : float;  (** total flow from source to target *)
  on_edge : float array;  (** per-edge flow, indexed by edge id *)
}

val max_flow : Digraph.t -> source:int -> target:int -> flow
(** Dinic's algorithm on the graph's capacities. *)

val acyclic_max_flow : Digraph.t -> source:int -> target:int -> flow
(** [max_flow] with its flow cycles cancelled (§2 "Acyclic Maximum Flow"
    of the paper): the same value, and the positive-flow subgraph is a
    DAG. *)

val decompose : Digraph.t -> source:int -> target:int -> flow -> (float * int list) list
(** Path decomposition of an acyclic flow: [(amount, edge-id path)] list
    whose amounts sum to the flow value.  At most [m] paths. *)
