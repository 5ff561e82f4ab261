(** Algorithm 1 ([LWO-APX]): the paper's O(n log n)-approximate link
    weight optimization for single source-target demand lists (§5).

    The algorithm (i) fixes an acyclic maximum (s,t)-flow and its DAG G*
    with usable capacities c* = f*, (ii) computes effective capacities
    (Definition 5.1) in reverse topological order while pruning, at each
    node, the outgoing links not selected by the argmax over j * ec(l_j)
    (line 7), and (iii) realizes the surviving DAG as the exact
    shortest-path DAG through the Lemma 4.1 weight construction. *)

type ec = {
  node : float array;  (** effective capacity of each node (infinity at t) *)
  edge : float array;  (** effective capacity of each DAG edge (0 off-DAG) *)
  kept : bool array;  (** edges of the pruned DAG *)
}

val effective_capacities :
  ?prune:bool ->
  Netgraph.Digraph.t ->
  usable:float array ->
  source:int ->
  target:int ->
  ec
(** [usable.(e) > 0] defines the DAG G*; values are the usable
    capacities c*.  With [prune = true] (default; Algorithm 1 line 7)
    each node keeps the prefix of outgoing links maximizing [j * ec];
    with [prune = false] every node splits over all DAG out-links
    (ec(v) = degree * min ec — the naive Definition 5.1 reading used as
    an ablation baseline).
    @raise Failure if the usable subgraph has a cycle. *)

type result = {
  weights : Weights.t;
  es_flow_value : float;
      (** ec(s) of Definition 5.1.  On DAGs where branches re-merge the
          even-split flow actually realized by [weights] can differ
          slightly in either direction (the definition reasons per
          node); measure it with {!Ecmp.max_es_flow_value}.  The
          Theorem 5.4 guarantee |f*| <= n ceil(ln n) ec(s) holds
          regardless. *)
  max_flow_value : float;  (** |f*|, for the approximation ratio *)
}

val solve : ?prune:bool -> Netgraph.Digraph.t -> source:int -> target:int -> result
(** Full Algorithm 1. *)

val approximation_ratio : result -> float
(** |f*| / ec(s) >= 1; Theorem 5.4 bounds it by n * ceil(ln n). *)

val uniform_optimal_weights :
  Netgraph.Digraph.t -> source:int -> target:int -> Weights.t
(** The Theorem 4.2 construction: on uniform capacities this weight
    setting realizes LWO = OPT.  A maximum set of link-disjoint
    (s,t)-paths (max flow with unit capacities) is turned into the
    shortest-path DAG via Lemma 4.1; the even split then loads every
    DAG link with exactly D / |P|. *)

val widest_path_weights :
  Netgraph.Digraph.t -> source:int -> target:int -> Weights.t
(** The Theorem 4.3 construction: weight 1 along the largest-capacity
    path of a maximum-flow decomposition and n elsewhere, giving
    LWO <= |P| * OPT. *)
