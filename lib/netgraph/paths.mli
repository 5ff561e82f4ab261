(** Shortest paths and DAG utilities over {!Digraph}.

    All searches run over a reusable {!Scratch} arena (heap, stamped
    mark array, work stack) so the hot entry points are allocation-free
    once the arena is warm.  The legacy signatures ({!dijkstra},
    {!dijkstra_to}, {!dijkstra_update_to}) remain and transparently use
    a per-domain arena. *)

(** Caller-owned reusable search state.  One arena serves graphs of any
    size (it grows monotonically and never shrinks) but must not be
    shared across domains — each worker owns its own, or uses the
    legacy entry points which keep a domain-local one. *)
module Scratch : sig
  type t

  val create : unit -> t

  val farg : t -> float array
  (** One-slot float argument channel for {!dijkstra_update_prepared}:
      storing into a float array never boxes, unlike passing a float to
      a non-inlined function.  Borrowed; length 1. *)

  val visited : t -> int array
  (** The nodes the last {!dijkstra_update_prepared} call on this arena
      visited — a superset of the nodes whose distance it changed —
      each once, in no particular order.  Only the first
      {!visited_count} entries are meaningful.  Borrowed; valid until
      the arena's next search. *)

  val visited_count : t -> int
  (** [0] when the last update returned [0]. *)

  val settled : t -> int array
  (** The nodes the last search on this arena settled, each once, in
      nondecreasing distance (ties in no particular order): after a
      full Dijkstra every reachable node; after
      {!dijkstra_update_prepared} every node whose distance it changed
      and that is still reachable, plus (on a weight increase) the
      recomputed nodes that kept their distance.  Only the first
      {!settled_count} entries are meaningful.  Borrowed; valid until
      the arena's next search. *)

  val settled_count : t -> int
  (** [0] when the last update returned [0]. *)
end

val dijkstra : Digraph.t -> weights:float array -> source:int -> float array
(** Distance from [source] to every node along directed edges; unreachable
    nodes get [infinity].
    @raise Invalid_argument on a non-positive weight. *)

val dijkstra_to : Digraph.t -> weights:float array -> target:int -> float array
(** Distance from every node {e to} [target] (runs on the reversed graph). *)

val dijkstra_to_into :
  Scratch.t -> Digraph.t -> weights:float array -> target:int ->
  dist:float array -> unit
(** {!dijkstra_to} into a caller-owned [dist] array (length [n], fully
    overwritten).  Allocation-free once [scratch] is warm.  Does not
    validate [weights]; callers owning the weight vector are expected to
    maintain positivity themselves. *)

val dijkstra_update_to :
  Digraph.t -> weights:float array -> target:int -> dist:float array ->
  edge:int -> old_weight:float -> int
(** Restricted (partial) Dijkstra: repairs [dist] in place after the
    weight of [edge] changed from [old_weight] to [weights.(edge)],
    assuming [dist] was a correct distance-to-[target] array under the
    old value.  Only the region whose distance can change is visited: a
    weight decrease relaxes outward from the edge's source; a weight
    increase recomputes the (over-approximated) set of nodes whose
    shortest paths ran through the edge.  Returns the number of nodes
    whose stored distance was recomputed — [0] means the update provably
    left every distance unchanged. *)

val dijkstra_update_prepared :
  Scratch.t -> Digraph.t -> weights:float array -> dist:float array ->
  edge:int -> int
(** Boxing-free form of {!dijkstra_update_to} with a caller-owned
    arena: reads the old weight from [Scratch.farg scratch] (slot 0),
    which the caller must have stored beforehand.  This is the entry the engine's zero-allocation
    probe loop uses — a labelled [old_weight:float] argument would box
    the float at the call boundary. *)

val dijkstra_with_parents :
  ?stop_at:int ->
  Digraph.t -> weights:float array -> source:int -> float array * int array
(** Distances from [source] plus, per node, the edge through which it
    was reached ([-1] for the source and unreachable nodes).
    [stop_at] terminates the search once that node is settled (its
    distance and parents along its path are then final; other entries
    may be partial). *)

val shortest_path :
  Digraph.t -> weights:float array -> source:int -> target:int -> int list option
(** One shortest path as an edge-id list, or [None] if unreachable.
    Exact for arbitrarily small positive weights (parent tracking, no
    tolerance). *)

val path_cost : weights:float array -> int list -> float

val topo_order : Digraph.t -> keep:(int -> bool) -> int array
(** Topological order of the subgraph containing only edges [e] with
    [keep e = true].  @raise Failure if that subgraph has a cycle. *)

val is_acyclic : Digraph.t -> keep:(int -> bool) -> bool

val reachable : Digraph.t -> source:int -> bool array
(** Forward reachability along all edges. *)

val all_simple_paths :
  ?max_paths:int -> Digraph.t -> source:int -> target:int -> int list list
(** Every simple path (edge-id lists) from [source] to [target], for the
    brute-force exact solvers.  Stops after [max_paths] (default 10_000). *)
