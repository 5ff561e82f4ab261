(** Shortest paths and DAG utilities over {!Digraph}.

    All searches run over a reusable {!Scratch} arena (heap, stamped
    mark array, work stack) so the hot entry points are allocation-free
    once the arena is warm.  Only {!dijkstra_to} allocates its result
    and runs on a per-domain arena. *)

(** Caller-owned reusable search state.  One arena serves graphs of any
    size (it grows monotonically and never shrinks) but must not be
    shared across domains — each worker owns its own. *)
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

val dijkstra_to : Digraph.t -> weights:float array -> target:int -> float array
(** Distance from every node {e to} [target] along directed edges (runs
    on the reversed graph); nodes that cannot reach [target] get
    [infinity].
    @raise Invalid_argument on a non-positive weight. *)

val dijkstra_to_into :
  Scratch.t -> Digraph.t -> weights:float array -> target:int ->
  dist:float array -> unit
(** {!dijkstra_to} into a caller-owned [dist] array (length [n], fully
    overwritten).  Allocation-free once [scratch] is warm.  Does not
    validate [weights]; callers owning the weight vector are expected to
    maintain positivity themselves. *)

val dijkstra_update_prepared :
  Scratch.t -> Digraph.t -> weights:float array -> dist:float array ->
  edge:int -> int
(** Restricted (partial) Dijkstra: repairs [dist] in place after the
    weight of [edge] changed from the old weight, read from
    [Scratch.farg scratch] (slot 0, stored by the caller beforehand), to
    [weights.(edge)], assuming [dist] was a correct distance-to-target
    array under the old value.  Only the region whose distance can
    change is visited: a weight decrease relaxes outward from the edge's
    source; a weight increase recomputes the (over-approximated) set of
    nodes whose shortest paths ran through the edge.  Returns the number
    of nodes whose stored distance was recomputed — [0] means the update
    provably left every distance unchanged.  The old weight travels
    through the arena because a labelled [old_weight:float] argument
    would box the float at the call boundary, and this is the entry the
    engine's zero-allocation probe loop uses. *)

val topo_order : Digraph.t -> keep:(int -> bool) -> int array
(** Topological order of the subgraph containing only edges [e] with
    [keep e = true].  @raise Failure if that subgraph has a cycle. *)

val reachable : Digraph.t -> source:int -> bool array
(** Forward reachability along all edges. *)
