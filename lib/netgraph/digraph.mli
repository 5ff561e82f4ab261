(** Directed capacitated multigraphs.

    The graph representation used throughout the reproduction: nodes are
    dense integers [0 .. n-1], edges are dense integers [0 .. m-1] with a
    source, a destination and a strictly positive capacity.  The structure
    is immutable once built; incremental construction goes through
    {!Builder}.

    Adjacency is stored in CSR (compressed sparse row) form: a
    row-pointer array of length [n+1] plus a column-index array of
    length [m] per direction.  Within a row the edge ids appear in
    ascending order — the iteration order every shortest-path DAG and
    unit-flow computation in the repo is keyed to.  Hot paths borrow the
    flat arrays directly ({!out_offsets} / {!out_index} and friends) and
    run allocation-free; {!out_edges} / {!in_edges} remain as
    (allocating) view-layer conveniences for cold callers. *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph = t

  type t

  val create : unit -> t

  val add_node : t -> ?name:string -> unit -> int
  (** Allocates a fresh node id.  [name] defaults to ["n<id>"]. *)

  val add_named_node : t -> string -> int
  (** Returns the id already associated with this name, allocating a new
      node on first use. *)

  val add_edge : t -> src:int -> dst:int -> cap:float -> int
  (** Adds a directed edge and returns its id.
      @raise Invalid_argument if [cap <= 0], on a self-loop, or on an
      unknown endpoint. *)

  val add_biedge : t -> int -> int -> cap:float -> int * int
  (** Adds the two directed edges [(u,v)] and [(v,u)], each of
      capacity [cap], and returns their ids [(forward, reverse)]. *)

  val node_count : t -> int

  val build : t -> graph
end

val of_edges : ?names:string array -> n:int -> (int * int * float) list -> t
(** [of_edges ~n edges] builds a graph with nodes [0..n-1] and the given
    [(src, dst, cap)] edges, in order (edge ids follow list order). *)

(** {1 Accessors} *)

val node_count : t -> int

val edge_count : t -> int

val src : t -> int -> int

val dst : t -> int -> int

val cap : t -> int -> float

val node_name : t -> int -> string

val node_of_name : t -> string -> int
(** @raise Not_found if no node carries this name. *)

val out_edges : t -> int -> int array
(** Edge ids leaving a node, ascending.  Allocates a fresh view of the
    CSR row on every call — fine for cold paths; hot loops should use
    {!iter_out} or borrow {!out_offsets} / {!out_index}. *)

val in_edges : t -> int -> int array
(** Edge ids entering a node, ascending.  Allocates; see {!out_edges}. *)

val out_degree : t -> int -> int

val iter_out : t -> int -> (int -> unit) -> unit
(** [iter_out g v f] applies [f] to each edge id leaving [v], in
    ascending edge-id order, without allocating. *)

val iter_in : t -> int -> (int -> unit) -> unit
(** [iter_in g v f]: {!iter_out} on the incoming edges. *)

(** {2 Borrowed flat arrays}

    Zero-copy access to the underlying CSR storage for allocation-free
    hot loops (the evaluation engine, Dijkstra arenas).  The returned
    arrays are the graph's own: NEVER mutate them.  Out-edges of node
    [v] are [out_index.(i)] for [out_offsets.(v) <= i < out_offsets.(v+1)];
    the arrays have lengths [n+1] (offsets) and [m] (index). *)

val srcs : t -> int array
(** Per edge id: source node.  Borrowed; do not mutate. *)

val dsts : t -> int array
(** Per edge id: destination node.  Borrowed; do not mutate. *)

val caps : t -> float array
(** Per edge id: capacity.  Borrowed; do not mutate. *)

val out_offsets : t -> int array

val out_index : t -> int array

val in_offsets : t -> int array

val in_index : t -> int array

val find_edge : t -> src:int -> dst:int -> int option
(** First edge from [src] to [dst], if any. *)

val edges : t -> (int * int * float) list
(** All edges as [(src, dst, cap)], in edge-id order. *)

val with_capacities : t -> float array -> t
(** Same topology with the given per-edge capacities.
    @raise Invalid_argument on length mismatch or non-positive entry. *)

val reverse : t -> t
(** Graph with every edge flipped; edge ids are preserved. *)

val max_capacity : t -> float

