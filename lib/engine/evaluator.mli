(** Shared incremental TE evaluation engine.

    An evaluator owns the ECMP shortest-path state of one
    [(graph, weights)] pair: per-destination shortest-path DAGs, the
    memoized sparse unit-load vectors derived from them for segment
    lookups, and — once a commodity list is attached — the
    per-destination and aggregate link loads, each destination's
    computed by one sweep of its DAG.  All optimizers evaluate candidate weight settings through
    this one service instead of rebuilding the state from scratch.

    The point of the engine is the {e incremental} path: after
    {!set_weight} only the destinations whose distance-to-target arrays
    can actually change (decided from the changed edge's endpoint
    distances) are repaired, through the restricted Dijkstra of
    {!Netgraph.Paths.dijkstra_update_prepared} and drop their unit flows and
    load contribution, rebuilt on next use; every other destination
    keeps its DAG, its memoized unit flows and its cached load
    contribution.
    A trail of uncommitted weight changes supports the local-search move
    protocol: probe with [set_weight], read {!evaluate_into}, then either
    {!commit} the move or {!undo} it (which repairs the state back the
    same incremental way).

    Every cache decision is counted in the evaluator's {!Stats.t}. *)

exception Unroutable of int * int
(** Raised when a commodity's destination is unreachable from its
    source (reachability does not depend on weights). *)

type sparse = {
  edges : int array;  (** touched edge ids, ascending *)
  flows : float array;  (** load per touched edge for one flow unit *)
}

type dag = {
  dist : float array;  (** distance of every node to the target *)
  out_sp : int array array;  (** per node: outgoing shortest-path edges *)
  order : int array;  (** finite-distance nodes, decreasing distance *)
}

type metrics = { mutable mlu : float; mutable phi : float }
(** Result cell for {!evaluate_into}: a float-only record, so writing a
    result never allocates (unlike returning a tuple). *)

type t

val create :
  ?stats:Stats.t -> ?probe:Probe.t -> Netgraph.Digraph.t -> float array -> t
(** Caches are lazy: nothing is computed until first use.  The weight
    vector is copied.  [probe] (default {!Probe.null}) receives spans
    for the engine's hot paths: ["ev:eval"] around {!evaluate_into},
    ["ev:spf_full"] around a from-scratch Dijkstra, ["ev:repair"]
    around the dirty-destination repair of one weight change, and
    ["ev:undo"] around {!undo}.  @raise Invalid_argument on a length
    mismatch or a non-positive weight. *)

val copy : ?stats:Stats.t -> t -> t
(** Deep clone for parallel search: the clone captures the source's
    current weights (uncommitted changes included, as committed state —
    its undo trail starts empty) and inherits its warm caches, after
    which the two evaluate and mutate fully independently.  Cached
    immutable values (DAGs, unit-flow vectors, per-destination loads)
    are structurally shared, so a copy is cheap and clones may run on
    separate domains.  [stats] defaults to a {e fresh} [Stats.t]: a
    clone never shares its source's counters (merge them back with
    {!Stats.merge} if desired).  The clone's probe is reset to
    {!Probe.null}: worker-domain span streams would depend on dynamic
    task scheduling, so clones are never traced implicitly.  Do not
    call [copy] while another domain is concurrently using [t]. *)

val graph : t -> Netgraph.Digraph.t

val weights : t -> float array
(** The live weight vector.  Do not mutate; change weights through
    {!set_weight} / {!set_weights}. *)

val stats : t -> Stats.t

(** {1 Shortest-path state} *)

val dag : t -> target:int -> dag
(** The shortest-path DAG towards [target] under the current weights
    (built on first use, then cached until invalidated).  The returned
    record is a fresh materialization of the internal flat (CSR)
    representation — an allocating view for cold callers; it stays
    valid after further updates. *)

val node_flows : t -> src:int -> dst:int -> into:float array -> unit
(** [node_flows t ~src ~dst ~into] writes the ECMP node throughflow of
    one [(src, dst)] flow unit into the caller's per-node accumulator
    [into] (length [n], fully overwritten): [into.(v)] is the fraction
    of the unit passing through [v] — [1.] at the endpoints, [0.] off
    every shortest path — i.e. the pair's ECMP-aware betweenness
    contribution to [v].  Computed by one decreasing-distance sweep of
    the cached destination DAG, so scoring passes (candidate pruning)
    cost no SPF run beyond what evaluating the loads already built.
    @raise Unroutable if [dst] is unreachable from [src]. *)

val unit_load : t -> src:int -> dst:int -> sparse
(** Per-edge load of one unit of ECMP flow from [src] to [dst]
    ([src = dst] yields the empty vector).  Materializes a fresh view
    of the cached flat entries on every call; hot accumulation loops
    should use {!add_unit} instead.
    @raise Unroutable if [dst] is unreachable from [src]. *)

val add_unit : t -> src:int -> dst:int -> scale:float -> into:float array -> unit
(** [add_unit t ~src ~dst ~scale ~into] adds [scale] times the unit
    ECMP flow of [(src, dst)] onto the caller's per-edge accumulator
    [into] (length [m]), straight from the cached flat entries — the
    allocation-free equivalent of folding {!unit_load} with a scale.
    Identical float accumulation order to the [unit_load]-based loop it
    replaces.  @raise Unroutable if [dst] is unreachable from [src]. *)

val segment_peak :
  t -> src:int -> via:int -> dst:int -> scale:float -> base:float array ->
  out:float array -> unit
(** [segment_peak t ~src ~via ~dst ~scale ~base ~out] writes to
    [out.(0)] the peak utilization, over the edges the segments touch,
    of [base] plus [scale] times the unit flows of [(src, via)] and
    [(via, dst)] — or of [(src, dst)] alone when [via < 0].  Each edge's
    value is the float {!add_unit} would leave there, segment one first;
    [base] (length [m]) is only read.  The peak is never below [0.],
    like {!mlu_of_loads}.  With [scale >= 0] the untouched edges
    can only be lower, so the max of this and the MLU of [base] is the
    MLU of the spliced loads, bit for bit.  Allocates nothing once the
    unit rows are cached; lookups count as {!add_unit}'s do.
    @raise Invalid_argument if [scale] is NaN or negative.
    @raise Unroutable if a segment is unroutable, before reading [base]. *)

(** {1 Commodities and evaluation} *)

val set_commodities : t -> Netgraph.Demand.t array -> unit
(** Attaches the demands whose aggregate link loads
    {!loads} / {!mlu} / {!phi} report.  Waypointed demands are expressed
    by listing each segment as its own commodity.  A size of 0 is
    legal and loads nothing.  Resets the load caches but keeps all
    shortest-path state.
    @raise Invalid_argument if an endpoint lies outside the graph or a
    size is NaN, infinite or negative; the evaluator is then unchanged. *)

val loads : t -> float array
(** Aggregate per-edge load of the attached commodities under the
    current weights.  The returned array is the evaluator's internal
    buffer — copy it before mutating.  Bit for bit the sum, over
    destinations in ascending order, of dense per-destination ECMP
    sweeps (test_engine checks this against {!dag} views); agrees with
    the size-scaled sum of {!add_unit} rows to rounding, not bit for
    bit.
    @raise Unroutable for the first unroutable source, in arrival
    order, of the lowest destination that has one. *)

val mlu : t -> float
(** Max over links of load / capacity. *)

val phi : t -> float
(** The Fortz–Thorup piecewise-linear congestion cost of the current
    loads (slopes 1, 3, 10, 70, 500, 5000 at breakpoints 1/3, 2/3,
    9/10, 1, 11/10). *)

val evaluate_into : t -> metrics -> unit
(** Writes the [mlu] and [phi] of the current weights into a
    caller-owned {!metrics} cell and counts one evaluation in the stats
    (the granularity the local searches budget by).  Together with
    {!set_weight} and {!undo} this forms the engine's zero-allocation
    probe loop: after warmup (pools and scratch at steady state) one
    probe iteration allocates no minor words at all — the invariant the
    [@alloc-smoke] Gc test enforces. *)

(** {1 Weight updates} *)

val set_weight : t -> edge:int -> float -> unit
(** Changes one weight and incrementally repairs the affected
    destination state.  The previous value is pushed on the undo trail.
    @raise Invalid_argument on a non-positive weight. *)

val disable_edge : t -> edge:int -> unit
(** Models a link failure by setting the edge's weight to [infinity]:
    Dijkstra never relaxes through an infinite weight, so the edge
    vanishes from every shortest-path DAG and nodes whose only routes
    used it become unreachable (infinite distance) — exactly the
    removed-edge semantics, but paid for with the same dirty-destination
    invalidation as any weight change instead of a graph rebuild.  The
    change lands on the undo trail; {!undo} restores the link. *)

val reachable : t -> src:int -> dst:int -> bool
(** Is [dst] reachable from [src] under the current weights (disabled
    edges excluded)?  Served from the cached destination DAG; unlike
    {!unit_load} this never raises, so failure sweeps can count
    disconnected demands instead of aborting. *)

val set_weights : t -> float array -> unit
(** Bulk update.  Few changed entries are applied as incremental
    single-weight updates; a large diff flushes the caches instead.
    All changed entries land on the undo trail.
    @raise Invalid_argument on length mismatch or non-positive entry. *)

val commit : t -> unit
(** Accepts every weight change since the last commit/undo: clears the
    undo trail. *)

val undo : t -> unit
(** Reverts every weight change since the last commit, repairing the
    evaluator state through the same incremental machinery. *)

val probe_mlu : t -> edge:int -> float -> above:float -> metrics -> unit
(** [probe_mlu t ~edge w ~above r], from a committed state, writes to
    [r.mlu] the MLU with [edge] at weight [w] — bit-identical to
    {!set_weight} + {!evaluate_into} + {!undo} whenever it is below
    [above] — or, once a partial load sum proves it at least [above],
    [infinity]; [r.phi] is [nan].  Dirty destinations without traffic,
    and those left at a cut, are never repaired.  Always undone, also on
    a raise; allocation-free once warm.
    @raise Invalid_argument on a pending trail or a non-positive [w].
    @raise Unroutable as {!evaluate_into} would. *)

(** {1 Static helpers} *)

val mlu_of_loads : Netgraph.Digraph.t -> float array -> float
(** Max over links of [loads.(e) / cap e], never below [0.]; the one
    max-utilization of a load vector.  Allocates only its boxed result. *)
