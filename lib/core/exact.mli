(** Brute-force exact solvers for tiny instances.

    These enumerate the discrete search spaces directly and exist to
    (a) validate the heuristics and the MILP in tests and (b) provide
    the "optimal" reference on the paper's small worked examples.  All
    of them guard their search-space size. *)

exception Too_large of string

type enum_meta = {
  space : float;
      (** the full space size [|domain|^m], computed in floating point
          so huge exponents cannot overflow past the cap check *)
  visited : int;  (** settings actually enumerated *)
  truncated : bool;
      (** true when [visited < space]: the reported optimum covers only
          a prefix of the space and must not be read as exact *)
}
(** Enumeration coverage report.  Callers comparing against a MILP must
    check [truncated] — a capped enumeration is a bound, not an
    optimum. *)

val lwo :
  ?weight_domain:int list ->
  ?max_settings:int ->
  ?allow_truncate:bool ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  (int array * float) * enum_meta
(** Optimal integer weight setting over [weight_domain]^E (default
    domain [[1; 2; 3]]; default cap 2_000_000 settings).  With
    [allow_truncate] (default [false]) an over-cap space is enumerated
    up to the cap and flagged in the metadata instead of raising.
    @raise Too_large when the space exceeds the cap and [allow_truncate]
    is off. *)

val wpo :
  Netgraph.Digraph.t ->
  Weights.t ->
  Network.demand array ->
  int option array * float
(** Optimal single-waypoint-per-demand setting under fixed weights, by
    branch and bound over demands (loads are additive, so the MLU of a
    partial assignment lower-bounds every completion). *)

val joint :
  ?weight_domain:int list ->
  ?max_settings:int ->
  ?allow_truncate:bool ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  (int array * int option array * float) * enum_meta
(** Optimal (weights, single waypoints) over the Cartesian product of
    the weight grid and waypoint assignments — the paper's Joint
    (§2.1) restricted to W = 1 and integer weights.  [allow_truncate]
    as in {!lwo}.
    @raise Too_large when the weight space exceeds the cap and
    [allow_truncate] is off. *)
