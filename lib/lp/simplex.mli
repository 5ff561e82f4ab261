(** Linear programming: a bounded-variable sparse revised simplex
    ({!Sparse}: CSC storage, LU-factored basis with eta updates, partial
    Devex-style pricing, warm starts).  Problems are built in place with
    {!Sparse.builder}/{!Sparse.add_row}; the dense tableau the fuzz suite
    checks it against lives in the test oracle library. *)

type probe = {
  enabled : bool;
  start : string -> int;  (** open a span by name, returning a token *)
  finish : int -> unit;  (** close the span for a token from [start] *)
}
(** Injected span hooks, mirroring [Engine.Probe.t] (this library does
    not depend on the engine).  The solvers fire ["lp:solve"] around
    each {!Sparse.solve}, ["lp:factor"] around basis refactorizations,
    and {!Milp} fires ["milp:node"] per branch-and-bound node.  With
    [enabled = false] every instrumented site is a load and a branch. *)

val null_probe : probe
(** The disabled probe ([enabled = false]; [start] returns [-1]). *)

type relation = Le | Ge | Eq

(** Bounded-variable sparse revised simplex.

    Problems are held in computational form: minimize (or maximize)
    [c.x] subject to [A x + s = b] with bounds [l <= (x, s) <= u], where
    each row's logical variable [s_i] encodes its relation.  Build
    problems with {!builder}/{!add_row}/{!finish}.

    {!solve} returns the optimal {!basis} so that a follow-up solve of
    the same (or a nearby) problem can warm-start from it: branch-and-
    bound children pass their parent's basis together with tightened
    [?bounds]; MCF re-solves under a scaled demand matrix pass the
    previous optimum's basis.  A stale or singular warm basis is
    repaired by the composite phase 1 (or, at worst, dropped for the
    slack basis) — warm starting never changes the result, only the
    iteration count. *)
module Sparse : sig
  type t = {
    ncols : int;
    nrows : int;
    colp : int array;  (** CSC column pointers, length [ncols + 1] *)
    rowi : int array;
    vals : float array;
    obj : float array;  (** dense objective, in the original sense *)
    minimize : bool;
    rhs : float array;
    lower : float array;  (** length [ncols + nrows]: structurals, logicals *)
    upper : float array;
  }

  type basis = {
    head : int array;  (** basic column of each row position *)
    stat : int array;  (** per-column status; opaque, only round-tripped *)
  }

  type outcome =
    | Optimal of {
        value : float;
        solution : float array;
        basis : basis;
        iters : int;
      }
    | Infeasible
    | Unbounded
    | CycleLimit of { iters : int }
        (** Iteration limit hit before optimality was proven. *)

  type builder

  val builder : minimize:bool -> int -> builder
  (** [builder ~minimize ncols]: all variables start with bounds
      [[0, infinity)] and zero objective. *)

  val set_obj : builder -> int -> float -> unit

  val add_row : builder -> (int * float) list -> relation -> float -> unit
  (** Duplicate variable entries are accumulated; zero coefficients are
      dropped.  A row left with exactly one variable [a x_j] ([|a| >
      1e-12]) tightens [x_j]'s bounds instead of becoming a row, so it
      is not counted in [nrows].
      @raise Invalid_argument on out-of-range indices. *)

  type placement =
    | Row of int  (** the row's index in the finished problem *)
    | Folded of { var : int; coef : float }
        (** folded into the bounds of [var], whose coefficient was [coef] *)

  val place_row : builder -> (int * float) list -> relation -> float -> placement
  (** {!add_row}, returning where the row landed, so that a caller
      re-solving under new right-hand sides can rewrite that row's
      entry of [rhs] (or the folded variable's bounds) in place. *)

  val finish : builder -> t

  val basis_of_head : t -> int array -> basis
  (** [basis_of_head p head]: a starting basis for {!solve} with column
      [head.(k)] basic in row position [k] (column [j < ncols] is a
      structural, [ncols + i] row [i]'s logical) and every other column
      nonbasic at its lower bound, or its upper bound if it has no
      finite lower one.  A crash start: a caller that knows its LP's
      structure can hand {!solve} a nonsingular, primal feasible basis
      and skip phase 1.  A singular [head] costs only the fallback to
      the slack basis, an infeasible one a phase 1. *)

  val feasible : t -> float array -> bool
  (** Does the point lie within every variable's bounds and satisfy
      every row, each to within 1e-6? *)

  val solve :
    ?max_iters:int ->
    ?bounds:(int * float * float) list ->
    ?basis:basis ->
    ?probe:probe ->
    t ->
    outcome
  (** [bounds] lists per-variable overrides [(j, lo, hi)] that {e
      tighten} the stored bounds (lower is raised to [lo], upper cut to
      [hi]); the problem itself is not mutated, so one [t] serves a
      whole branch-and-bound tree.  [basis] warm-starts from a previous
      {!Optimal} basis of the same-shaped problem.  [probe] (default
      {!null_probe}) receives an ["lp:solve"] span per call and an
      ["lp:factor"] span per basis (re)factorization.  [max_iters]
      defaults to [20_000 + 50 * (columns + rows)]. *)
end
