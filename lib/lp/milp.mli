(** Mixed-integer linear programming by LP-based branch and bound.

    The integer-feasible search replaces the Gurobi MIP solver of the
    paper's artifact at small scale (exact WPO MILP, toy joint instances,
    validation tests).

    Nodes branch on variable {e bounds} over the caller's sparse
    problem, shared by the whole tree; every child re-solves warm from
    its parent's optimal basis unless [~warm:false]. *)

type status = Optimal | Feasible  (** node-limit hit with an incumbent *)

type solution = {
  status : status;
  value : float;
  point : float array;
  nodes_explored : int;
}

type result = Solution of solution | Infeasible | Unbounded | NoIncumbent
(** [NoIncumbent]: the node limit was reached before any integer-feasible
    point was found. *)

type effort = {
  lp_solves : int;  (** LP relaxations solved across the tree *)
  lp_pivots : int;  (** total simplex iterations *)
  warm_solves : int;  (** relaxations started from a parent basis *)
  cycle_limits : int;  (** nodes dropped on {!Simplex.Sparse.CycleLimit} *)
}

val solve :
  ?max_nodes:int ->
  ?initial:float array ->
  ?warm:bool ->
  ?probe:Simplex.probe ->
  Simplex.Sparse.t ->
  integer_vars:int list ->
  result * effort
(** Best-first branch and bound on the listed variables, optimizing the
    problem's own objective in its own sense.  [max_nodes]
    defaults to [200_000]; the integrality tolerance is [1e-6].
    [initial] warm-starts the incumbent with a feasible integer point
    (checked by {!Simplex.Sparse.feasible}; silently ignored if it is
    not one), so the result is never worse
    than it even under the node limit.  [warm] (default
    [true]) controls parent-basis warm starting of child relaxations;
    disabling it never changes the result, only the pivot counts.
    [probe] (default {!Simplex.null_probe}) receives a ["milp:node"]
    span per explored node, with the node's ["lp:solve"] /
    ["lp:factor"] spans nested inside.  The {!effort} counters come
    back alongside the result. *)

