(** Multi-commodity flow: the paper's [OPT] (§2.1), the min-MLU flow with
    no routing restriction.

    [OPT] relates to maximum concurrent flow: if [lambda] is the largest
    factor such that [lambda *. d_k] is simultaneously routable within
    capacities, then the minimum MLU for demands [d_k] is [1 /. lambda].
    [OPT] is always exact: max flow for a single pair, the
    destination-aggregated LP otherwise. *)

val build_mlu_lp : Netgraph.Digraph.t -> Netgraph.Demand.t array -> Linprog.Simplex.Sparse.t
(** The min-MLU LP {!opt_mlu_lp} solves: variable 0 is the MLU, then one flow variable per (destination,
    edge) over the sorted distinct destinations; one conservation row
    per (destination, node other than it), then one capacity row per
    edge ({!Linprog.Simplex.Sparse.add_row} folds a row with a single
    variable — at a node with one incident edge, or any capacity row
    when there are no demands — into that variable's bounds).  The layout depends only on the
    graph and the destination set, so a basis from one matrix
    warm-starts any matrix with the same destinations. *)

type warm_solve = {
  value : float;  (** the optimal MLU *)
  basis : Linprog.Simplex.Sparse.basis;  (** for the next warm solve *)
  pivots : int;  (** simplex iterations this solve took *)
  warm : bool;  (** whether a caller basis seeded the solve *)
  edge_flows : float array;
      (** per-edge total flow at the LP optimum (summed over the
          destination-aggregated flow variables), read off the simplex
          solution with no extra solve.  These are the "necessary
          capacities" the gradient weight search descends against, and
          give serving loops a per-link view of where the optimum routes
          traffic, not just its MLU. *)
}

val opt_mlu_lp :
  ?basis:Linprog.Simplex.Sparse.basis ->
  ?probe:Linprog.Simplex.probe ->
  Netgraph.Digraph.t ->
  Netgraph.Demand.t array ->
  warm_solve
(** Exact minimum MLU via the LP
    [min U  s.t. flow conservation, sum_k f_k(e) <= U c(e)],
    solved by the sparse revised simplex on {!build_mlu_lp}'s problem.
    The LP has [1 + |targets| * |E|] variables (14,041 on the largest
    fig4 matrix, Ta2).  [basis], from a previous solve of the
    same topology and destination set, warm-starts the simplex, so
    consecutive nearly-identical LPs — demand-scaling sweeps, serving
    loops — re-solve in a handful of pivots; a stale basis never changes
    the result, only [pivots] (callers tracking engine statistics record
    it via [Engine.Stats.record_lp]).  [probe] (default
    {!Linprog.Simplex.null_probe}) receives the solve's ["lp:solve"]
    and ["lp:factor"] spans.
    @raise Failure if some demand is not routable. *)

val opt_mlu : Netgraph.Digraph.t -> Netgraph.Demand.t array -> float
(** Minimum MLU, [0.] for no demands.  A single source-target pair is
    solved by max flow, anything else by {!opt_mlu_lp}; both are exact.
    @raise Failure if some demand is not routable. *)
