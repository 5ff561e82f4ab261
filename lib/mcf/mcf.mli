(** Multi-commodity flow: the paper's [OPT] (§2.1), the min-MLU flow with
    no routing restriction.

    [OPT] relates to maximum concurrent flow: if [lambda] is the largest
    factor such that [lambda *. d_k] is simultaneously routable within
    capacities, then the minimum MLU for demands [d_k] is [1 /. lambda].
    [OPT] is always exact: max flow for a single pair, the
    destination-aggregated LP otherwise. *)

val build_mlu_lp : Netgraph.Digraph.t -> Netgraph.Demand.t array -> Linprog.Simplex.Sparse.t
(** The min-MLU LP {!solve} solves: variable 0 is the MLU, then one flow variable per (destination,
    edge) over the sorted distinct destinations; one conservation row
    per (destination, node other than it), then one capacity row per
    edge ({!Linprog.Simplex.Sparse.add_row} folds a row with a single
    variable — at a node with one incident edge, or any capacity row
    when there are no demands — into that variable's bounds).  The layout depends only on the
    graph and the destination set, so a basis from one matrix
    warm-starts any matrix with the same destinations. *)

type warm_solve = {
  value : float;  (** the optimal MLU *)
  pivots : int;  (** simplex iterations this solve took *)
  warm : bool;  (** whether the session's kept basis seeded the solve *)
  rebuilt : bool;  (** whether this solve built the LP *)
  edge_flows : float array;
      (** per-edge total flow at the LP optimum (summed over the
          destination-aggregated flow variables), read off the simplex
          solution with no extra solve.  These are the "necessary
          capacities" the gradient weight search descends against, and
          give serving loops a per-link view of where the optimum routes
          traffic, not just its MLU. *)
}

type session
(** A warm LP session on one graph, for a sequence of demand matrices
    (a serving loop's readouts, a demand-scaling sweep).  It holds the
    {!build_mlu_lp} problem of the last destination set with its last
    optimal basis, the reachability of each destination, and where each
    (destination, node) supply lands: a conservation row's right-hand
    side, or, where [add_row] folded a one-arc row, that variable's
    bounds.  A matrix with the same destination set rewrites only those
    entries and re-solves by the primal simplex from the kept basis (the
    basis matrix depends on neither, so the basis stays valid); a new
    destination set rebuilds the LP and solves it cold.  The result is
    bit-identical to building the LP afresh and warm-starting it from
    the same basis.  Its size depends on the graph and the destination
    set, never on the number of solves. *)

val session : Netgraph.Digraph.t -> session
(** An empty session: its first {!solve} builds the LP. *)

val solve :
  ?probe:Linprog.Simplex.probe -> session -> Netgraph.Demand.t array -> warm_solve
(** Exact minimum MLU via the LP
    [min U  s.t. flow conservation, sum_k f_k(e) <= U c(e)]
    on the (aggregated) demands, warm from the session's last solve when
    the destination set is unchanged.  Warm starting never changes the
    optimum beyond floating-point rounding (well inside 1e-9 relative),
    only [pivots].  [probe] (default {!Linprog.Simplex.null_probe})
    receives the solve's ["lp:solve"] and ["lp:factor"] spans.
    @raise Failure ["Mcf: demand S->D is not routable"] for the first
    unroutable demand in aggregate order. *)

val opt_mlu_lp :
  ?probe:Linprog.Simplex.probe ->
  Netgraph.Digraph.t ->
  Netgraph.Demand.t array ->
  warm_solve
(** A fresh session's first {!solve}: a cold solve.  The LP has
    [1 + |targets| * |E|] variables (14,041 on the largest fig4 matrix,
    Ta2). *)

val opt_mlu : Netgraph.Digraph.t -> Netgraph.Demand.t array -> float
(** Minimum MLU, [0.] for no demands.  A single source-target pair is
    solved by max flow, anything else by {!opt_mlu_lp}; both are exact.
    @raise Failure if some demand is not routable. *)
