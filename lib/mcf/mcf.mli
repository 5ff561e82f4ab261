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

val crash_basis :
  Netgraph.Digraph.t -> Netgraph.Demand.t array -> Linprog.Simplex.Sparse.basis
(** The basis a cold {!solve} of the aggregated [comms] starts from, a
    shortest-path crash basis of their {!build_mlu_lp} problem
    (Bixby, "Implementing the simplex method: the initial basis", ORSA
    J. Computing 1992):
    - per destination, one shortest-path in-tree under inverse-capacity
      lengths, each tree arc basic in its tail's conservation row;
    - [U] basic in the capacity row of the edge with the highest
      utilization under the tree flows;
    - every other row's logical basic, the rows of nodes that cannot
      reach the destination included.  A folded one-arc row has no row
      of its own; its fixed variable stays nonbasic.

    It is nonsingular: in settled order each destination's block is
    triangular with unit diagonal, and the capacity block's determinant
    is [-c_e*].  It is primal feasible: tree flows are subtree supplies,
    so [>= 0], and each capacity slack is [c_e U - load_e >= 0] with
    [U = load_e* / c_e*].  The simplex therefore starts in phase 2, and
    [Linprog.Simplex.Sparse.solve ~basis:(crash_basis g comms)
    (build_mlu_lp g comms)] retraces a cold {!solve} of the same
    aggregated matrix bit for bit. *)

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
    destination set rebuilds the LP and solves it cold, from its
    {!crash_basis}.  The result is
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
    the destination set is unchanged, otherwise cold from the
    {!crash_basis}, which skips phase 1 (Cost266 at 20% of its pairs:
    2,592 slack-start pivots against 221).  Warm starting never changes the
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
(** A fresh session's first {!solve}: a cold solve from the
    {!crash_basis}.  The LP has
    [1 + |targets| * |E|] variables (14,041 on the largest fig4 matrix,
    Ta2). *)

val opt_mlu : Netgraph.Digraph.t -> Netgraph.Demand.t array -> float
(** Minimum MLU, [0.] for no demands.  A single source-target pair is
    solved by max flow, anything else by {!opt_mlu_lp}; both are exact.
    @raise Failure if some demand is not routable. *)
