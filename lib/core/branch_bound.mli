(** The branch-and-bound driver shared by the exact MILP references
    ({!Wpo_milp}, {!Uspr_milp}). *)

val solve_ctx :
  Obs.Ctx.t ->
  max_nodes:int ->
  initial:float array ->
  ?warm:bool ->
  Linprog.Simplex.Sparse.t ->
  integer_vars:int list ->
  Linprog.Milp.result
(** {!Linprog.Milp.solve} inside one ["milp:branch-and-bound"] span,
    with the LP layer's per-node ["milp:node"] and per-solve
    ["lp:solve"]/["lp:factor"] spans nested inside.  The context's stats
    receive the LP effort ({!Engine.Stats.record_lp}), [milp.nodes] (the
    explored nodes, or [max_nodes] when no solution came back) and
    [milp.cycle_limits]. *)
