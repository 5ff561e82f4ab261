module Milp = Linprog.Milp

let solve_ctx (octx : Obs.Ctx.t) ~max_nodes ~initial ?warm problem
    ~integer_vars =
  let result, effort =
    Obs.Ctx.span octx "milp:branch-and-bound" (fun () ->
        Milp.solve ~max_nodes ~initial ?warm
          ~probe:(Obs.Tracer.lp_probe octx.Obs.Ctx.tracer) problem
          ~integer_vars)
  in
  let nodes =
    match result with
    | Milp.Solution sol -> sol.Milp.nodes_explored
    | Milp.Infeasible | Milp.Unbounded | Milp.NoIncumbent -> max_nodes
  in
  let s = octx.Obs.Ctx.stats in
  Engine.Stats.record_lp s ~solves:effort.Milp.lp_solves
    ~pivots:effort.Milp.lp_pivots ~warm:effort.Milp.warm_solves;
  s.Engine.Stats.milp_nodes <- s.milp_nodes + nodes;
  s.milp_cycle_limits <- s.milp_cycle_limits + effort.Milp.cycle_limits;
  result
