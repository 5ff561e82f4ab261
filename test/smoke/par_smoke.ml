(* Parallel-determinism smoke: runs the three pool-driven heuristics on
   Abilene at jobs = 1 and jobs = 4 and fails loudly unless every
   observable of the results is bit-identical.  Run with
   `dune build @par-smoke'. *)

open Te

let mismatches = ref 0

let check name ok =
  if ok then Printf.printf "  ok   %s\n%!" name
  else begin
    incr mismatches;
    Printf.printf "  FAIL %s\n%!" name
  end

let () =
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g
  in
  let at_jobs f =
    let seq = f Par.Pool.sequential in
    let par = Par.Pool.with_pool ~eager_wake:true ~jobs:4 f in
    (seq, par)
  in
  Printf.printf "par smoke: Abilene, %d demands, jobs 1 vs 4\n%!"
    (Array.length demands);
  let params = { Local_search.default_params with max_evals = 400; seed = 7 } in
  let ls1, ls4 =
    at_jobs (fun pool ->
        let r = Local_search.optimize_ctx (Obs.Ctx.make ~pool ()) ~params g demands in
        (r.Local_search.weights, r.Local_search.mlu, r.Local_search.phi,
         r.Local_search.evals))
  in
  check "HeurOSPF bit-identical" (ls1 = ls4);
  let lsr1, lsr4 =
    at_jobs (fun pool ->
        let r = Local_search.optimize_ctx (Obs.Ctx.make ~pool ()) ~restarts:3 ~params g demands in
        (r.Local_search.weights, r.Local_search.mlu, r.Local_search.evals))
  in
  check "HeurOSPF restarts=3 bit-identical" (lsr1 = lsr4);
  let w = Weights.inverse_capacity g in
  let wpo1, wpo4 =
    at_jobs (fun pool ->
        let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ~pool ()) g w demands in
        (r.Greedy_wpo.waypoints, r.Greedy_wpo.mlu))
  in
  check "GreedyWPO bit-identical" (wpo1 = wpo4);
  let j1, j4 =
    at_jobs (fun pool ->
        let r = Joint.optimize_ctx (Obs.Ctx.make ~pool ()) ~ls_params:params g demands in
        (r.Joint.int_weights, r.Joint.waypoints, r.Joint.mlu, r.Joint.stage_mlu))
  in
  check "JOINT-Heur bit-identical" (j1 = j4);
  if !mismatches > 0 then begin
    Printf.printf "par smoke: %d mismatch(es)\n" !mismatches;
    exit 1
  end;
  print_endline "par smoke: all heuristics bit-identical across pool sizes"
