(* Robustness-sweep smoke: generates a mixed failure x demand-shift
   scenario grid on Abilene, sweeps it under all three policies at
   jobs = 1 and jobs = 4, and fails loudly unless
   the outcomes — and the serialized report bytes — are identical, and
   the static outcomes agree with the rebuild oracle.  Run with
   `dune build @robust-smoke'. *)

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
  let ls_params = { Local_search.default_params with max_evals = 200; seed = 1 } in
  let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
  let deployed =
    {
      Scenario.weights = joint.Joint.int_weights;
      Scenario.waypoints = joint.Joint.waypoints;
    }
  in
  let specs =
    Scenario.generate
      {
        Scenario.default_config with
        Scenario.seed = 1;
        Scenario.dual_failures = 5;
        Scenario.scales = [ 0.8; 1.2 ];
        Scenario.jitters = 2;
        Scenario.hotspots = 1;
        Scenario.diurnal = 2;
      }
      g
  in
  Printf.printf "robust smoke: Abilene, %d scenarios, jobs 1 vs 4\n%!"
    (Array.length specs);
  let policies = Scenario.policies_of_string "static,repair,reweight:3" in
  let run pool =
    Scenario.sweep_ctx (Obs.Ctx.make ~pool ()) ~policies ~reopt_evals:60 ~deployed g demands
      specs
  in
  let seq = run Par.Pool.sequential in
  let par = Par.Pool.with_pool ~jobs:4 run in
  (* compare, not (=): disconnected outcomes carry nan MLUs. *)
  check "sweep bit-identical jobs 1 vs 4" (compare seq par = 0);
  let json out =
    Scenario.report_to_json g
      (Scenario.summarize ~topology:"Abilene" ~nominal_mlu:joint.Joint.mlu out)
  in
  check "report bytes identical" (json seq = json par);
  let oracle = Scenario.static_sweep_rebuild ~deployed g demands specs in
  check "static outcomes match rebuild oracle"
    (Array.for_all2
       (fun (mlu, disc) (o : Scenario.outcome) ->
         disc = o.Scenario.static_disconnected
         && ((Float.is_nan mlu && Float.is_nan o.Scenario.static_mlu)
            || abs_float (mlu -. o.Scenario.static_mlu)
               <= 1e-9 *. (1. +. abs_float mlu)))
       oracle seq);
  if !mismatches > 0 then begin
    Printf.printf "robust smoke: %d mismatch(es)\n" !mismatches;
    exit 1
  end;
  print_endline "robust smoke: sweep deterministic and oracle-consistent"
