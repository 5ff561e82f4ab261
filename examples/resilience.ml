(* Beyond the paper (§8 future work): how do optimized settings behave
   under link failures and demand shifts, and what does re-optimization
   cost in reconfiguration churn?

     dune exec examples/resilience.exe *)

open Te

let () =
  let g = Topology.Datasets.abilene () in
  let demands = Demand_gen.mcf_synthetic ~seed:11 ~flows_per_pair:2 g in
  let ls_params = { Local_search.default_params with max_evals = 800; seed = 11 } in
  let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
  Printf.printf "Abilene, optimized joint setting: MLU %.3f\n\n" joint.Joint.mlu;

  (* 1. Single-link failure sweep with the setting frozen. *)
  let deployed =
    {
      Scenario.weights = joint.Joint.int_weights;
      Scenario.waypoints = joint.Joint.waypoints;
    }
  in
  let specs =
    Scenario.generate
      { Scenario.default_config with Scenario.include_baseline = false }
      g
  in
  let outcomes = Scenario.sweep_ctx (Obs.Ctx.make ()) ~deployed g demands specs in
  let disconnecting =
    Array.fold_left
      (fun acc o -> if o.Scenario.static_disconnected > 0 then acc + 1 else acc)
      0 outcomes
  in
  Printf.printf
    "Failure sweep: %d link-pair failures, %d leave demands disconnected.\n"
    (Array.length outcomes) disconnecting;
  let report =
    Scenario.summarize ~topology:"Abilene" ~nominal_mlu:joint.Joint.mlu outcomes
  in
  (match report.Scenario.worst_cases with
  | [] -> ()
  | (spec, mlu, disconnected) :: _ -> (
    let e = List.hd spec.Scenario.failed in
    let src = Netgraph.Digraph.node_name g (Netgraph.Digraph.src g e)
    and dst = Netgraph.Digraph.node_name g (Netgraph.Digraph.dst g e) in
    match disconnected with
    | 0 ->
      Printf.printf "Worst surviving failure: %s -> %s, post-failure MLU %.3f\n\n"
        src dst mlu
    | k ->
      Printf.printf "Worst failure (%s -> %s) strands %d demands.\n\n" src dst k));

  (* 2. The traffic shifts: one hot pair triples.  Compare a full
        re-optimization against a churn-budgeted one. *)
  let shifted =
    Array.mapi
      (fun i d ->
        if i < 4 then { d with Network.size = d.Network.size *. 3. } else d)
      demands
  in
  let stale =
    Ecmp.mlu_of ~waypoints:joint.Joint.waypoints g joint.Joint.weights shifted
  in
  Printf.printf "After the shift, the deployed setting degrades to MLU %.3f.\n" stale;
  let fresh = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g shifted in
  let fresh_churn =
    Reopt.churn_between ~deployed_weights:joint.Joint.int_weights
      ~deployed_waypoints:joint.Joint.waypoints fresh.Joint.int_weights
      fresh.Joint.waypoints
  in
  Printf.printf
    "Re-optimizing from scratch:   MLU %.3f, but %d weight changes and %d \
     waypoint changes\n"
    fresh.Joint.mlu fresh_churn.Reopt.weight_changes
    fresh_churn.Reopt.waypoint_changes;
  let budgeted =
    Reopt.reoptimize_ctx (Obs.Ctx.make ()) ~ls_params ~max_weight_changes:3
      ~deployed_weights:joint.Joint.int_weights
      ~deployed_waypoints:joint.Joint.waypoints g shifted
  in
  Printf.printf
    "Budgeted re-optimization:     MLU %.3f with only %d weight changes and \
     %d waypoint changes\n"
    budgeted.Reopt.mlu budgeted.Reopt.churn.Reopt.weight_changes
    budgeted.Reopt.churn.Reopt.waypoint_changes
