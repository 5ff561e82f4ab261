(* Quickstart: load a topology, generate demands, and run the paper's
   three optimizers through the public API.

     dune exec examples/quickstart.exe *)

open Te

let () =
  (* 1. A real topology: the embedded Abilene backbone. *)
  let g = Topology.Datasets.abilene () in
  Printf.printf "Abilene: %d routers, %d directed links\n"
    (Netgraph.Digraph.node_count g)
    (Netgraph.Digraph.edge_count g);

  (* 2. MCF-scaled synthetic demands: the optimal multi-commodity flow
        routes them at MLU exactly 1, so every MLU below is already
        normalized against OPT. *)
  let demands = Demand_gen.mcf_synthetic ~seed:42 ~flows_per_pair:4 g in
  Printf.printf "%d demands, total %.1f Mbit/s\n\n" (Array.length demands)
    (Array.fold_left (fun acc d -> acc +. d.Network.size) 0. demands);

  (* 3. Baseline: Cisco-style inverse-capacity weights under OSPF/ECMP. *)
  let invcap = Weights.inverse_capacity g in
  Printf.printf "InverseCapacity weights:  MLU %.3f\n"
    (Ecmp.mlu_of g invcap demands);

  (* 4. Link-weight optimization (HeurOSPF local search, [11]). *)
  let ls =
    Local_search.optimize_ctx (Obs.Ctx.make ())
      ~params:{ Local_search.default_params with max_evals = 1000; seed = 42 }
      g demands
  in
  Printf.printf "HeurOSPF weights:         MLU %.3f\n" ls.Local_search.mlu;

  (* 5. Waypoint optimization on top of fixed weights (Algorithm 3). *)
  let wpo = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g invcap demands in
  Printf.printf "GreedyWPO (invcap):       MLU %.3f\n" wpo.Greedy_wpo.mlu;

  (* 6. The joint optimization (Algorithm 2). *)
  let joint =
    Joint.optimize_ctx (Obs.Ctx.make ())
      ~ls_params:{ Local_search.default_params with max_evals = 1000; seed = 42 }
      g demands
  in
  Printf.printf "JOINT-Heur:               MLU %.3f (%d waypoints)\n"
    joint.Joint.mlu
    (Segments.count_waypoints joint.Joint.waypoints);

  (* 7. Inspect one routed demand: loads of its ECMP flow. *)
  let ev = Engine.Evaluator.create g joint.Joint.weights in
  let d = demands.(0) in
  let u = Engine.Evaluator.unit_load ev ~src:d.Network.src ~dst:d.Network.dst in
  Printf.printf "\ndemand %s->%s routes over %d links under the joint weights\n"
    (Netgraph.Digraph.node_name g d.Network.src)
    (Netgraph.Digraph.node_name g d.Network.dst)
    (Array.length u.Engine.Evaluator.edges)
