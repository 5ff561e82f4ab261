(* Tests for the core TE library: ECMP evaluation, weight settings,
   segments, LWO-APX, local search, GreedyWPO, JOINT-Heur, exact
   solvers and the WPO MILP. *)

open Netgraph
open Te

let checkf = Alcotest.(check (float 1e-9))
let checkf6 = Alcotest.(check (float 1e-6))

let diamond () =
  (* 0 -> {1,2} -> 3; symmetric square. *)
  Digraph.of_edges ~n:4 [ (0, 1, 10.); (1, 3, 10.); (0, 2, 10.); (2, 3, 10.) ]

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let test_demand_validation () =
  Alcotest.check_raises "self demand" (Invalid_argument "Demand.make: src = dst")
    (fun () -> ignore (Network.demand 1 1 1.));
  Alcotest.check_raises "zero size"
    (Invalid_argument "Demand.make: size must be positive") (fun () ->
      ignore (Network.demand 0 1 0.))

let test_aggregate () =
  let d = [| Network.demand 0 1 1.; Network.demand 0 1 2.; Network.demand 1 2 1. |] in
  let a = Demand.aggregate d in
  Alcotest.(check int) "two pairs" 2 (Array.length a);
  checkf "merged size" 3. a.(0).Network.size

let test_split () =
  let d = [| Network.demand 0 1 4. |] in
  let s = Network.split_demands ~parts:4 d in
  Alcotest.(check int) "four parts" 4 (Array.length s);
  checkf "each size 1" 1. s.(2).Network.size

let test_total_and_targets () =
  let g = diamond () in
  let net =
    Network.make g [| Network.demand 0 3 2.; Network.demand 1 3 1.; Network.demand 0 2 1. |]
  in
  checkf "total" 4. (Network.total_demand net)

(* ------------------------------------------------------------------ *)
(* Weights                                                             *)
(* ------------------------------------------------------------------ *)

let test_unit_weights () =
  let g = diamond () in
  let w = Weights.unit g in
  checkf "all one" 1. w.(3)

let test_inverse_capacity () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 10.); (1, 2, 2.) ] in
  let w = Weights.inverse_capacity g in
  checkf "big cap small weight" 1. w.(0);
  checkf "small cap big weight" 5. w.(1)

let test_round_to_range () =
  let w = Weights.round_to_range ~wmax:10 [| 1.; 2.; 1000. |] in
  Alcotest.(check int) "min clamps to 1" 1 w.(0);
  Alcotest.(check int) "max is wmax" 10 w.(2)

(* ------------------------------------------------------------------ *)
(* ECMP                                                                *)
(* ------------------------------------------------------------------ *)

(* Per-edge loads of [demands] under [w], each routed through its
   waypoints. *)
let ecmp_loads ?waypoints g w demands =
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev
    (match waypoints with
    | None -> demands
    | Some wps -> Segments.expand demands wps);
  Engine.Evaluator.loads ev

let test_even_split () =
  let g = diamond () in
  let loads = ecmp_loads g (Weights.unit g) [| Network.demand 0 3 4. |] in
  checkf "upper path" 2. loads.(0);
  checkf "lower path" 2. loads.(2)

let test_single_path () =
  let g = diamond () in
  let loads = ecmp_loads g [| 1.; 1.; 5.; 5. |] [| Network.demand 0 3 4. |] in
  checkf "upper path carries all" 4. loads.(0);
  checkf "lower path empty" 0. loads.(2)

let test_recursive_split () =
  (* 0 -> {1,2}; 1 -> {3}; 2 -> {3}; plus 1 -> 4 -> 3 making two equal
     paths from 1: flow 1/2 at 1 splits into 1/4 and 1/4. *)
  let g =
    Digraph.of_edges ~n:5
      [ (0, 1, 1.); (0, 2, 1.); (1, 3, 1.); (2, 3, 1.); (1, 4, 1.); (4, 3, 1.) ]
  in
  let w = [| 1.; 1.; 2.; 2.; 1.; 1. |] in
  let ev = Engine.Evaluator.create g w in
  let u = Engine.Evaluator.unit_load ev ~src:0 ~dst:3 in
  let load e =
    let rec find i =
      if i >= Array.length u.Engine.Evaluator.edges then 0.
      else if u.Engine.Evaluator.edges.(i) = e then u.Engine.Evaluator.flows.(i)
      else find (i + 1)
    in
    find 0
  in
  checkf "0->1 half" 0.5 (load 0);
  checkf "1->3 quarter" 0.25 (load 2);
  checkf "1->4 quarter" 0.25 (load 4)

let test_unit_load_conservation () =
  let g = diamond () in
  let ev = Engine.Evaluator.create g (Weights.unit g) in
  let u = Engine.Evaluator.unit_load ev ~src:0 ~dst:3 in
  let into_target =
    Array.to_list u.Engine.Evaluator.edges
    |> List.mapi (fun i e -> (e, u.Engine.Evaluator.flows.(i)))
    |> List.filter (fun (e, _) -> Digraph.dst g e = 3)
    |> List.fold_left (fun acc (_, f) -> acc +. f) 0.
  in
  checkf "unit arrives" 1. into_target

let test_unroutable () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let ev = Engine.Evaluator.create g (Weights.unit g) in
  (match Engine.Evaluator.unit_load ev ~src:0 ~dst:2 with
  | exception Engine.Evaluator.Unroutable (0, 2) -> ()
  | _ -> Alcotest.fail "expected Unroutable")

let test_waypoint_routing () =
  let g = diamond () in
  (* Waypoint 1 forces the upper path even though ECMP would split. *)
  let loads =
    ecmp_loads ~waypoints:[| [ 1 ] |] g (Weights.unit g)
      [| Network.demand 0 3 4. |]
  in
  checkf "upper full" 4. loads.(0);
  checkf "lower empty" 0. loads.(2)

let test_degenerate_waypoints () =
  let g = diamond () in
  let w = Weights.unit g and demands = [| Network.demand 0 3 4. |] in
  let direct = Array.copy (ecmp_loads g w demands) in
  let same = ecmp_loads ~waypoints:[| [ 0; 0; 3 ] |] g w demands in
  Array.iteri (fun e l -> checkf (Printf.sprintf "edge %d" e) l same.(e)) direct

let test_mlu () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 4.) ] in
  checkf "mlu" 0.5 (Engine.Evaluator.mlu_of_loads g [| 2. |])

let test_max_es_flow () =
  let g = diamond () in
  let v = Ecmp.max_es_flow_value g (Weights.unit g) ~src:0 ~dst:3 in
  checkf "both paths, 10 each" 20. v

let test_random_weights () =
  let g = diamond () in
  let w = Weights.random ~seed:4 ~wmax:7 g in
  Array.iter
    (fun x -> Alcotest.(check bool) "in range" true (x >= 1. && x <= 7.))
    w;
  let w2 = Weights.random ~seed:4 ~wmax:7 g in
  Alcotest.(check bool) "deterministic" true (w = w2)

let test_dag_accessor () =
  let g = diamond () in
  let ev = Engine.Evaluator.create g (Weights.unit g) in
  let d = Engine.Evaluator.dag ev ~target:3 in
  checkf "dist from source" 2. d.Engine.Evaluator.dist.(0);
  Alcotest.(check int) "two SP out-edges at source" 2
    (Array.length d.Engine.Evaluator.out_sp.(0));
  Alcotest.(check int) "target is last in decreasing-distance order" 3
    d.Engine.Evaluator.order.(Array.length d.Engine.Evaluator.order - 1)

(* ------------------------------------------------------------------ *)
(* Segments                                                            *)
(* ------------------------------------------------------------------ *)

let test_segment_endpoints () =
  let d = Network.demand 0 5 1. in
  Alcotest.(check (list (pair int int)))
    "two waypoints" [ (0, 2); (2, 4); (4, 5) ]
    (Segments.segment_endpoints d [ 2; 4 ]);
  Alcotest.(check (list (pair int int)))
    "degenerate skipped" [ (0, 5) ]
    (Segments.segment_endpoints d [ 0; 5 ])

let test_expand () =
  let demands = [| Network.demand 0 5 2.; Network.demand 1 5 1. |] in
  let setting = [| [ 3 ]; [] |] in
  let ex = Segments.expand demands setting in
  Alcotest.(check int) "three segments" 3 (Array.length ex);
  checkf "segment size kept" 2. ex.(0).Network.size;
  Alcotest.(check int) "waypoint count" 1 (Segments.count_waypoints setting);
  Alcotest.(check int) "max waypoints" 1 (Segments.max_waypoints setting)

(* ------------------------------------------------------------------ *)
(* LWO-APX (Algorithm 1)                                               *)
(* ------------------------------------------------------------------ *)

let test_fig3a_effective_capacities () =
  let g, s, t = Instances.Gap_instances.fig3a () in
  let usable = Array.init (Digraph.edge_count g) (Digraph.cap g) in
  let ec = Lwo_apx.effective_capacities g ~usable ~source:s ~target:t in
  let v1 = Digraph.node_of_name g "v1"
  and v2 = Digraph.node_of_name g "v2"
  and v3 = Digraph.node_of_name g "v3" in
  checkf "ec v1" 0.5 ec.Lwo_apx.node.(v1);
  checkf "ec v2" 0.5 ec.Lwo_apx.node.(v2);
  checkf "ec v3" 0.75 ec.Lwo_apx.node.(v3);
  checkf "ec s = 3/2" 1.5 ec.Lwo_apx.node.(s)

let test_fig3b_effective_capacities () =
  let g, s, t = Instances.Gap_instances.fig3b () in
  let usable = Array.init (Digraph.edge_count g) (Digraph.cap g) in
  let ec = Lwo_apx.effective_capacities g ~usable ~source:s ~target:t in
  let name = Digraph.node_of_name g in
  checkf "ec v3" 0.5 ec.Lwo_apx.node.(name "v3");
  checkf "ec v4" 1. ec.Lwo_apx.node.(name "v4");
  checkf6 "ec v1 = 1/3" (1. /. 3.) ec.Lwo_apx.node.(name "v1");
  checkf6 "ec v2 = 2/3" (2. /. 3.) ec.Lwo_apx.node.(name "v2");
  checkf6 "ec s = 2/3" (2. /. 3.) ec.Lwo_apx.node.(s)

let test_lwo_apx_realizes_es_flow () =
  (* The weight setting must realize an ECMP flow of exactly the
     computed ec(s): MLU of a demand of that size is 1. *)
  let g, s, t = Instances.Gap_instances.fig3b () in
  let r = Lwo_apx.solve g ~source:s ~target:t in
  checkf6 "es flow value" (2. /. 3.) r.Lwo_apx.es_flow_value;
  let mlu =
    Ecmp.mlu_of g r.Lwo_apx.weights
      [| Network.demand s t r.Lwo_apx.es_flow_value |]
  in
  checkf6 "weight setting achieves ec(s)" 1. mlu

let test_lwo_apx_instance2 () =
  (* Lemma 3.10: the best ES-flow on instance 2 has size 1, and
     LWO-APX finds a setting realizing it. *)
  let inst = Instances.Gap_instances.instance2 ~m:6 in
  let g = inst.Instances.Gap_instances.network.Network.graph in
  let r =
    Lwo_apx.solve g ~source:inst.Instances.Gap_instances.source
      ~target:inst.Instances.Gap_instances.target
  in
  checkf6 "ES-flow = 1" 1. r.Lwo_apx.es_flow_value;
  Alcotest.(check bool)
    "approximation ratio = H_m" true
    (abs_float (Lwo_apx.approximation_ratio r -. Instances.Gap_instances.harmonic 6)
     < 1e-6)

let test_weights_for_dag_property () =
  (* Lemma 4.1 through the Theorem 4.2 construction: the kept subgraph
     (the unit-capacity max flow's links) must be exactly the ECMP DAG.
     One unit fits through link 1 -> 3, so the flow takes the shortest
     path 0 -> 1 -> 3 and the detour 0 -> 2 -> 1 stays off the DAG. *)
  let g =
    Digraph.of_edges ~n:4 [ (0, 1, 10.); (1, 3, 10.); (0, 2, 10.); (2, 1, 10.) ]
  in
  let w = Lwo_apx.uniform_optimal_weights g ~source:0 ~target:3 in
  let ev = Engine.Evaluator.create g w in
  let u = Engine.Evaluator.unit_load ev ~src:0 ~dst:3 in
  Alcotest.(check (array int)) "uses kept edges" [| 0; 1 |] u.Engine.Evaluator.edges;
  Array.iter (fun f -> checkf "full unit" 1. f) u.Engine.Evaluator.flows

let test_uniform_optimal_weights () =
  (* Theorem 4.2: uniform capacities + single pair -> LWO = OPT. *)
  let g =
    Digraph.of_edges ~n:6
      [ (0, 1, 5.); (1, 3, 5.); (0, 2, 5.); (2, 3, 5.); (1, 2, 5.); (3, 4, 5.);
        (3, 5, 5.); (4, 5, 5.); (0, 4, 5.) ]
  in
  let demands = [| Network.demand 0 5 9. |] in
  let w = Lwo_apx.uniform_optimal_weights g ~source:0 ~target:5 in
  let mlu = Ecmp.mlu_of g w demands in
  let opt = Mcf.opt_mlu g demands in
  checkf6 "LWO = OPT" opt mlu

let test_widest_path_weights () =
  let g = diamond () in
  let w = Lwo_apx.widest_path_weights g ~source:0 ~target:3 in
  let mlu = Ecmp.mlu_of g w [| Network.demand 0 3 5. |] in
  (* Single path of capacity 10 carrying 5. *)
  checkf6 "single path mlu" 0.5 mlu

(* ------------------------------------------------------------------ *)
(* Local search (HeurOSPF)                                             *)
(* ------------------------------------------------------------------ *)

(* Phi of one unit-capacity link carrying [load]. *)
let phi_of_load load =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 1.) ] in
  let ev = Engine.Evaluator.create g [| 1. |] in
  Engine.Evaluator.set_commodities ev [| Network.demand 0 1 load |];
  Engine.Evaluator.phi ev

let test_phi_monotone () =
  let low = phi_of_load 0.2 and mid = phi_of_load 0.8 in
  let high = phi_of_load 1.2 in
  Alcotest.(check bool) "increasing" true (low < mid && mid < high)

let test_phi_slope_values () =
  checkf6 "linear below 1/3" 0.25 (phi_of_load 0.25);
  (* phi(2/3) = 1/3 + 3*(1/3) = 4/3 *)
  checkf6 "at 2/3" (4. /. 3.) (phi_of_load (2. /. 3.))

let test_local_search_improves () =
  let inst = Instances.Gap_instances.instance1 ~m:5 in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  let params = { Local_search.default_params with max_evals = 400; seed = 7 } in
  let r = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params g net.Network.demands in
  let init_mlu =
    Ecmp.mlu_of g
      (Weights.of_ints
         (Weights.round_to_range ~wmax:params.Local_search.wmax
            (Weights.inverse_capacity g)))
      net.Network.demands
  in
  Alcotest.(check bool) "no worse than init" true (r.Local_search.mlu <= init_mlu +. 1e-9);
  (* Optimal LWO on instance 1 is m/2 = 2.5 (Lemma 3.6). *)
  Alcotest.(check bool) "reaches the LWO optimum" true (r.Local_search.mlu <= 2.5 +. 1e-6);
  Alcotest.(check bool) "cannot beat the LWO optimum" true
    (r.Local_search.mlu >= 2.5 -. 1e-6);
  Array.iter
    (fun w -> Alcotest.(check bool) "weight in range" true (w >= 1 && w <= params.Local_search.wmax))
    r.Local_search.weights

let test_local_search_deterministic () =
  let inst = Instances.Gap_instances.instance1 ~m:4 in
  let net = inst.Instances.Gap_instances.network in
  let params = { Local_search.default_params with max_evals = 150; seed = 3 } in
  let r1 = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params net.Network.graph net.Network.demands in
  let r2 = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params net.Network.graph net.Network.demands in
  checkf "same mlu for same seed" r1.Local_search.mlu r2.Local_search.mlu

(* ------------------------------------------------------------------ *)
(* GreedyWPO (Algorithm 3)                                             *)
(* ------------------------------------------------------------------ *)

let test_greedy_wpo_never_worse () =
  let inst = Instances.Gap_instances.instance1 ~m:5 in
  let net = inst.Instances.Gap_instances.network in
  let w = Weights.unit net.Network.graph in
  let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) net.Network.graph w net.Network.demands in
  Alcotest.(check bool) "mlu <= initial" true
    (r.Greedy_wpo.mlu <= r.Greedy_wpo.initial_mlu +. 1e-9)

let test_greedy_wpo_improves_under_joint_weights () =
  (* Under the Lemma 3.5 weights on instance 1, the no-waypoint MLU is
     m (all demands on (s,t)); the greedy is order-fragile (it may stack
     two demands on one exit) but must at least halve the MLU. *)
  let inst = Instances.Gap_instances.instance1 ~m:5 in
  let net = inst.Instances.Gap_instances.network in
  let r =
    Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) net.Network.graph inst.Instances.Gap_instances.joint_weights
      net.Network.demands
  in
  checkf6 "no waypoints: everything on (s,t)" 5. r.Greedy_wpo.initial_mlu;
  Alcotest.(check bool)
    (Printf.sprintf "greedy (%g) at most 2" r.Greedy_wpo.mlu)
    true (r.Greedy_wpo.mlu <= 2. +. 1e-9)

let test_exact_wpo_finds_joint_waypoints () =
  (* Exact WPO under the Lemma 3.5 weights reaches the optimum MLU 1:
     under the right weights, waypoints alone recover OPT. *)
  let inst = Instances.Gap_instances.instance1 ~m:3 in
  let net = inst.Instances.Gap_instances.network in
  let _, v =
    Exact.wpo net.Network.graph inst.Instances.Gap_instances.joint_weights
      net.Network.demands
  in
  checkf6 "exact WPO = 1 under lemma weights" 1. v

let test_greedy_wpo_orders () =
  let inst = Instances.Gap_instances.instance1 ~m:4 in
  let net = inst.Instances.Gap_instances.network in
  let w = inst.Instances.Gap_instances.joint_weights in
  List.iter
    (fun order ->
      let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) ~order net.Network.graph w net.Network.demands in
      Alcotest.(check bool) "improves" true
        (r.Greedy_wpo.mlu <= r.Greedy_wpo.initial_mlu +. 1e-9))
    [ Greedy_wpo.Desc; Greedy_wpo.Asc; Greedy_wpo.Random 5 ]

(* ------------------------------------------------------------------ *)
(* JOINT-Heur (Algorithm 2)                                            *)
(* ------------------------------------------------------------------ *)

let test_joint_heur_stages () =
  let inst = Instances.Gap_instances.instance1 ~m:4 in
  let net = inst.Instances.Gap_instances.network in
  let ls_params = { Local_search.default_params with max_evals = 300; seed = 11 } in
  let r = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params net.Network.graph net.Network.demands in
  Alcotest.(check int) "two stages" 2 (List.length r.Joint.stage_mlu);
  let heur = List.assoc "HeurOSPF" r.Joint.stage_mlu in
  Alcotest.(check bool) "joint <= heurospf" true (r.Joint.mlu <= heur +. 1e-9);
  (* Verify the reported MLU matches re-evaluating the returned setting. *)
  let mlu =
    Ecmp.mlu_of ~waypoints:r.Joint.waypoints net.Network.graph r.Joint.weights
      net.Network.demands
  in
  checkf6 "reported mlu consistent" r.Joint.mlu mlu

let test_joint_heur_full_pipeline () =
  let inst = Instances.Gap_instances.instance1 ~m:4 in
  let net = inst.Instances.Gap_instances.network in
  let ls_params = { Local_search.default_params with max_evals = 200; seed = 2 } in
  let r = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params ~full_pipeline:true net.Network.graph net.Network.demands in
  Alcotest.(check int) "three stages" 3 (List.length r.Joint.stage_mlu);
  let stage2 = List.assoc "GreedyWPO" r.Joint.stage_mlu in
  Alcotest.(check bool) "never worse than stage 2" true (r.Joint.mlu <= stage2 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Exact solvers and the WPO MILP                                      *)
(* ------------------------------------------------------------------ *)

let tiny_instance () =
  (* Instance 1 with m = 3: 4 nodes, 8 edges — small enough for brute
     force with a restricted domain. *)
  Instances.Gap_instances.instance1 ~m:3

let test_exact_ordering () =
  let inst = tiny_instance () in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  let domain = [ 1; 3 ] in
  let (_, lwo), _ = Exact.lwo ~weight_domain:domain g net.Network.demands in
  let (_, _, joint), _ = Exact.joint ~weight_domain:domain g net.Network.demands in
  let _, wpo_unit = Exact.wpo g (Weights.unit g) net.Network.demands in
  Alcotest.(check bool) "joint <= lwo" true (joint <= lwo +. 1e-9);
  Alcotest.(check bool) "joint <= wpo(unit)" true (joint <= wpo_unit +. 1e-9)

let test_exact_joint_achieves_opt () =
  (* With domain {1,3} the lemma's construction (weights m=3 vs 1) is
     representable, so exact Joint must reach MLU 1. *)
  let inst = tiny_instance () in
  let net = inst.Instances.Gap_instances.network in
  let (_, _, joint), _ = Exact.joint ~weight_domain:[ 1; 3 ] net.Network.graph net.Network.demands in
  checkf6 "joint = 1" 1. joint

let test_exact_too_large () =
  let inst = Instances.Gap_instances.instance1 ~m:5 in
  let net = inst.Instances.Gap_instances.network in
  (match
     Exact.lwo ~weight_domain:[ 1; 2; 3; 4 ] ~max_settings:10 net.Network.graph
       net.Network.demands
   with
  | exception Exact.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large")

let test_wpo_milp_matches_exact () =
  let inst = tiny_instance () in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  List.iter
    (fun w ->
      let _, exact = Exact.wpo g w net.Network.demands in
      let milp = Wpo_milp.solve_ctx (Obs.Ctx.make ()) g w net.Network.demands in
      Alcotest.(check bool) "milp exact" true milp.Wpo_milp.exact;
      checkf6 "milp = brute force" exact milp.Wpo_milp.mlu)
    [ Weights.unit g; inst.Instances.Gap_instances.joint_weights ]

let test_wpo_milp_two_waypoints () =
  (* Lemma 3.11: under the lemma weights on instance 3, two waypoints
     per demand reach MLU 1 — the W=2 MILP must find that (one waypoint
     provably cannot). *)
  let inst = Instances.Gap_instances.instance3 ~m:2 in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  let w = inst.Instances.Gap_instances.joint_weights in
  let one = Wpo_milp.solve_ctx (Obs.Ctx.make ()) ~max_waypoints:1 g w net.Network.demands in
  let two = Wpo_milp.solve_ctx (Obs.Ctx.make ()) ~max_waypoints:2 g w net.Network.demands in
  Alcotest.(check bool) "W=2 exact" true two.Wpo_milp.exact;
  checkf6 "W=2 reaches 1" 1. two.Wpo_milp.mlu;
  Alcotest.(check bool)
    (Printf.sprintf "W=1 (%g) cannot reach 1" one.Wpo_milp.mlu)
    true
    (one.Wpo_milp.mlu > 1. +. 1e-9);
  Alcotest.(check int) "two waypoints used" 2
    (Segments.max_waypoints two.Wpo_milp.waypoints)

let test_wpo_milp_respects_candidates () =
  let inst = tiny_instance () in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  (* With no usable candidates the MILP must return direct routing. *)
  let r = Wpo_milp.solve_ctx (Obs.Ctx.make ()) ~candidates:[] g (Weights.unit g) net.Network.demands in
  Alcotest.(check bool) "all none" true
    (Array.for_all (fun w -> w = []) r.Wpo_milp.waypoints);
  let direct = Ecmp.mlu_of g (Weights.unit g) net.Network.demands in
  checkf6 "direct mlu" direct r.Wpo_milp.mlu

(* ------------------------------------------------------------------ *)
(* Reoptimization                                                      *)
(* ------------------------------------------------------------------ *)

let test_churn () =
  let c =
    Reopt.churn_between ~deployed_weights:[| 1; 2; 3 |]
      ~deployed_waypoints:[| []; [ 1 ] |] [| 1; 5; 3 |] [| []; [ 2 ] |]
  in
  Alcotest.(check int) "weight changes" 1 c.Reopt.weight_changes;
  Alcotest.(check int) "waypoint changes" 1 c.Reopt.waypoint_changes

let test_reopt_never_worse () =
  let inst = Instances.Gap_instances.instance1 ~m:5 in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  let deployed = Array.make (Digraph.edge_count g) 1 in
  let deployed_wps = Segments.none net.Network.demands in
  let deployed_mlu =
    Ecmp.mlu_of ~waypoints:deployed_wps g (Weights.of_ints deployed)
      net.Network.demands
  in
  let r =
    Reopt.reoptimize_ctx (Obs.Ctx.make ())
      ~ls_params:{ Local_search.default_params with max_evals = 150; seed = 3 }
      ~max_weight_changes:3 ~deployed_weights:deployed
      ~deployed_waypoints:deployed_wps g net.Network.demands
  in
  Alcotest.(check bool) "never worse" true (r.Reopt.mlu <= deployed_mlu +. 1e-9);
  Alcotest.(check bool) "respects weight budget" true
    (r.Reopt.churn.Reopt.weight_changes <= 3);
  (* The budget is on the returned vector itself, not just the reported
     churn: count the links that actually differ from the deployment. *)
  let differing = ref 0 in
  Array.iteri
    (fun e w -> if w <> deployed.(e) then incr differing)
    r.Reopt.weights;
  Alcotest.(check bool) "at most budget links differ" true (!differing <= 3);
  Alcotest.(check int) "reported churn counts the differing links" !differing
    r.Reopt.churn.Reopt.weight_changes;
  (* The reported MLU must re-evaluate. *)
  checkf6 "consistent"
    (Ecmp.mlu_of ~waypoints:r.Reopt.waypoints g (Weights.of_ints r.Reopt.weights)
       net.Network.demands)
    r.Reopt.mlu

let test_reopt_zero_budget_keeps_weights () =
  let g = diamond () in
  let demands = [| Network.demand 0 3 4. |] in
  let deployed = [| 1; 1; 2; 2 |] in
  let r =
    Reopt.reoptimize_ctx (Obs.Ctx.make ())
      ~ls_params:{ Local_search.default_params with max_evals = 80; seed = 1 }
      ~max_weight_changes:0 ~deployed_weights:deployed
      ~deployed_waypoints:(Segments.none demands) g demands
  in
  Alcotest.(check int) "no weight changes" 0 r.Reopt.churn.Reopt.weight_changes;
  Alcotest.(check bool) "weights untouched" true (r.Reopt.weights = deployed)

let square () =
  (* bidirected square 0-1-3-2-0, all caps 10 *)
  Digraph.of_edges ~n:4
    [ (0, 1, 10.); (1, 0, 10.); (1, 3, 10.); (3, 1, 10.); (0, 2, 10.);
      (2, 0, 10.); (2, 3, 10.); (3, 2, 10.) ]

let test_reopt_frozen_edges () =
  (* Frozen (failed) links: never re-weighted, absent from the routing,
     and the reported MLU matches a from-scratch evaluation on the
     surviving subgraph. *)
  let g = square () in
  let demands = [| Network.demand 0 3 8. |] in
  let deployed = [| 1; 1; 1; 1; 1; 1; 1; 1 |] in
  let frozen = [ 0; 1 ] in
  let r =
    Reopt.reoptimize_ctx (Obs.Ctx.make ())
      ~ls_params:{ Local_search.default_params with max_evals = 120; seed = 2 }
      ~max_weight_changes:2 ~frozen_edges:frozen ~deployed_weights:deployed
      ~deployed_waypoints:(Segments.none demands) g demands
  in
  List.iter
    (fun e ->
      Alcotest.(check int) "frozen edge keeps deployed weight" deployed.(e)
        r.Reopt.weights.(e))
    frozen;
  Alcotest.(check bool) "respects weight budget" true
    (r.Reopt.churn.Reopt.weight_changes <= 2);
  let rebuild weights waypoints =
    (Scenario.static_sweep_rebuild
       ~deployed:{ Scenario.weights; waypoints }
       g demands
       [| { Scenario.id = 0; failed = frozen; shift = Scenario.No_shift } |]).(0)
  in
  let oracle_mlu, disc = rebuild r.Reopt.weights r.Reopt.waypoints in
  Alcotest.(check int) "still routable" 0 disc;
  Alcotest.(check (float 1e-9)) "mlu matches surviving subgraph" oracle_mlu
    r.Reopt.mlu;
  (* And never worse than the deployed setting on that subgraph. *)
  let deployed_mlu, _ = rebuild deployed (Segments.none demands) in
  Alcotest.(check bool) "never worse than deployed" true
    (r.Reopt.mlu <= deployed_mlu +. 1e-9)

(* The [reopt:weights] span's int attribute [key] summed over a trace. *)
let weights_span_attr tracer key =
  List.fold_left
    (fun acc (s : Obs.Span.t) ->
      if s.Obs.Span.name <> "reopt:weights" then acc
      else
        match List.assoc_opt key s.Obs.Span.attrs with
        | Some (Obs.Attr.Int v) -> acc + v
        | _ -> acc)
    0 (Obs.Tracer.spans tracer)

(* A seeded deployment for the Reopt tests: weights in [1, 16] and one
   demand per node between random pairs.  Also returns the generator,
   for further draws. *)
let reopt_instance g seed =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let st = Random.State.make [| 0x4e0; seed |] in
  let deployed = Array.init m (fun _ -> 1 + Random.State.int st 16) in
  let demands =
    Array.init n (fun _ ->
        let s = Random.State.int st n in
        let d = (s + 1 + Random.State.int st (n - 1)) mod n in
        Network.demand s d (0.5 +. Random.State.float st 1.))
  in
  (st, deployed, demands)

(* Reopt's bounded, memoized probes against the full-probe oracle: over
   seeded deployments (weights in [1, 16], a quarter of the demands
   through a waypoint) on [topos], with and without a frozen link and at
   each weight budget, the weights, waypoints, MLU bits and churn must
   all be equal.  Returns the probes cut, the runs that moved a weight
   and the memo hits. *)
let reopt_oracle_sweep ~topos ~seeds ~max_evals ~budgets =
  let bits = Int64.bits_of_float in
  let cuts = ref 0 and moved = ref 0 and reused = ref 0 in
  List.iter
    (fun name ->
      let g = Topology.Datasets.load name in
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      for seed = 1 to seeds do
        let st, deployed, demands = reopt_instance g seed in
        let wps =
          Array.map
            (fun { Network.src; dst; _ } ->
              let v = Random.State.int st n in
              if Random.State.int st 4 = 0 && v <> src && v <> dst then [ v ]
              else [])
            demands
        in
        (* a link whose loss keeps every segment routable *)
        let segs = Segments.expand demands wps in
        let ev = Engine.Evaluator.create g (Weights.of_ints deployed) in
        let rec pick () =
          let e = Random.State.int st m in
          Engine.Evaluator.disable_edge ev ~edge:e;
          let ok =
            Array.for_all
              (fun { Network.src; dst; _ } ->
                Engine.Evaluator.reachable ev ~src ~dst)
              segs
          in
          Engine.Evaluator.undo ev;
          if ok then e else pick ()
        in
        let frozen = pick () in
        List.iter
          (fun frozen_edges ->
            List.iter
              (fun max_weight_changes ->
                let ls_params =
                  { Local_search.default_params with max_evals; seed }
                in
                let tracer = Obs.Tracer.create () in
                let ctx = Obs.Ctx.make ~tracer () in
                let r =
                  Reopt.reoptimize_ctx ctx ~ls_params ?max_weight_changes
                    ~frozen_edges ~deployed_weights:deployed
                    ~deployed_waypoints:wps g demands
                in
                let o =
                  Reopt_oracle.reoptimize ~ls_params ?max_weight_changes
                    ~frozen_edges ~deployed_weights:deployed
                    ~deployed_waypoints:wps g demands
                in
                let tag what =
                  Printf.sprintf "%s seed %d frozen %d budget %s: %s" name seed
                    (List.length frozen_edges)
                    (match max_weight_changes with
                     | Some b -> string_of_int b
                     | None -> "default")
                    what
                in
                Alcotest.(check (array int)) (tag "weights") o.Reopt.weights
                  r.Reopt.weights;
                Alcotest.(check (array (list int))) (tag "waypoints")
                  o.Reopt.waypoints r.Reopt.waypoints;
                Alcotest.(check int64) (tag "mlu") (bits o.Reopt.mlu)
                  (bits r.Reopt.mlu);
                Alcotest.(check (pair int int)) (tag "churn")
                  (o.Reopt.churn.Reopt.weight_changes,
                   o.Reopt.churn.Reopt.waypoint_changes)
                  (r.Reopt.churn.Reopt.weight_changes,
                   r.Reopt.churn.Reopt.waypoint_changes);
                cuts := !cuts + ctx.Obs.Ctx.stats.Engine.Stats.probes_cut;
                reused := !reused + weights_span_attr tracer "reused";
                if r.Reopt.churn.Reopt.weight_changes > 0 then incr moved)
              budgets)
          [ []; [ frozen ] ]
      done)
    topos;
  (!cuts, !moved, !reused)

let test_reopt_oracle () =
  let cuts, moved, _ =
    reopt_oracle_sweep ~topos:[ "Abilene"; "Cost266"; "Germany50" ] ~seeds:30
      ~max_evals:120 ~budgets:[ Some 1; Some 3; None ]
  in
  Alcotest.(check bool) "probes were cut" true (cuts > 0);
  Alcotest.(check bool) "weights were moved" true (moved > 0)

(* The serving daemon's search: 400 evaluations at the default churn
   budget, where most picks re-probe a pair already probed since the
   last accepted move, so the memo answers many of them. *)
let test_reopt_oracle_daemon_budget () =
  let cuts, moved, reused =
    reopt_oracle_sweep ~topos:[ "Cost266"; "Germany50" ] ~seeds:6
      ~max_evals:400 ~budgets:[ None ]
  in
  Alcotest.(check bool) "probes were cut" true (cuts > 0);
  Alcotest.(check bool) "weights were moved" true (moved > 0);
  Alcotest.(check bool) "memo hits" true (reused > 0)

(* The [reopt:weights] span accounts for every budget unit of a traced
   Cost266 re-optimization at the daemon's 400 evaluations: each is a
   [probe_mlu] call or a memo hit (the default churn budget never binds
   here, so no pick is rejected). *)
let test_reopt_weights_span () =
  let g = Topology.Datasets.load "Cost266" in
  let _, deployed, demands = reopt_instance g 1 in
  let tracer = Obs.Tracer.create () in
  let ls_params = { Local_search.default_params with max_evals = 400 } in
  ignore
    (Reopt.reoptimize_ctx (Obs.Ctx.make ~tracer ()) ~ls_params
       ~deployed_weights:deployed ~deployed_waypoints:(Segments.none demands)
       g demands);
  let attr = weights_span_attr tracer in
  let evals = attr "evals" and probes = attr "probes" and reused = attr "reused" in
  Alcotest.(check int) "evals = max_evals" 400 evals;
  Alcotest.(check int) "probes + reused = evals" evals (probes + reused);
  Alcotest.(check bool) "reused > 0" true (reused > 0)

(* ------------------------------------------------------------------ *)
(* Demand generation                                                   *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* USPR MILP (the paper's MILP formulation, single-path regime)        *)
(* ------------------------------------------------------------------ *)

let test_uspr_lwo_diamond () =
  (* One demand of 2 over two capacity-10 two-hop paths; a single path
     gives MLU 0.2 and the MILP must prove it. *)
  let g = diamond () in
  let r = Uspr_milp.lwo_ctx (Obs.Ctx.make ()) g [| Network.demand 0 3 2. |] in
  Alcotest.(check bool) "exact" true r.Uspr_milp.exact;
  checkf6 "mlu" 0.2 r.Uspr_milp.mlu;
  (* The returned weights must induce exactly that routing under ECMP
     (the epsilon margin forbids ties). *)
  checkf6 "ecmp re-evaluation" 0.2
    (Ecmp.mlu_of g r.Uspr_milp.weights [| Network.demand 0 3 2. |])

let test_uspr_lwo_cannot_split () =
  (* All m demands of instance 1 share (s, t): without waypoints USPR
     forces them onto one path, so the optimum is m (vs ECMP's m/2). *)
  let inst = Instances.Gap_instances.instance1 ~m:3 in
  let net = inst.Instances.Gap_instances.network in
  let r = Uspr_milp.lwo_ctx (Obs.Ctx.make ()) net.Network.graph net.Network.demands in
  Alcotest.(check bool) "exact" true r.Uspr_milp.exact;
  checkf6 "single-path optimum is m" 3. r.Uspr_milp.mlu

let test_uspr_joint_recovers_opt () =
  (* With one waypoint per demand the MILP reaches the Lemma 3.5
     optimum of 1 — the strongest form of the paper's point: under
     unique-path routing waypoints are the ONLY way to separate demands
     of the same pair. *)
  let inst = Instances.Gap_instances.instance1 ~m:3 in
  let net = inst.Instances.Gap_instances.network in
  let j = Uspr_milp.joint_ctx (Obs.Ctx.make ()) ~max_combos:200 net.Network.graph net.Network.demands in
  Alcotest.(check bool) "exact" true j.Uspr_milp.setting.Uspr_milp.exact;
  checkf6 "joint = 1" 1. j.Uspr_milp.setting.Uspr_milp.mlu;
  checkf6 "setting re-evaluates to 1" 1.
    (Ecmp.mlu_of ~waypoints:j.Uspr_milp.waypoints net.Network.graph
       j.Uspr_milp.setting.Uspr_milp.weights net.Network.demands)

let test_uspr_weights_in_range () =
  let g = diamond () in
  let r = Uspr_milp.lwo_ctx (Obs.Ctx.make ()) ~wmax:5. g [| Network.demand 0 3 1. |] in
  Array.iter
    (fun w ->
      Alcotest.(check bool) "w in [1, wmax]" true (w >= 1. -. 1e-6 && w <= 5. +. 1e-6))
    r.Uspr_milp.weights

let test_uspr_joint_combo_guard () =
  let inst = Instances.Gap_instances.instance1 ~m:5 in
  let net = inst.Instances.Gap_instances.network in
  (match Uspr_milp.joint_ctx (Obs.Ctx.make ()) ~max_combos:10 net.Network.graph net.Network.demands with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected combo guard")

let test_uspr_unroutable () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  (match Uspr_milp.lwo_ctx (Obs.Ctx.make ()) g [| Network.demand 0 2 1. |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure")

(* ------------------------------------------------------------------ *)
(* Multi-waypoint greedy and iterated joint (paper §8 extensions)      *)
(* ------------------------------------------------------------------ *)

let test_multi_round_one_matches_single () =
  let inst = Instances.Gap_instances.instance1 ~m:5 in
  let net = inst.Instances.Gap_instances.network in
  let w = inst.Instances.Gap_instances.joint_weights in
  let single = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) net.Network.graph w net.Network.demands in
  let multi =
    Greedy_wpo.optimize_multi_ctx (Obs.Ctx.make ()) ~rounds:1 net.Network.graph w net.Network.demands
  in
  checkf6 "same mlu" single.Greedy_wpo.mlu multi.Greedy_wpo.mlu

let test_multi_rounds_monotone () =
  let inst = Instances.Gap_instances.instance3 ~m:4 in
  let net = inst.Instances.Gap_instances.network in
  let w = inst.Instances.Gap_instances.joint_weights in
  let r =
    Greedy_wpo.optimize_multi_ctx (Obs.Ctx.make ()) ~rounds:3 net.Network.graph w net.Network.demands
  in
  let rec check_desc = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "rounds never hurt" true (b <= a +. 1e-9);
      check_desc rest
    | _ -> ()
  in
  check_desc r.Greedy_wpo.round_mlu;
  Alcotest.(check int) "three rounds recorded" 3 (List.length r.Greedy_wpo.round_mlu);
  Alcotest.(check bool) "at most 3 waypoints" true
    (Segments.max_waypoints r.Greedy_wpo.setting <= 3)

let test_multi_two_waypoints_help_instance3 () =
  (* On instance 3 a single waypoint per demand cannot reach MLU 1, but
     two can (Lemma 3.11); the greedy should close most of the gap. *)
  let inst = Instances.Gap_instances.instance3 ~m:3 in
  let net = inst.Instances.Gap_instances.network in
  let w = inst.Instances.Gap_instances.joint_weights in
  let one = Greedy_wpo.optimize_multi_ctx (Obs.Ctx.make ()) ~rounds:1 net.Network.graph w net.Network.demands in
  let two = Greedy_wpo.optimize_multi_ctx (Obs.Ctx.make ()) ~rounds:2 net.Network.graph w net.Network.demands in
  Alcotest.(check bool)
    (Printf.sprintf "2 rounds (%g) <= 1 round (%g)" two.Greedy_wpo.mlu one.Greedy_wpo.mlu)
    true
    (two.Greedy_wpo.mlu <= one.Greedy_wpo.mlu +. 1e-9)

let test_greedy_passes_never_worse () =
  let g = Topology.Datasets.abilene () in
  let demands = Demand_gen.mcf_synthetic ~seed:3 ~flows_per_pair:2 g in
  let w = Weights.inverse_capacity g in
  let p1 = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) ~passes:1 g w demands in
  let p2 = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) ~passes:2 g w demands in
  Alcotest.(check bool)
    (Printf.sprintf "pass 2 (%g) <= pass 1 (%g)" p2.Greedy_wpo.mlu p1.Greedy_wpo.mlu)
    true
    (p2.Greedy_wpo.mlu <= p1.Greedy_wpo.mlu +. 1e-9)

(* ------------------------------------------------------------------ *)
(* GreedyWPO against the dense oracle                                  *)
(* ------------------------------------------------------------------ *)

(* A random instance for the dense-oracle differential: a bidirectional
   ring of [n] nodes plus random chords (integer weights 1-3, so ECMP
   ties are common), node 2 with every out-link disabled (vias through
   it are unroutable), a duplicated demand, and a gadget demand
   a -> {b1..b5} -> c whose size [s] makes [s *. (1. /. 5.)] exceed
   [s /. 5.] (1/5 rounds up; 1/3 rounds down): the load sweep writes
   [s /. 5.] on each a -> b link and removing the demand through its unit row leaves a slightly negative
   residual there.  The gadget hangs off the ring by weight-30 links,
   so no other demand's shortest path crosses it. *)
let oracle_instance seed =
  let st = Random.State.make [| 0x3a7e; seed |] in
  let n = 6 + Random.State.int st 7 in
  let links = ref [] in
  let link ?cap ?w a b =
    let cap = match cap with Some c -> c | None -> float_of_int (5 + Random.State.int st 20) in
    let w = match w with Some w -> w | None -> float_of_int (1 + Random.State.int st 3) in
    links := (b, a, cap, w) :: (a, b, cap, w) :: !links
  in
  for v = 0 to n - 1 do
    link v ((v + 1) mod n)
  done;
  for _ = 1 to n / 2 do
    let a = Random.State.int st n and b = Random.State.int st n in
    if a <> b then link a b
  done;
  let ga = n and gc = n + 6 in
  for k = 1 to 5 do
    link ~cap:10. ~w:1. ga (n + k);
    link ~cap:10. ~w:1. (n + k) gc
  done;
  link ~cap:10. ~w:30. ga 0;
  link ~cap:10. ~w:30. gc 1;
  let links = List.rev !links in
  let g = Digraph.of_edges ~n:(n + 7) (List.map (fun (a, b, c, _) -> (a, b, c)) links) in
  let w =
    Array.of_list
      (List.map (fun (a, _, _, w) -> if a = 2 then infinity else w) links)
  in
  let rec pick () =
    let s = Random.State.int st n and d = Random.State.int st n in
    if s = d || s = 2 then pick () else (s, d)
  in
  let ds =
    List.init (n + Random.State.int st n) (fun _ ->
        let s, d = pick () in
        Network.demand s d (0.5 +. Random.State.float st 3.5))
  in
  let rec split s = if s *. (1. /. 5.) > s /. 5. then s else split (s +. 0.01) in
  let gadget = Network.demand ga gc (split 20.) in
  (g, w, Array.of_list ((gadget :: ds) @ [ List.hd ds ]))

let bits = Int64.bits_of_float

(* The greedy's exact scan skip, checked against the dense oracle: the
   greedy scores exactly the candidates of the visits the oracle's own
   residual does not rule out, and on every visit it rules out the
   oracle's argmin fails the strict improvement test. *)
let check_skip tag (cnt : Wpo_oracle.counts) (stats : Engine.Stats.t) =
  Alcotest.(check int) (tag "scanned") cnt.Wpo_oracle.scanned
    stats.Engine.Stats.wpo_scanned;
  Alcotest.(check int) (tag "skipped visits improve") 0
    cnt.Wpo_oracle.skipped_improving

let test_wpo_dense_oracle () =
  let dropped = ref 0 and skipped = ref 0 and scanned = ref 0 in
  let visits (cnt : Wpo_oracle.counts) =
    skipped := !skipped + cnt.Wpo_oracle.skipped_visits;
    scanned := !scanned + cnt.Wpo_oracle.scanned_visits
  in
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~jobs (fun pool ->
          for seed = 1 to 50 do
            let g, w, demands = oracle_instance seed in
            let tag what = Printf.sprintf "seed %d jobs %d: %s" seed jobs what in
            (* the negative-residual precondition holds *)
            let ev = Engine.Evaluator.create g w in
            Engine.Evaluator.set_commodities ev demands;
            let res = Array.copy (Engine.Evaluator.loads ev) in
            let gd = demands.(0) in
            Engine.Evaluator.add_unit ev ~src:gd.Network.src ~dst:gd.Network.dst
              ~scale:(-.gd.Network.size) ~into:res;
            Alcotest.(check bool) (tag "negative residual") true
              (Array.exists (fun x -> x < 0.) res);
            List.iter
              (fun passes ->
                let stats = Engine.Stats.create () in
                let r =
                  Greedy_wpo.optimize_ctx (Obs.Ctx.make ~stats ~pool ()) ~passes
                    g w demands
                in
                let o = Wpo_oracle.optimize ~passes g w demands in
                let tag what = tag (Printf.sprintf "passes %d %s" passes what) in
                Alcotest.(check (array (option int))) (tag "waypoints")
                  o.Wpo_oracle.waypoints r.Greedy_wpo.waypoints;
                Alcotest.(check int64) (tag "mlu") (bits o.Wpo_oracle.mlu)
                  (bits r.Greedy_wpo.mlu);
                check_skip tag o.Wpo_oracle.counts stats;
                visits o.Wpo_oracle.counts;
                if passes = 1 then begin
                  (* some vias through node 2 were skipped as unroutable *)
                  let n = Digraph.node_count g in
                  Alcotest.(check bool) (tag "unroutable vias skipped") true
                    (o.Wpo_oracle.counts.Wpo_oracle.scored
                    < Array.length demands * (n - 2));
                  if Array.exists Option.is_some o.Wpo_oracle.waypoints then
                    incr dropped
                end)
              [ 1; 2 ];
            let stats = Engine.Stats.create () in
            let r =
              Greedy_wpo.optimize_multi_ctx (Obs.Ctx.make ~stats ~pool ())
                ~rounds:2 g w demands
            in
            let o = Wpo_oracle.optimize_multi ~rounds:2 g w demands in
            Alcotest.(check (array (list int))) (tag "multi setting")
              o.Wpo_oracle.setting r.Greedy_wpo.setting;
            Alcotest.(check (list int64)) (tag "multi round mlu")
              (List.map bits o.Wpo_oracle.round_mlu)
              (List.map bits r.Greedy_wpo.round_mlu);
            Alcotest.(check int64) (tag "multi mlu") (bits o.Wpo_oracle.multi_mlu)
              (bits r.Greedy_wpo.mlu);
            check_skip (fun what -> tag ("multi " ^ what))
              o.Wpo_oracle.multi_counts stats;
            visits o.Wpo_oracle.multi_counts
          done))
    [ 1; 4 ];
  (* pass 2 offered the drop candidate on most seeds *)
  Alcotest.(check bool)
    (Printf.sprintf "drop candidate offered (%d of 100 runs)" !dropped)
    true (!dropped >= 50);
  (* the seeds exercise both sides of the scan skip *)
  Alcotest.(check bool)
    (Printf.sprintf "skipped and scanned visits (%d, %d)" !skipped !scanned)
    true (!skipped > 0 && !scanned > 0)

let test_iterated_joint () =
  let inst = Instances.Gap_instances.instance1 ~m:4 in
  let net = inst.Instances.Gap_instances.network in
  let ls_params = { Local_search.default_params with max_evals = 200; seed = 9 } in
  let r = Joint.optimize_iterated_ctx (Obs.Ctx.make ()) ~ls_params ~iterations:2 net.Network.graph net.Network.demands in
  Alcotest.(check int) "four stages" 4 (List.length r.Joint.stage_mlu);
  let check =
    Ecmp.mlu_of ~waypoints:r.Joint.waypoints net.Network.graph r.Joint.weights
      net.Network.demands
  in
  checkf6 "reported mlu is consistent" r.Joint.mlu check;
  (* The best over stages is what is returned. *)
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "best of stages" true (r.Joint.mlu <= v +. 1e-9))
    r.Joint.stage_mlu

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let arb_te_instance =
  (* Random strongly-connected graph + demands + random waypoints. *)
  let gen =
    QCheck.Gen.(
      int_range 4 9 >>= fun n ->
      int_range 0 (2 * n) >>= fun extra ->
      int_range 1 5 >>= fun k ->
      int_range 0 1000 >>= fun seed -> return (n, extra, k, seed))
  in
  QCheck.make gen ~print:(fun (n, e, k, s) ->
      Printf.sprintf "n=%d extra=%d k=%d seed=%d" n e k s)

let build_te (n, extra, k, seed) =
  let st = Random.State.make [| seed; 77 |] in
  let edges = ref [] in
  for i = 0 to n - 1 do
    edges := (i, (i + 1) mod n, 1. +. Random.State.float st 9.) :: !edges
  done;
  for _ = 1 to extra do
    let u = Random.State.int st n in
    let v = Random.State.int st n in
    if u <> v then edges := (u, v, 1. +. Random.State.float st 9.) :: !edges
  done;
  let g = Digraph.of_edges ~n !edges in
  let demands =
    Array.init k (fun _ ->
        let s = Random.State.int st n in
        let t = (s + 1 + Random.State.int st (n - 1)) mod n in
        Network.demand s t (0.5 +. Random.State.float st 2.))
  in
  let wps =
    Array.map
      (fun _ ->
        if Random.State.bool st then [ Random.State.int st n ] else [])
      demands
  in
  (g, demands, wps)

let prop_waypoints_equal_expansion =
  QCheck.Test.make ~name:"waypointed loads = loads of expanded demands" ~count:150
    arb_te_instance (fun spec ->
      let g, demands, wps = build_te spec in
      let w = Weights.unit g in
      let a = ecmp_loads ~waypoints:wps g w demands in
      (* the per-pair unit rows of every segment, summed demand by demand *)
      let ev = Engine.Evaluator.create g w in
      let b = Array.make (Digraph.edge_count g) 0. in
      Array.iteri
        (fun i (d : Network.demand) ->
          List.iter
            (fun (src, dst) ->
              Engine.Evaluator.add_unit ev ~src ~dst ~scale:d.Network.size
                ~into:b)
            (Segments.segment_endpoints d wps.(i)))
        demands;
      Array.for_all2 (fun x y -> abs_float (x -. y) <= 1e-9 *. (1. +. x)) a b)

let prop_unit_load_conserves =
  QCheck.Test.make ~name:"unit load delivers one unit" ~count:150 arb_te_instance
    (fun spec ->
      let g, demands, _ = build_te spec in
      let ev = Engine.Evaluator.create g (Weights.unit g) in
      Array.for_all
        (fun (d : Network.demand) ->
          let u = Engine.Evaluator.unit_load ev ~src:d.Network.src ~dst:d.Network.dst in
          let into =
            ref 0.
          in
          Array.iteri
            (fun i e ->
              if Digraph.dst g e = d.Network.dst then
                into := !into +. u.Engine.Evaluator.flows.(i))
            u.Engine.Evaluator.edges;
          abs_float (!into -. 1.) <= 1e-9)
        demands)

let prop_aggregate_invariant =
  QCheck.Test.make ~name:"MLU invariant under demand aggregation" ~count:100
    arb_te_instance (fun spec ->
      let g, demands, _ = build_te spec in
      let w = Weights.inverse_capacity g in
      let a = Ecmp.mlu_of g w demands in
      let b = Ecmp.mlu_of g w (Demand.aggregate demands) in
      abs_float (a -. b) <= 1e-9 *. (1. +. a))

let prop_lwo_apx_guarantee =
  (* Theorem 5.4: the ECMP flow realized by the Algorithm-1 weights is
     within n * ceil(ln n) of the max flow.  (On merging DAGs the
     realized even-split flow may differ slightly from ec(s) in either
     direction — Definition 5.1 reasons per node — so we check the
     theorem's guarantee on the *realized* value, plus that ec(s) tracks
     it within the same factor.) *)
  QCheck.Test.make ~name:"LWO-APX satisfies the Theorem 5.4 guarantee" ~count:80
    arb_te_instance (fun spec ->
      let g, demands, _ = build_te spec in
      let d = demands.(0) in
      let r = Lwo_apx.solve g ~source:d.Network.src ~target:d.Network.dst in
      let realized =
        Ecmp.max_es_flow_value g r.Lwo_apx.weights ~src:d.Network.src
          ~dst:d.Network.dst
      in
      let n = float_of_int (Digraph.node_count g) in
      let bound = (n *. ceil (log n)) +. 1. in
      realized > 0.
      && r.Lwo_apx.max_flow_value <= (bound *. realized) +. 1e-6
      && Lwo_apx.approximation_ratio r <= bound
      && Lwo_apx.approximation_ratio r >= 1. -. 1e-9
      && realized <= r.Lwo_apx.max_flow_value +. 1e-6)

let prop_greedy_never_worse =
  QCheck.Test.make ~name:"GreedyWPO never increases MLU" ~count:80 arb_te_instance
    (fun spec ->
      let g, demands, _ = build_te spec in
      let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g (Weights.unit g) demands in
      r.Greedy_wpo.mlu <= r.Greedy_wpo.initial_mlu +. 1e-9)

let prop_opt_lower_bounds_everything =
  QCheck.Test.make ~name:"OPT lower-bounds heuristic MLUs" ~count:40 arb_te_instance
    (fun spec ->
      let g, demands, _ = build_te spec in
      let opt = (Mcf.opt_mlu_lp g (Demand.aggregate demands)).Mcf.value in
      let heur = Ecmp.mlu_of g (Weights.inverse_capacity g) demands in
      opt <= heur +. 1e-6)

let test_select_pairs () =
  let g = diamond () in
  let pairs = Demand_gen.select_pairs ~seed:1 ~frac:0.5 g in
  Alcotest.(check bool) "non-empty" true (Array.length pairs > 0);
  Array.iter
    (fun (s, t) ->
      Alcotest.(check bool) "distinct" true (s <> t);
      Alcotest.(check bool) "reachable" true (Paths.reachable g ~source:s).(t))
    pairs

(* Scaling by the exact OPT leaves OPT = 1 to rounding: this is what
   lets the benches read every MLU as already normalized, and
   [bench solvers] use 1 as its bound.  Cost266 uses the bench's fig4
   parameters; Germany50 is the fig6 gravity matrix. *)
let test_mcf_synthetic_normalized () =
  let check label g demands =
    Alcotest.(check bool) (label ^ ": non-empty") true (Array.length demands > 0);
    Alcotest.(check (float 1e-9)) (label ^ ": OPT = 1 after scaling") 1.
      (Mcf.opt_mlu g demands)
  in
  let g = diamond () in
  check "diamond" g (Demand_gen.mcf_synthetic ~seed:3 ~flows_per_pair:2 g);
  let g = Topology.Datasets.load "Cost266" in
  check "Cost266" g
    (Demand_gen.mcf_synthetic ~seed:1
       ~flows_per_pair:(max 2 (Digraph.edge_count g / 16)) g);
  let g = Topology.Datasets.load "Germany50" in
  check "Germany50 gravity" g (Demand_gen.gravity ~seed:1 g)

let test_gravity_all_pairs () =
  let g = diamond () in
  let demands = Demand_gen.gravity ~seed:5 g in
  (* diamond has 4 nodes; pairs reachable: from 0: 3, from 1: 1 (3), from 2: 1.
     gravity must hit all of them. *)
  let pairs =
    Array.to_list demands
    |> List.map (fun (d : Network.demand) -> (d.Network.src, d.Network.dst))
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all reachable pairs" 5 (List.length pairs)

let () =
  Alcotest.run "te"
    [
      ( "network",
        [
          Alcotest.test_case "demand validation" `Quick test_demand_validation;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "split" `Quick test_split;
          Alcotest.test_case "totals and targets" `Quick test_total_and_targets;
        ] );
      ( "weights",
        [
          Alcotest.test_case "unit" `Quick test_unit_weights;
          Alcotest.test_case "inverse capacity" `Quick test_inverse_capacity;
          Alcotest.test_case "round to range" `Quick test_round_to_range;
          Alcotest.test_case "random weights" `Quick test_random_weights;
        ] );
      ( "ecmp",
        [
          Alcotest.test_case "even split" `Quick test_even_split;
          Alcotest.test_case "single path" `Quick test_single_path;
          Alcotest.test_case "recursive split" `Quick test_recursive_split;
          Alcotest.test_case "conservation" `Quick test_unit_load_conservation;
          Alcotest.test_case "unroutable" `Quick test_unroutable;
          Alcotest.test_case "waypoint routing" `Quick test_waypoint_routing;
          Alcotest.test_case "degenerate waypoints" `Quick test_degenerate_waypoints;
          Alcotest.test_case "mlu" `Quick test_mlu;
          Alcotest.test_case "max ES flow" `Quick test_max_es_flow;
          Alcotest.test_case "dag accessor" `Quick test_dag_accessor;
        ] );
      ( "segments",
        [
          Alcotest.test_case "endpoints" `Quick test_segment_endpoints;
          Alcotest.test_case "expand" `Quick test_expand;
        ] );
      ( "lwo-apx",
        [
          Alcotest.test_case "fig3a effective capacities" `Quick test_fig3a_effective_capacities;
          Alcotest.test_case "fig3b effective capacities" `Quick test_fig3b_effective_capacities;
          Alcotest.test_case "weights realize ec(s)" `Quick test_lwo_apx_realizes_es_flow;
          Alcotest.test_case "instance 2 ES-flow = 1" `Quick test_lwo_apx_instance2;
          Alcotest.test_case "weights-for-dag" `Quick test_weights_for_dag_property;
          Alcotest.test_case "Theorem 4.2 uniform caps" `Quick test_uniform_optimal_weights;
          Alcotest.test_case "Theorem 4.3 widest path" `Quick test_widest_path_weights;
        ] );
      ( "local-search",
        [
          Alcotest.test_case "phi monotone" `Quick test_phi_monotone;
          Alcotest.test_case "phi values" `Quick test_phi_slope_values;
          Alcotest.test_case "improves and bounded" `Quick test_local_search_improves;
          Alcotest.test_case "deterministic per seed" `Quick test_local_search_deterministic;
        ] );
      ( "greedy-wpo",
        [
          Alcotest.test_case "never worse" `Quick test_greedy_wpo_never_worse;
          Alcotest.test_case "halves MLU under lemma weights" `Quick
            test_greedy_wpo_improves_under_joint_weights;
          Alcotest.test_case "exact WPO rediscovers lemma 3.5" `Quick
            test_exact_wpo_finds_joint_waypoints;
          Alcotest.test_case "orders" `Quick test_greedy_wpo_orders;
        ] );
      ( "joint-heur",
        [
          Alcotest.test_case "stages" `Quick test_joint_heur_stages;
          Alcotest.test_case "full pipeline" `Quick test_joint_heur_full_pipeline;
        ] );
      ( "exact",
        [
          Alcotest.test_case "ordering" `Quick test_exact_ordering;
          Alcotest.test_case "joint reaches opt" `Quick test_exact_joint_achieves_opt;
          Alcotest.test_case "too large guard" `Quick test_exact_too_large;
          Alcotest.test_case "wpo milp = brute force" `Quick test_wpo_milp_matches_exact;
          Alcotest.test_case "wpo milp candidates" `Quick test_wpo_milp_respects_candidates;
          Alcotest.test_case "wpo milp W=2 (Lemma 3.11)" `Quick test_wpo_milp_two_waypoints;
        ] );
      ( "demand-gen",
        [
          Alcotest.test_case "select pairs" `Quick test_select_pairs;
          Alcotest.test_case "mcf synthetic normalized" `Quick test_mcf_synthetic_normalized;
          Alcotest.test_case "gravity all pairs" `Quick test_gravity_all_pairs;
        ] );
      ( "reopt",
        [
          Alcotest.test_case "churn" `Quick test_churn;
          Alcotest.test_case "never worse" `Quick test_reopt_never_worse;
          Alcotest.test_case "zero budget" `Quick test_reopt_zero_budget_keeps_weights;
          Alcotest.test_case "frozen edges" `Quick test_reopt_frozen_edges;
          Alcotest.test_case "= full-probe oracle" `Quick test_reopt_oracle;
          Alcotest.test_case "= full-probe oracle, daemon budget" `Quick
            test_reopt_oracle_daemon_budget;
          Alcotest.test_case "weights span counts" `Quick test_reopt_weights_span;
        ] );
      ( "uspr-milp",
        [
          Alcotest.test_case "diamond single path" `Quick test_uspr_lwo_diamond;
          Alcotest.test_case "cannot split same pair" `Quick test_uspr_lwo_cannot_split;
          Alcotest.test_case "joint recovers opt" `Quick test_uspr_joint_recovers_opt;
          Alcotest.test_case "weights in range" `Quick test_uspr_weights_in_range;
          Alcotest.test_case "combo guard" `Quick test_uspr_joint_combo_guard;
          Alcotest.test_case "unroutable" `Quick test_uspr_unroutable;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "multi round 1 = single" `Quick test_multi_round_one_matches_single;
          Alcotest.test_case "multi rounds monotone" `Quick test_multi_rounds_monotone;
          Alcotest.test_case "two waypoints help (I3)" `Quick test_multi_two_waypoints_help_instance3;
          Alcotest.test_case "improvement passes" `Quick test_greedy_passes_never_worse;
          Alcotest.test_case "iterated joint" `Quick test_iterated_joint;
          Alcotest.test_case "greedy = dense oracle" `Quick test_wpo_dense_oracle;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_waypoints_equal_expansion;
            prop_unit_load_conserves;
            prop_aggregate_invariant;
            prop_lwo_apx_guarantee;
            prop_greedy_never_worse;
            prop_opt_lower_bounds_everything;
          ] );
    ]
