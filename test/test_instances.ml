(* Verifies the paper's §3 lemmas numerically on the constructed
   TE instances. *)

open Netgraph
open Te
open Instances

let checkf6 = Alcotest.(check (float 1e-6))

let joint_mlu (inst : Gap_instances.t) =
  Ecmp.mlu_of
    ~waypoints:inst.Gap_instances.joint_waypoints
    inst.Gap_instances.network.Network.graph
    inst.Gap_instances.joint_weights
    inst.Gap_instances.network.Network.demands

(* Lemma 3.5: the constructed joint setting achieves MLU 1 on
   TE-Instance 1, for several sizes. *)
let test_instance1_joint () =
  List.iter
    (fun m ->
      let inst = Gap_instances.instance1 ~m in
      checkf6 (Printf.sprintf "joint = 1 at m=%d" m) 1. (joint_mlu inst))
    [ 2; 3; 5; 8; 12 ]

(* Lemma 3.6: the optimal LWO weight setting yields MLU m/2. *)
let test_instance1_lwo () =
  List.iter
    (fun m ->
      let inst = Gap_instances.instance1 ~m in
      let w =
        match inst.Gap_instances.lwo_weights with
        | Some w -> w
        | None -> Alcotest.fail "instance1 carries LWO weights"
      in
      let mlu =
        Ecmp.mlu_of inst.Gap_instances.network.Network.graph w
          inst.Gap_instances.network.Network.demands
      in
      checkf6 (Printf.sprintf "LWO = m/2 at m=%d" m) (float_of_int m /. 2.) mlu)
    [ 2; 4; 6; 10 ]

(* Lemma 3.6, tightness: no weight setting on a small instance 1 beats
   m/2 (checked by brute force). *)
let test_instance1_lwo_optimal () =
  let inst = Gap_instances.instance1 ~m:3 in
  let net = inst.Gap_instances.network in
  let (_, best), _ =
    Exact.lwo ~weight_domain:[ 1; 2; 3 ] net.Network.graph net.Network.demands
  in
  checkf6 "brute-force LWO = 1.5" 1.5 best

(* Lemma 3.7, uniform weights: WPO with one waypoint cannot get below
   (n-1)/3 on instance 1.  Checked by brute force at m = 4. *)
let test_instance1_wpo_uniform () =
  let m = 4 in
  let inst = Gap_instances.instance1 ~m in
  let net = inst.Gap_instances.network in
  let g = net.Network.graph in
  let _, wpo = Exact.wpo g (Weights.unit g) net.Network.demands in
  Alcotest.(check bool)
    (Printf.sprintf "WPO(unit) = %g >= (n-1)/3 = %g" wpo (float_of_int m /. 3.))
    true
    (wpo >= (float_of_int m /. 3.) -. 1e-9)

(* The transformed instance I'_1 of Lemma 3.7 for the inverse-capacity
   weight setting: the first two horizontal hops of instance 1 become
   [m >= 3] parallel two-hop unit-capacity paths (s, u_j, z_j, v3), so
   under inverse-capacity weights every shortest path from s leaves
   through (s,t) or funnels into (v3,t), forcing WPO >= m/2 while the
   joint optimum stays constant. *)
let instance1_invcap ~m =
  let fm = float_of_int m in
  let b = Digraph.Builder.create () in
  let s = Digraph.Builder.add_named_node b "s" in
  let t = Digraph.Builder.add_named_node b "t" in
  (* v_3 .. v_m. *)
  let v =
    Array.init (m - 2) (fun i ->
        Digraph.Builder.add_named_node b (Printf.sprintf "v%d" (i + 3)))
  in
  ignore (Digraph.Builder.add_biedge b s t ~cap:1.);
  Array.iter (fun vi -> ignore (Digraph.Builder.add_biedge b vi t ~cap:1.)) v;
  for i = 0 to m - 4 do
    ignore (Digraph.Builder.add_edge b ~src:v.(i) ~dst:v.(i + 1) ~cap:fm)
  done;
  let u = Array.init m (fun j -> Digraph.Builder.add_named_node b (Printf.sprintf "u%d" (j + 1))) in
  let z = Array.init m (fun j -> Digraph.Builder.add_named_node b (Printf.sprintf "z%d" (j + 1))) in
  for j = 0 to m - 1 do
    ignore (Digraph.Builder.add_edge b ~src:s ~dst:u.(j) ~cap:1.);
    ignore (Digraph.Builder.add_edge b ~src:u.(j) ~dst:z.(j) ~cap:1.);
    ignore (Digraph.Builder.add_edge b ~src:z.(j) ~dst:v.(0) ~cap:1.)
  done;
  let g = Digraph.Builder.build b in
  let demands = Array.init m (fun _ -> Network.demand s t 1.) in
  (* Joint setting: make every vertical exit expensive so the exits are
     chosen by waypoints [u_j; v_i]; m demands over m-1 unit exits give
     MLU 2. *)
  let big = 10. *. fm in
  let jw =
    Array.init (Digraph.edge_count g) (fun e ->
        let a = Digraph.src g e and b' = Digraph.dst g e in
        if a = t || b' = t then big else 1.)
  in
  let jwp =
    Array.init m (fun i ->
        if i = 0 then []
        else
          let exit = v.(min (i - 1) (m - 3)) in
          [ u.(i - 1); exit ])
  in
  { Gap_instances.name = Printf.sprintf "TE-Instance-1'(m=%d)" m;
    network = Network.make g demands;
    source = s;
    target = t;
    joint_weights = jw;
    joint_waypoints = jwp;
    lwo_weights = None;
    predicted_joint_mlu = 2.;
    predicted_lwo_mlu = None;
  }

(* Lemma 3.7, inverse-capacity weights: on the transformed instance I'_1
   the exits (s,t)/(v3,t)... bottleneck single-waypoint WPO at >= m/2,
   while the joint setting achieves MLU 2. *)
let test_instance1_wpo_invcap () =
  let m = 3 in
  let inst = instance1_invcap ~m in
  let net = inst.Gap_instances.network in
  let g = net.Network.graph in
  checkf6 "joint setting achieves 2" 2.
    (Ecmp.mlu_of ~waypoints:inst.Gap_instances.joint_waypoints g
       inst.Gap_instances.joint_weights net.Network.demands);
  let _, wpo = Exact.wpo g (Weights.inverse_capacity g) net.Network.demands in
  Alcotest.(check bool)
    (Printf.sprintf "WPO(capacity^-1) = %g >= m/2" wpo)
    true
    (wpo >= (float_of_int m /. 2.) -. 1e-9)

(* Theorem 3.4 end-to-end: on instance 1 the TE gap
   min(R_LWO, R_WPO) >= (n-1)/3 with W = 1. *)
let test_theorem_3_4 () =
  let m = 4 in
  let inst = Gap_instances.instance1 ~m in
  let net = inst.Gap_instances.network in
  let g = net.Network.graph in
  let joint = joint_mlu inst in
  let (_, lwo), _ = Exact.lwo ~weight_domain:[ 1; 2; 3 ] g net.Network.demands in
  let _, wpo = Exact.wpo g (Weights.unit g) net.Network.demands in
  let r_lwo = lwo /. joint and r_wpo = wpo /. joint in
  Alcotest.(check bool)
    (Printf.sprintf "gap %g >= (n-1)/3" (min r_lwo r_wpo))
    true
    (min r_lwo r_wpo >= (float_of_int m /. 3.) -. 1e-9)

(* Lemma 3.10: max even-split flow on instance 2 is 1 under uniform
   weights (and under any prefix-selecting weights). *)
let test_instance2_max_es_flow () =
  List.iter
    (fun m ->
      let inst = Gap_instances.instance2 ~m in
      let g = inst.Gap_instances.network.Network.graph in
      let v =
        Ecmp.max_es_flow_value g (Weights.unit g) ~src:inst.Gap_instances.source
          ~dst:inst.Gap_instances.target
      in
      checkf6 (Printf.sprintf "ES = 1 at m=%d" m) 1. v)
    [ 1; 2; 5; 9 ]

(* Instance 2: the joint setting routes each harmonic demand on its own
   matching-capacity path: MLU = 1. *)
let test_instance2_joint () =
  let inst = Gap_instances.instance2 ~m:6 in
  checkf6 "joint = 1" 1. (joint_mlu inst)

(* Lemma 3.11: instance 3 with two waypoints per demand reaches MLU 1. *)
let test_instance3_joint () =
  List.iter
    (fun m ->
      let inst = Gap_instances.instance3 ~m in
      checkf6 (Printf.sprintf "joint = 1 at m=%d" m) 1. (joint_mlu inst);
      Alcotest.(check int) "two waypoints" 2
        (Segments.max_waypoints inst.Gap_instances.joint_waypoints))
    [ 2; 3; 5 ]

(* Lemma 3.12: on instance 3 the max ES-flow is 2, so any weight setting
   yields MLU >= D/2.  We check the LWO-APX setting achieves about D/2
   and that unit weights cannot beat it. *)
let test_instance3_lwo_gap () =
  let m = 4 in
  let inst = Gap_instances.instance3 ~m in
  let net = inst.Gap_instances.network in
  let g = net.Network.graph in
  let d = Network.total_demand net in
  let predicted = d /. 2. in
  let r = Lwo_apx.solve g ~source:inst.Gap_instances.source ~target:inst.Gap_instances.target in
  Alcotest.(check bool)
    (Printf.sprintf "LWO-APX ES-flow %g <= 2" r.Lwo_apx.es_flow_value)
    true
    (r.Lwo_apx.es_flow_value <= 2. +. 1e-6);
  let mlu_unit = Ecmp.mlu_of g (Weights.unit g) net.Network.demands in
  Alcotest.(check bool)
    (Printf.sprintf "unit weights MLU %g >= D/2 = %g" mlu_unit predicted)
    true
    (mlu_unit >= predicted -. 1e-6)

(* Lemma 3.13: instance 4 joint setting reaches MLU 1. *)
let test_instance4_joint () =
  List.iter
    (fun m ->
      let inst = Gap_instances.instance4 ~m in
      checkf6 (Printf.sprintf "joint = 1 at m=%d" m) 1. (joint_mlu inst))
    [ 2; 3; 5 ]

(* Lemma 3.14 flavour: under standard weight settings, single-waypoint
   WPO on instance 4 stays far from 1. *)
let test_instance4_wpo_gap () =
  let m = 3 in
  let inst = Gap_instances.instance4 ~m in
  let net = inst.Gap_instances.network in
  let g = net.Network.graph in
  (* Exact WPO is too big here (m^2 demands); the greedy upper-bounds it
     from above, and even the exact one cannot reach 1 — we check the
     greedy stays >= 1.5 under unit weights. *)
  let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g (Weights.unit g) net.Network.demands in
  Alcotest.(check bool)
    (Printf.sprintf "WPO(unit) %g stays away from 1" r.Greedy_wpo.mlu)
    true
    (r.Greedy_wpo.mlu >= 1.5)

(* Theorem 3.15 construction: instance 5 joint setting reaches MLU 1
   with two waypoints per half. *)
let test_instance5_joint () =
  List.iter
    (fun m ->
      let inst = Gap_instances.instance5 ~m in
      checkf6 (Printf.sprintf "joint = 1 at m=%d" m) 1. (joint_mlu inst);
      Alcotest.(check int) "four waypoints total" 4
        (Segments.max_waypoints inst.Gap_instances.joint_waypoints))
    [ 2; 3; 4 ]

(* The gaps grow linearly: R_LWO(instance1) = m/2 for every m. *)
let test_gap_growth () =
  let ratios =
    List.map
      (fun m ->
        let inst = Gap_instances.instance1 ~m in
        let w = Option.get inst.Gap_instances.lwo_weights in
        let lwo =
          Ecmp.mlu_of inst.Gap_instances.network.Network.graph w
            inst.Gap_instances.network.Network.demands
        in
        lwo /. joint_mlu inst)
      [ 4; 8; 16 ]
  in
  match ratios with
  | [ a; b; c ] ->
    checkf6 "doubling m doubles the gap (1)" (2. *. a) b;
    checkf6 "doubling m doubles the gap (2)" (2. *. b) c
  | _ -> assert false

(* OPT on the instances: maximum flow matches the claimed optimum. *)
let test_opt_values () =
  let inst = Gap_instances.instance1 ~m:6 in
  let net = inst.Gap_instances.network in
  checkf6 "OPT(instance1) = 1" 1.
    (Mcf.opt_mlu net.Network.graph net.Network.demands)

(* Harmonic helper sanity. *)
let test_harmonic () =
  checkf6 "H_1" 1. (Gap_instances.harmonic 1);
  checkf6 "H_4" (25. /. 12.) (Gap_instances.harmonic 4)

(* Structural checks. *)
let test_sizes () =
  let i1 = Gap_instances.instance1 ~m:5 in
  Alcotest.(check int) "instance1 nodes" 6
    (Netgraph.Digraph.node_count i1.Gap_instances.network.Network.graph);
  let i3 = Gap_instances.instance3 ~m:4 in
  Alcotest.(check int) "instance3 nodes" 8
    (Netgraph.Digraph.node_count i3.Gap_instances.network.Network.graph);
  Alcotest.(check int) "instance3 demands" 16
    (Array.length i3.Gap_instances.network.Network.demands);
  let i5 = Gap_instances.instance5 ~m:3 in
  Alcotest.(check int) "instance5 nodes" 12
    (Netgraph.Digraph.node_count i5.Gap_instances.network.Network.graph)

let test_guards () =
  Alcotest.check_raises "instance1 m>=2" (Invalid_argument "instance1: m >= 2 required")
    (fun () -> ignore (Gap_instances.instance1 ~m:1));
  Alcotest.check_raises "instance3 m>=2" (Invalid_argument "instance3: m >= 2 required")
    (fun () -> ignore (Gap_instances.instance3 ~m:1))

let () =
  Alcotest.run "instances"
    [
      ( "instance1",
        [
          Alcotest.test_case "joint = 1 (Lemma 3.5)" `Quick test_instance1_joint;
          Alcotest.test_case "LWO = m/2 (Lemma 3.6)" `Quick test_instance1_lwo;
          Alcotest.test_case "LWO optimality" `Quick test_instance1_lwo_optimal;
          Alcotest.test_case "WPO uniform (Lemma 3.7)" `Quick test_instance1_wpo_uniform;
          Alcotest.test_case "WPO inverse-capacity" `Quick test_instance1_wpo_invcap;
          Alcotest.test_case "Theorem 3.4 gap" `Quick test_theorem_3_4;
        ] );
      ( "instance2",
        [
          Alcotest.test_case "max ES-flow = 1 (Lemma 3.10)" `Quick test_instance2_max_es_flow;
          Alcotest.test_case "joint = 1" `Quick test_instance2_joint;
        ] );
      ( "instances3-5",
        [
          Alcotest.test_case "instance3 joint (Lemma 3.11)" `Quick test_instance3_joint;
          Alcotest.test_case "instance3 LWO gap (Lemma 3.12)" `Quick test_instance3_lwo_gap;
          Alcotest.test_case "instance4 joint (Lemma 3.13)" `Quick test_instance4_joint;
          Alcotest.test_case "instance4 WPO gap (Lemma 3.14)" `Quick test_instance4_wpo_gap;
          Alcotest.test_case "instance5 joint (Theorem 3.15)" `Quick test_instance5_joint;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "gap growth linear" `Quick test_gap_growth;
          Alcotest.test_case "OPT values" `Quick test_opt_values;
          Alcotest.test_case "harmonic" `Quick test_harmonic;
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "guards" `Quick test_guards;
        ] );
    ]
