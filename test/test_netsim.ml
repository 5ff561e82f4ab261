(* Tests for the hash-based ECMP forwarding simulator (the Nanonet
   substitute, Figure 7). *)

open Netgraph
open Te
open Netsim

let checkf = Alcotest.(check (float 1e-9))

let diamond () =
  Digraph.of_edges ~n:4 [ (0, 1, 10.); (1, 3, 10.); (0, 2, 10.); (2, 3, 10.) ]

let test_hash_deterministic () =
  let a = Hashing.next_hop_index ~flow:7 ~node:3 ~salt:1 ~choices:4 in
  let b = Hashing.next_hop_index ~flow:7 ~node:3 ~salt:1 ~choices:4 in
  Alcotest.(check int) "stable" a b

let test_hash_in_range () =
  for flow = 0 to 200 do
    let i = Hashing.next_hop_index ~flow ~node:5 ~salt:2 ~choices:3 in
    Alcotest.(check bool) "range" true (i >= 0 && i < 3)
  done

let test_hash_spreads () =
  (* Over many flows, both next hops of a 2-way split get used. *)
  let counts = [| 0; 0 |] in
  for flow = 0 to 499 do
    let i = Hashing.next_hop_index ~flow ~node:0 ~salt:0 ~choices:2 in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool)
    (Printf.sprintf "roughly even (%d/%d)" counts.(0) counts.(1))
    true
    (counts.(0) > 150 && counts.(1) > 150)

let test_hash_salt_changes () =
  let differs = ref false in
  for salt = 1 to 20 do
    if
      Hashing.next_hop_index ~flow:3 ~node:1 ~salt ~choices:2
      <> Hashing.next_hop_index ~flow:3 ~node:1 ~salt:0 ~choices:2
    then differs := true
  done;
  Alcotest.(check bool) "salts matter" true !differs

let test_hash_rejects_no_choice () =
  Alcotest.check_raises "choices = 0"
    (Invalid_argument "Hashing.next_hop_index: no choices") (fun () ->
      ignore (Hashing.next_hop_index ~flow:0 ~node:0 ~salt:0 ~choices:0))

let test_route_single_path () =
  (* With unequal weights there is one path; hashing cannot deviate. *)
  let g = diamond () in
  let w = [| 1.; 1.; 5.; 5. |] in
  let streams = [| { Flowsim.flow = 1; src = 0; dst = 3; rate = 4.; waypoints = [] } |] in
  let loads = Flowsim.route g w streams in
  checkf "upper full" 4. loads.(0);
  checkf "lower empty" 0. loads.(2)

let test_route_conserves_rate () =
  let g = diamond () in
  let w = Weights.unit g in
  let streams =
    Array.init 64 (fun i -> { Flowsim.flow = i; src = 0; dst = 3; rate = 0.25; waypoints = [] })
  in
  let loads = Flowsim.route g w streams in
  checkf "total into target" 16. (loads.(1) +. loads.(3));
  checkf "total out of source" 16. (loads.(0) +. loads.(2))

let test_route_respects_waypoints () =
  let g = diamond () in
  let w = Weights.unit g in
  let streams =
    [| { Flowsim.flow = 0; src = 0; dst = 3; rate = 2.; waypoints = [ 2 ] } |]
  in
  let loads = Flowsim.route g w streams in
  checkf "forced through 2" 2. loads.(2)

let test_route_unroutable () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let streams = [| { Flowsim.flow = 0; src = 0; dst = 2; rate = 1.; waypoints = [] } |] in
  (match Flowsim.route g [| 1. |] streams with
  | exception Engine.Evaluator.Unroutable (0, 2) -> ()
  | _ -> Alcotest.fail "expected Unroutable")

let test_streams_of_demands () =
  let demands = [| Network.demand 0 3 4. |] in
  let streams = Flowsim.streams_of_demands ~streams_per_demand:8 demands [| [ 1 ] |] in
  Alcotest.(check int) "8 streams" 8 (Array.length streams);
  checkf "rate split" 0.5 streams.(0).Flowsim.rate;
  Alcotest.(check (list int)) "waypoints carried" [ 1 ] streams.(0).Flowsim.waypoints;
  let ids = Array.map (fun s -> s.Flowsim.flow) streams in
  Alcotest.(check int) "distinct flow ids" 8
    (List.length (List.sort_uniq compare (Array.to_list ids)))

let test_hashed_vs_ideal_ecmp () =
  (* With many small streams, hash routing approaches the ideal even
     split. *)
  let g = diamond () in
  let w = Weights.unit g in
  let demands = [| Network.demand 0 3 4. |] in
  let streams =
    Flowsim.streams_of_demands ~streams_per_demand:512 demands [| [] |]
  in
  let loads = Flowsim.route ~salt:3 g w streams in
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev demands;
  let ideal = Engine.Evaluator.loads ev in
  Alcotest.(check (float 0.3)) "close to even" ideal.(0) loads.(0)

(* ------------------------------------------------------------------ *)
(* Nanonet experiment (Figure 7)                                       *)
(* ------------------------------------------------------------------ *)

let test_nanonet_shape () =
  let s = Nanonet.run ~trials:10 () in
  Alcotest.(check int) "10 trials" 10 (List.length s.Nanonet.trials);
  (* Joint stays at ~1 (plus noise), Weights lands around/above 2. *)
  Alcotest.(check bool)
    (Printf.sprintf "joint median %g in [1, 1.1]" s.Nanonet.joint_median)
    true
    (s.Nanonet.joint_median >= 1. && s.Nanonet.joint_median <= 1.1);
  Alcotest.(check bool)
    (Printf.sprintf "weights median %g in [1.9, 2.8]" s.Nanonet.weights_median)
    true
    (s.Nanonet.weights_median >= 1.9 && s.Nanonet.weights_median <= 2.8);
  Alcotest.(check bool) "weights spread" true
    (s.Nanonet.weights_max > s.Nanonet.weights_min);
  Alcotest.(check bool) "joint beats weights" true
    (s.Nanonet.joint_median < s.Nanonet.weights_median)

let test_nanonet_no_noise_joint_exact () =
  let s = Nanonet.run ~trials:3 ~noise:0. () in
  List.iter
    (fun t -> checkf "joint exactly 1 without noise" 1. t.Nanonet.joint)
    s.Nanonet.trials

let test_nanonet_deterministic () =
  let a = Nanonet.run ~trials:4 () and b = Nanonet.run ~trials:4 () in
  Alcotest.(check bool) "same results" true (a.Nanonet.trials = b.Nanonet.trials)

let () =
  Alcotest.run "netsim"
    [
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "in range" `Quick test_hash_in_range;
          Alcotest.test_case "spreads" `Quick test_hash_spreads;
          Alcotest.test_case "salt sensitivity" `Quick test_hash_salt_changes;
          Alcotest.test_case "no choices" `Quick test_hash_rejects_no_choice;
        ] );
      ( "flowsim",
        [
          Alcotest.test_case "single path" `Quick test_route_single_path;
          Alcotest.test_case "rate conservation" `Quick test_route_conserves_rate;
          Alcotest.test_case "waypoints" `Quick test_route_respects_waypoints;
          Alcotest.test_case "unroutable" `Quick test_route_unroutable;
          Alcotest.test_case "streams of demands" `Quick test_streams_of_demands;
          Alcotest.test_case "hashed approaches ideal" `Quick test_hashed_vs_ideal_ecmp;
        ] );
      ( "nanonet",
        [
          Alcotest.test_case "figure 7 shape" `Quick test_nanonet_shape;
          Alcotest.test_case "noise-free joint" `Quick test_nanonet_no_noise_joint_exact;
          Alcotest.test_case "deterministic" `Quick test_nanonet_deterministic;
        ] );
    ]
