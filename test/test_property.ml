(* Property tests for the flat CSR data plane.

   Two families:
   - 200 seeded random graphs: the CSR adjacency (borrowed flat arrays,
     iterators, allocating views) must present one identical byte-level
     story — ascending edge ids per row, each edge in exactly one out-
     and one in-row, name lookups stable — and rebuilding the graph
     from its own edge list must reproduce the flat arrays verbatim
     (iteration order and edge ids are what every shortest-path DAG and
     unit-flow computation downstream is keyed to).
   - repeated runs of the four solvers (HeurOSPF local search,
     GreedyWPO, JOINT-Heur, Reopt) under independently built contexts
     must return byte-identical results — context construction carries
     no hidden state. *)

open Netgraph
open Te

(* ------------------------------------------------------------------ *)
(* CSR consistency over 200 seeded random graphs                       *)
(* ------------------------------------------------------------------ *)

let random_graph seed =
  let nodes = 6 + (seed mod 23) in
  let links = nodes + (seed mod 11) in
  Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "csrprop%d" seed) ~nodes
    ~links ()

let check_csr_graph seed g =
  let ctx msg = Printf.sprintf "seed %d: %s" seed msg in
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let out_row = Digraph.out_offsets g and out_col = Digraph.out_index g in
  let in_row = Digraph.in_offsets g and in_col = Digraph.in_index g in
  let srcs = Digraph.srcs g and dsts = Digraph.dsts g and caps = Digraph.caps g in
  Alcotest.(check int) (ctx "out_offsets length") (n + 1) (Array.length out_row);
  Alcotest.(check int) (ctx "out_index length") m (Array.length out_col);
  Alcotest.(check int) (ctx "in_offsets length") (n + 1) (Array.length in_row);
  Alcotest.(check int) (ctx "in_index length") m (Array.length in_col);
  Alcotest.(check int) (ctx "out row end") m out_row.(n);
  Alcotest.(check int) (ctx "in row end") m in_row.(n);
  let seen_out = Array.make m 0 and seen_in = Array.make m 0 in
  for v = 0 to n - 1 do
    (* the allocating view, the iterator and the borrowed row must agree
       element for element, ascending *)
    let view = Digraph.out_edges g v in
    let row = Array.sub out_col out_row.(v) (out_row.(v + 1) - out_row.(v)) in
    Alcotest.(check (array int)) (ctx "out view = borrowed row") row view;
    let iterated = ref [] in
    Digraph.iter_out g v (fun e -> iterated := e :: !iterated);
    Alcotest.(check (array int))
      (ctx "out iter = view")
      view
      (Array.of_list (List.rev !iterated));
    Array.iteri
      (fun i e ->
        if i > 0 then
          Alcotest.(check bool) (ctx "out row ascending") true (e > view.(i - 1));
        Alcotest.(check int) (ctx "out row src") v srcs.(e);
        seen_out.(e) <- seen_out.(e) + 1)
      view;
    let iview = Digraph.in_edges g v in
    let irow = Array.sub in_col in_row.(v) (in_row.(v + 1) - in_row.(v)) in
    Alcotest.(check (array int)) (ctx "in view = borrowed row") irow iview;
    let iiter = ref [] in
    Digraph.iter_in g v (fun e -> iiter := e :: !iiter);
    Alcotest.(check (array int))
      (ctx "in iter = view")
      iview
      (Array.of_list (List.rev !iiter));
    Array.iteri
      (fun i e ->
        if i > 0 then
          Alcotest.(check bool) (ctx "in row ascending") true (e > iview.(i - 1));
        Alcotest.(check int) (ctx "in row dst") v dsts.(e);
        seen_in.(e) <- seen_in.(e) + 1)
      iview;
    (* name lookups are stable *)
    Alcotest.(check int)
      (ctx "by_name roundtrip")
      v
      (Digraph.node_of_name g (Digraph.node_name g v))
  done;
  for e = 0 to m - 1 do
    Alcotest.(check int) (ctx "edge once in out rows") 1 seen_out.(e);
    Alcotest.(check int) (ctx "edge once in in rows") 1 seen_in.(e);
    Alcotest.(check int) (ctx "srcs array") (Digraph.src g e) srcs.(e);
    Alcotest.(check int) (ctx "dsts array") (Digraph.dst g e) dsts.(e);
    Alcotest.(check (float 0.)) (ctx "caps array") (Digraph.cap g e) caps.(e)
  done;
  (* Rebuilding from the graph's own edge list must reproduce the flat
     arrays byte for byte: edge ids and iteration order are part of the
     representation contract, not an accident of construction. *)
  let names = Array.init n (Digraph.node_name g) in
  let g' = Digraph.of_edges ~names ~n (Digraph.edges g) in
  Alcotest.(check (array int)) (ctx "rebuilt out_offsets") out_row
    (Digraph.out_offsets g');
  Alcotest.(check (array int)) (ctx "rebuilt out_index") out_col
    (Digraph.out_index g');
  Alcotest.(check (array int)) (ctx "rebuilt in_offsets") in_row
    (Digraph.in_offsets g');
  Alcotest.(check (array int)) (ctx "rebuilt in_index") in_col
    (Digraph.in_index g');
  Alcotest.(check (array int)) (ctx "rebuilt srcs") srcs (Digraph.srcs g');
  Alcotest.(check (array int)) (ctx "rebuilt dsts") dsts (Digraph.dsts g')

let test_csr_random_graphs () =
  for seed = 1 to 200 do
    check_csr_graph seed (random_graph seed)
  done

(* ------------------------------------------------------------------ *)
(* Shim = arena entry point, for all four solvers                      *)
(* ------------------------------------------------------------------ *)

let solver_instance seed =
  let nodes = 8 + (seed mod 4) in
  let links = nodes + 3 in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "solver%d" seed) ~nodes
      ~links ()
  in
  let st = Random.State.make [| 0x5b1; seed |] in
  let demands =
    Array.init 6 (fun _ ->
        let s = Random.State.int st nodes in
        let d = (s + 1 + Random.State.int st (nodes - 1)) mod nodes in
        Network.demand s d (float_of_int (1 + Random.State.int st 5)))
  in
  (g, demands)

let ls_params = { Local_search.default_params with max_evals = 120; seed = 11 }

let test_ctx_local_search () =
  for seed = 1 to 3 do
    let g, demands = solver_instance seed in
    let fresh = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params:ls_params g demands in
    let arena =
      Local_search.optimize_ctx (Obs.Ctx.make ()) ~params:ls_params g demands
    in
    Alcotest.(check (array int)) "weights" arena.Local_search.weights
      fresh.Local_search.weights;
    Alcotest.(check (float 0.)) "mlu" arena.Local_search.mlu fresh.Local_search.mlu;
    Alcotest.(check (float 0.)) "phi" arena.Local_search.phi fresh.Local_search.phi;
    Alcotest.(check int) "evals" arena.Local_search.evals fresh.Local_search.evals
  done

let test_ctx_greedy_wpo () =
  for seed = 1 to 3 do
    let g, demands = solver_instance seed in
    let w = Weights.unit g in
    let fresh = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g w demands in
    let arena = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g w demands in
    Alcotest.(check bool) "waypoints" true
      (arena.Greedy_wpo.waypoints = fresh.Greedy_wpo.waypoints);
    Alcotest.(check (float 0.)) "mlu" arena.Greedy_wpo.mlu fresh.Greedy_wpo.mlu;
    Alcotest.(check (float 0.)) "initial mlu" arena.Greedy_wpo.initial_mlu
      fresh.Greedy_wpo.initial_mlu
  done

let test_ctx_joint () =
  for seed = 1 to 2 do
    let g, demands = solver_instance seed in
    let fresh = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
    let arena = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
    Alcotest.(check (array int)) "int weights" arena.Joint.int_weights
      fresh.Joint.int_weights;
    Alcotest.(check bool) "waypoints" true
      (arena.Joint.waypoints = fresh.Joint.waypoints);
    Alcotest.(check (float 0.)) "mlu" arena.Joint.mlu fresh.Joint.mlu;
    Alcotest.(check bool) "stage mlus" true
      (arena.Joint.stage_mlu = fresh.Joint.stage_mlu)
  done

let test_ctx_reopt () =
  for seed = 1 to 2 do
    let g, demands = solver_instance seed in
    let m = Digraph.edge_count g in
    let deployed_weights = Array.make m 1 in
    let deployed_waypoints = Segments.none demands in
    let fresh =
      Reopt.reoptimize_ctx (Obs.Ctx.make ()) ~ls_params ~deployed_weights
        ~deployed_waypoints g demands
    in
    let arena =
      Reopt.reoptimize_ctx (Obs.Ctx.make ()) ~ls_params ~deployed_weights
        ~deployed_waypoints g demands
    in
    Alcotest.(check (array int)) "weights" arena.Reopt.weights fresh.Reopt.weights;
    Alcotest.(check bool) "waypoints" true
      (arena.Reopt.waypoints = fresh.Reopt.waypoints);
    Alcotest.(check (float 0.)) "mlu" arena.Reopt.mlu fresh.Reopt.mlu;
    Alcotest.(check int) "weight churn" arena.Reopt.churn.Reopt.weight_changes
      fresh.Reopt.churn.Reopt.weight_changes;
    Alcotest.(check int) "waypoint churn"
      arena.Reopt.churn.Reopt.waypoint_changes
      fresh.Reopt.churn.Reopt.waypoint_changes
  done

let () =
  Alcotest.run "property"
    [
      ( "csr",
        [
          Alcotest.test_case "200 seeded random graphs" `Quick
            test_csr_random_graphs;
        ] );
      ( "ctx-equivalence",
        [
          Alcotest.test_case "local search" `Quick test_ctx_local_search;
          Alcotest.test_case "greedy wpo" `Quick test_ctx_greedy_wpo;
          Alcotest.test_case "joint" `Quick test_ctx_joint;
          Alcotest.test_case "reopt" `Quick test_ctx_reopt;
        ] );
    ]
