(* Properties of the Prune candidate-preprocessing pass.

   - no-op reproduction: [k = n] must reproduce the
     unpruned GreedyWPO and JOINT results byte-identically (same
     waypoints, same MLU) — pruning off by default means off-by-one
     pool bugs would silently change published numbers, so the no-op
     path is pinned here.
   - parallel determinism: a pruned run is bit-identical across pool
     sizes, like every other solver result in this repo.
   - seeded fuzz: on random topologies a generous pool (k >= n/2) stays
     within a (1 + eps) factor of the unpruned objective.
   - filter safety on the Figure 4 suite: the per-commodity filters
     (reachability, on-every-shortest-path) never drop a waypoint the
     unpruned greedy actually picked from the pool.
   - counters: pruned runs report their effectiveness through
     Stats.candidates_pruned/kept; unpruned runs report zero.
   - MILP: the no-op spec leaves the exact WPO MILP untouched. *)

open Netgraph
open Te

let random_instance seed =
  let nodes = 8 + (seed mod 17) in
  let links = nodes + 2 + (seed mod 9) in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "prune%d" seed) ~nodes
      ~links ()
  in
  let st = Random.State.make [| 0x9e4; seed |] in
  let demands =
    Array.init (2 * nodes) (fun _ ->
        let s = Random.State.int st nodes in
        let d = (s + 1 + Random.State.int st (nodes - 1)) mod nodes in
        Network.demand s d (float_of_int (1 + Random.State.int st 7)))
  in
  (g, demands)

let wpo ?prune ?pool g w demands =
  let ctx = Obs.Ctx.make ?pool () in
  Greedy_wpo.optimize_ctx ctx ?prune g w demands

(* ------------------------------------------------------------------ *)
(* k = n is a byte-identical no-op                                     *)
(* ------------------------------------------------------------------ *)

let test_noop_greedy () =
  List.iter
    (fun name ->
      let g = Topology.Datasets.load name in
      let n = Digraph.node_count g in
      let demands = Demand_gen.gravity ~seed:1 g in
      let w = Weights.inverse_capacity g in
      let base = wpo g w demands in
      let pruned = wpo ~prune:(Prune.spec n) g w demands in
      Alcotest.(check bool)
        (name ^ ": waypoints") true
        (pruned.Greedy_wpo.waypoints = base.Greedy_wpo.waypoints);
      Alcotest.(check (float 0.)) (name ^ ": mlu") base.Greedy_wpo.mlu
        pruned.Greedy_wpo.mlu;
      Alcotest.(check (float 0.))
        (name ^ ": initial mlu")
        base.Greedy_wpo.initial_mlu pruned.Greedy_wpo.initial_mlu)
    [ "Abilene"; "Germany50" ]

let test_noop_joint () =
  let g = Topology.Datasets.abilene () in
  let n = Digraph.node_count g in
  let demands = Demand_gen.gravity ~seed:2 g in
  let ls_params =
    { Local_search.default_params with max_evals = 150; seed = 7 }
  in
  let base = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
  let pruned =
    Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params ~prune:(Prune.spec n) g
      demands
  in
  Alcotest.(check (array int)) "int weights" base.Joint.int_weights
    pruned.Joint.int_weights;
  Alcotest.(check bool) "waypoints" true
    (pruned.Joint.waypoints = base.Joint.waypoints);
  Alcotest.(check (float 0.)) "mlu" base.Joint.mlu pruned.Joint.mlu;
  Alcotest.(check bool) "stage mlus" true
    (pruned.Joint.stage_mlu = base.Joint.stage_mlu)

(* ------------------------------------------------------------------ *)
(* Pruned runs are bit-identical across pool sizes                     *)
(* ------------------------------------------------------------------ *)

let test_jobs_determinism () =
  let g = Topology.Datasets.load "Germany50" in
  let demands = Demand_gen.gravity ~seed:3 g in
  let w = Weights.inverse_capacity g in
  let prune = Prune.spec 8 in
  let seq = wpo ~prune g w demands in
  let pool = Par.Pool.create ~eager_wake:true ~jobs:4 () in
  let par =
    Fun.protect
      ~finally:(fun () -> Par.Pool.shutdown pool)
      (fun () -> wpo ~prune ~pool g w demands)
  in
  Alcotest.(check bool) "waypoints" true
    (par.Greedy_wpo.waypoints = seq.Greedy_wpo.waypoints);
  Alcotest.(check (float 0.)) "mlu" seq.Greedy_wpo.mlu par.Greedy_wpo.mlu

(* ------------------------------------------------------------------ *)
(* Seeded fuzz: a generous pool stays near the unpruned objective      *)
(* ------------------------------------------------------------------ *)

let test_fuzz_quality () =
  (* The global pool can miss a detour node that carries no
     shortest-path flow at all — exactly the node a tiny congested
     instance sometimes needs — so the guardrail is loose; on the 20
     seeds the observed worst case is 1.61x (seed 9, 17 nodes). *)
  let eps = 0.75 in
  for seed = 1 to 20 do
    let g, demands = random_instance seed in
    let n = Digraph.node_count g in
    let w = Weights.inverse_capacity g in
    let base = wpo g w demands in
    let pruned = wpo ~prune:(Prune.spec (max 1 (n / 2))) g w demands in
    if pruned.Greedy_wpo.mlu > (1. +. eps) *. base.Greedy_wpo.mlu then
      Alcotest.failf "seed %d: pruned MLU %.4f > (1+%.2f) x %.4f" seed
        pruned.Greedy_wpo.mlu eps base.Greedy_wpo.mlu
  done

(* ------------------------------------------------------------------ *)
(* The filters never drop the unpruned greedy's pick (fig4 suite)      *)
(* ------------------------------------------------------------------ *)

let test_filters_keep_pick () =
  List.iter
    (fun name ->
      let g = Topology.Datasets.load name in
      let demands = Demand_gen.gravity ~seed:1 g in
      let w = Weights.inverse_capacity g in
      let base = wpo g w demands in
      (* A fresh evaluator in the same state the solver pruned from:
         weights fixed, every demand on its direct route. *)
      let ev = Engine.Evaluator.create g w in
      Engine.Evaluator.set_commodities ev demands;
      ignore (Engine.Evaluator.loads ev);
      let p =
        Prune.prepare (Obs.Ctx.make ()) (Prune.spec Prune.default_k) ev
          demands
      in
      let pool = Prune.pool p in
      Array.iteri
        (fun i -> function
          | Some pick when Array.mem pick pool ->
            let d = demands.(i) in
            let cands =
              Prune.candidates p ~src:d.Network.src ~dst:d.Network.dst
            in
            if not (Array.exists (( = ) pick) cands) then
              Alcotest.failf "%s: demand %d->%d lost its pick %d" name
                d.Network.src d.Network.dst pick
          | _ -> ())
        base.Greedy_wpo.waypoints)
    Topology.Datasets.fig4_names

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let g = Topology.Datasets.load "Germany50" in
  let demands = Demand_gen.gravity ~seed:4 g in
  let w = Weights.inverse_capacity g in
  let stats = Engine.Stats.create () in
  ignore
    (Greedy_wpo.optimize_ctx (Obs.Ctx.make ~stats ()) ~prune:(Prune.spec 8) g w
       demands);
  Alcotest.(check bool) "pruned > 0" true
    (stats.Engine.Stats.candidates_pruned > 0);
  Alcotest.(check bool) "kept > 0" true
    (stats.Engine.Stats.candidates_kept > 0);
  let stats0 = Engine.Stats.create () in
  ignore (Greedy_wpo.optimize_ctx (Obs.Ctx.make ~stats:stats0 ()) g w demands);
  Alcotest.(check int) "unpruned: pruned = 0" 0
    stats0.Engine.Stats.candidates_pruned;
  Alcotest.(check int) "unpruned: kept = 0" 0
    stats0.Engine.Stats.candidates_kept

(* ------------------------------------------------------------------ *)
(* MILP no-op                                                          *)
(* ------------------------------------------------------------------ *)

let test_milp_noop () =
  let g, demands = random_instance 5 in
  let n = Digraph.node_count g in
  let demands = Array.sub demands 0 6 in
  let w = Weights.inverse_capacity g in
  let base =
    Wpo_milp.solve_ctx (Obs.Ctx.make ()) ~max_nodes:2_000 g w demands
  in
  let pruned =
    Wpo_milp.solve_ctx (Obs.Ctx.make ()) ~max_nodes:2_000 ~prune:(Prune.spec n)
      g w demands
  in
  Alcotest.(check bool) "waypoints" true
    (pruned.Wpo_milp.waypoints = base.Wpo_milp.waypoints);
  Alcotest.(check (float 0.)) "mlu" base.Wpo_milp.mlu pruned.Wpo_milp.mlu;
  Alcotest.(check bool) "exact" base.Wpo_milp.exact pruned.Wpo_milp.exact

let () =
  Alcotest.run "prune"
    [
      ( "no-op",
        [
          Alcotest.test_case "greedy wpo k=n" `Quick test_noop_greedy;
          Alcotest.test_case "joint k=n" `Quick test_noop_joint;
          Alcotest.test_case "milp k=n" `Quick test_milp_noop;
        ] );
      ( "determinism",
        [ Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_determinism ] );
      ( "quality",
        [
          Alcotest.test_case "fuzz k>=n/2 within 1+eps" `Quick
            test_fuzz_quality;
          Alcotest.test_case "filters keep the pick" `Quick
            test_filters_keep_pick;
        ] );
      ( "stats",
        [ Alcotest.test_case "pruning counters" `Quick test_counters ] );
    ]
