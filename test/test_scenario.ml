(* Tests for lib/scenario: the generator grammar is deterministic and
   validated, demand shifts are pure, and — the load-bearing contract —
   sweep results are bit-identical for every pool size and
   agree with the rebuild oracle on every static outcome. *)

open Netgraph
open Te

(* A deployed JOINT setting on Abilene, shared across tests. *)
let fixture =
  lazy
    (let g = Topology.Datasets.abilene () in
     let demands =
       Demand_gen.mcf_synthetic ~seed:3 ~flows_per_pair:2 g
     in
     let ls_params =
       { Local_search.default_params with max_evals = 200; seed = 5 }
     in
     let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
     let deployed =
       {
         Scenario.weights = joint.Joint.int_weights;
         Scenario.waypoints = joint.Joint.waypoints;
       }
     in
     (g, demands, deployed))

let rich_config g =
  {
    Scenario.default_config with
    Scenario.seed = 9;
    Scenario.dual_failures = 6;
    Scenario.srlgs = [ [ 0; 2 ] ];
    Scenario.scales = [ 0.7; 1.3 ];
    Scenario.jitters = 3;
    Scenario.hotspots = 2;
    Scenario.diurnal = 3;
    Scenario.cross = Digraph.edge_count g < 0 (* false; silences unused g *);
  }

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let singles_only ?(fail_pairs = true) () =
  { Scenario.default_config with Scenario.include_baseline = false; fail_pairs }

(* The failed-link lists of the single-failure cases, in order. *)
let single_cases ?fail_pairs g =
  Array.to_list
    (Array.map
       (fun s -> s.Scenario.failed)
       (Scenario.generate (singles_only ?fail_pairs ()) g))

let test_generate_deterministic () =
  let g, _, _ = Lazy.force fixture in
  let cfg = rich_config g in
  let a = Scenario.generate cfg g and b = Scenario.generate cfg g in
  Alcotest.(check bool) "same specs on regeneration" true (a = b);
  Array.iteri
    (fun i s -> Alcotest.(check int) "ids are positional" i s.Scenario.id)
    a;
  (* Baseline first, then the single failures in edge-id order: every
     link fails exactly once. *)
  Alcotest.(check bool) "baseline first" true
    (a.(0).Scenario.failed = [] && a.(0).Scenario.shift = Scenario.No_shift);
  let singles = single_cases g in
  let hits = Array.make (Digraph.edge_count g) 0 in
  List.iteri
    (fun i removed ->
      Alcotest.(check bool)
        (Printf.sprintf "single failure case %d" i)
        true
        (a.(i + 1).Scenario.failed = removed);
      List.iter (fun e -> hits.(e) <- hits.(e) + 1) removed)
    singles;
  Alcotest.(check bool) "lead edges ascend" true
    (List.sort compare (List.map List.hd singles) = List.map List.hd singles);
  Alcotest.(check bool) "every link fails exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

let test_generate_counts () =
  let g, _, _ = Lazy.force fixture in
  let singles = List.length (single_cases g) in
  let cfg = rich_config g in
  let n = Array.length (Scenario.generate cfg g) in
  (* baseline + singles + 1 SRLG + 6 duals + 2 scales + 3 jitters
     + 2 hotspots + 3 diurnal *)
  Alcotest.(check int) "axis-sweep count" (1 + singles + 1 + 6 + 2 + 3 + 2 + 3) n;
  let cross = { cfg with Scenario.cross = true } in
  let nc = Array.length (Scenario.generate cross g) in
  (* (1 + failure cases) x (1 + shifts), all combinations kept. *)
  Alcotest.(check int) "cross-product count"
    ((1 + singles + 1 + 6) * (1 + 2 + 3 + 2 + 3))
    nc

let test_generate_validation () =
  let g, _, _ = Lazy.force fixture in
  let check_invalid name cfg =
    Alcotest.(check bool) name true
      (try
         ignore (Scenario.generate cfg g);
         false
       with Invalid_argument _ -> true)
  in
  check_invalid "negative scale"
    { Scenario.default_config with Scenario.scales = [ -1. ] };
  check_invalid "negative count"
    { Scenario.default_config with Scenario.jitters = -1 };
  check_invalid "srlg out of range"
    { Scenario.default_config with
      Scenario.srlgs = [ [ Digraph.edge_count g ] ] }

(* ------------------------------------------------------------------ *)
(* Demand shifts                                                       *)
(* ------------------------------------------------------------------ *)

(* Demand shifts, observed through the rebuild oracle's static MLU on
   the intact topology: each shift is pure, leaves the input matrix
   untouched and keeps it routable, and a uniform factor scales the MLU
   by exactly that factor. *)
let test_apply_shift () =
  let g, demands, deployed = Lazy.force fixture in
  let before = Array.copy demands in
  let shifts =
    [
      Scenario.No_shift;
      Scenario.Uniform 2.;
      Scenario.Uniform 1.3;
      Scenario.Jitter { seed = 4; sigma = 0.25 };
      Scenario.Hotspot { seed = 4; pairs = 3; factor = 3. };
      Scenario.Diurnal { level = 0.3 };
    ]
  in
  let specs =
    Array.of_list
      (List.mapi (fun id shift -> { Scenario.id; failed = []; shift }) shifts)
  in
  let run () = Scenario.static_sweep_rebuild ~deployed g demands specs in
  let r = run () in
  Alcotest.(check bool) "pure (same shift, same result)" true (r = run ());
  Alcotest.(check bool) "input untouched" true (demands = before);
  Array.iter
    (fun (mlu, disconnected) ->
      Alcotest.(check int) "routable" 0 disconnected;
      Alcotest.(check bool) "positive MLU" true (Float.is_finite mlu && mlu > 0.))
    r;
  Alcotest.(check (float 1e-12)) "uniform doubles the MLU"
    (2. *. fst r.(0)) (fst r.(1))

let test_policies_of_string () =
  Alcotest.(check bool) "parses the acceptance list" true
    (Scenario.policies_of_string "static,repair,reweight:3"
    = [ Scenario.Static; Scenario.Repair; Scenario.Reweight 3 ]);
  Alcotest.(check string) "round-trips names" "reweight:3"
    (Scenario.policy_name (Scenario.Reweight 3));
  let invalid s =
    try
      ignore (Scenario.policies_of_string s);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejects unknown" true (invalid "static,wat");
  Alcotest.(check bool) "rejects bad budget" true (invalid "reweight:x")

(* ------------------------------------------------------------------ *)
(* Sweep: oracle agreement and scheduling independence                 *)
(* ------------------------------------------------------------------ *)

let small_specs g =
  Scenario.generate
    {
      Scenario.default_config with
      Scenario.seed = 9;
      Scenario.dual_failures = 4;
      Scenario.scales = [ 0.8; 1.2 ];
      Scenario.jitters = 2;
      Scenario.hotspots = 1;
      Scenario.diurnal = 2;
    }
    g

(* The engine sweep (persistent evaluators, disable_edge + undo) must
   reproduce the rebuild-the-subgraph oracle case by case, for the Joint
   deployment and for the same weights without waypoints. *)
let test_sweep_matches_rebuild_oracle () =
  let g, demands, joint = Lazy.force fixture in
  let specs = small_specs g in
  List.iter
    (fun deployed ->
      let out =
        Scenario.sweep_ctx (Obs.Ctx.make ()) ~deployed g demands specs
      in
      let oracle = Scenario.static_sweep_rebuild ~deployed g demands specs in
      Array.iteri
        (fun i (mlu, disc) ->
          let o = out.(i) in
          Alcotest.(check int)
            (Printf.sprintf "scenario %d disconnected" i)
            disc o.Scenario.static_disconnected;
          if Float.is_nan mlu then
            Alcotest.(check bool)
              (Printf.sprintf "scenario %d nan mlu" i)
              true
              (Float.is_nan o.Scenario.static_mlu)
          else
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "scenario %d mlu" i)
              mlu o.Scenario.static_mlu)
        oracle)
    [ joint; { joint with Scenario.waypoints = Segments.none demands } ]

let test_sweep_scheduling_independent () =
  let g, demands, deployed = Lazy.force fixture in
  let specs = small_specs g in
  let policies = [ Scenario.Static; Scenario.Repair; Scenario.Reweight 3 ] in
  let run_ctx pool =
    let ctx = Obs.Ctx.make ~pool () in
    let out =
      Scenario.sweep_ctx ctx ~policies ~reopt_evals:60 ~deployed g demands specs
    in
    (out, ctx.Obs.Ctx.stats)
  in
  let run pool = fst (run_ctx pool) in
  (* Every scenario starts from the warm master's state, so every engine
     counter is a function of the specs, not of who ran which one. *)
  let work = Engine.Stats.counters in
  let reference, ref_stats = run_ctx Par.Pool.sequential in
  (* compare (not (=)) so nan = nan: outcomes carry nan MLUs. *)
  List.iter
    (fun jobs ->
      let out, stats = Par.Pool.with_pool ~eager_wake:true ~jobs run_ctx in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at jobs=%d" jobs)
        true
        (compare out reference = 0);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "engine work at jobs=%d" jobs)
        (work ref_stats) (work stats))
    [ 2; 4 ];
  (* And so is the serialized report — the artifact the CLI emits. *)
  let json out =
    Scenario.report_to_json g
      (Scenario.summarize ~topology:"Abilene" ~nominal_mlu:1. out)
  in
  let j4 = Par.Pool.with_pool ~jobs:4 (fun p -> json (run p)) in
  Alcotest.(check string) "report bytes identical across jobs" (json reference)
    j4

let test_sweep_policies () =
  let g, demands, deployed = Lazy.force fixture in
  let specs = small_specs g in
  let out =
    Scenario.sweep_ctx (Obs.Ctx.make ())
      ~policies:[ Scenario.Static; Scenario.Repair; Scenario.Reweight 2 ]
      ~reopt_evals:60 ~deployed g demands specs
  in
  Array.iter
    (fun (o : Scenario.outcome) ->
      Alcotest.(check int) "one outcome per policy" 3
        (List.length o.Scenario.policies);
      Alcotest.(check bool) "topo_disconnected <= static_disconnected" true
        (o.Scenario.topo_disconnected <= o.Scenario.static_disconnected);
      List.iter
        (fun (po : Scenario.policy_outcome) ->
          Alcotest.(check bool) "nan iff disconnected" true
            (Float.is_nan po.Scenario.mlu = (po.Scenario.disconnected > 0));
          match po.Scenario.policy with
          | Scenario.Static ->
            Alcotest.(check int) "static reports deployed disconnections"
              o.Scenario.static_disconnected po.Scenario.disconnected;
            Alcotest.(check int) "static never changes weights" 0
              po.Scenario.weight_changes
          | Scenario.Repair ->
            Alcotest.(check int) "repair routes all the topology allows"
              o.Scenario.topo_disconnected po.Scenario.disconnected;
            Alcotest.(check int) "repair never changes weights" 0
              po.Scenario.weight_changes;
            if o.Scenario.static_disconnected = 0 then
              Alcotest.(check bool) "repair never worse than static" true
                (po.Scenario.mlu <= o.Scenario.static_mlu +. 1e-9)
          | Scenario.Reweight k ->
            Alcotest.(check bool) "reweight respects the budget" true
              (po.Scenario.weight_changes <= k);
            if po.Scenario.disconnected = 0
               && o.Scenario.static_disconnected = 0
            then
              Alcotest.(check bool) "reweight never worse than static" true
                (po.Scenario.mlu <= o.Scenario.static_mlu +. 1e-9))
        o.Scenario.policies)
    out

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_summarize () =
  let g, demands, deployed = Lazy.force fixture in
  let specs = small_specs g in
  let out =
    Scenario.sweep_ctx (Obs.Ctx.make ()) ~policies:[ Scenario.Static; Scenario.Repair ] ~deployed g
      demands specs
  in
  let r = Scenario.summarize ~topology:"Abilene" ~nominal_mlu:1.0 out in
  Alcotest.(check int) "scenario count" (Array.length specs)
    r.Scenario.scenario_count;
  Alcotest.(check int) "static + requested non-static summaries" 2
    (List.length r.Scenario.summaries);
  let s = List.hd r.Scenario.summaries in
  Alcotest.(check bool) "static summary first" true
    (s.Scenario.policy = Scenario.Static);
  Alcotest.(check bool) "percentiles ordered" true
    (s.Scenario.p50 <= s.Scenario.p95 && s.Scenario.p95 <= s.Scenario.p99);
  Alcotest.(check bool) "p99 <= worst" true
    (s.Scenario.p99 <= s.Scenario.worst_mlu);
  Alcotest.(check bool) "cvar95 >= p95" true
    (s.Scenario.cvar95 >= s.Scenario.p95 -. 1e-12);
  Alcotest.(check bool) "worst_id is a spec id" true
    (Array.exists (fun o -> o.Scenario.spec.Scenario.id = s.Scenario.worst_id) out);
  (* worst_cases lead with the most severe static outcome. *)
  (match r.Scenario.worst_cases with
  | (sp, mlu, disc) :: _ ->
    Alcotest.(check int) "headline worst case id" s.Scenario.worst_id
      sp.Scenario.id;
    if disc = 0 then
      Alcotest.(check (float 1e-12)) "headline worst mlu" s.Scenario.worst_mlu
        mlu
  | [] -> Alcotest.fail "no worst cases");
  Alcotest.(check bool) "at most five worst cases" true
    (List.length r.Scenario.worst_cases <= 5);
  let json = Scenario.report_to_json g r in
  Alcotest.(check bool) "json carries the schema" true
    (String.length json > 0
    && String.sub json 0 33 = "{\"schema\": \"robustness-report/1\"," )

(* Node and topology names outside printable ASCII (and with quotes)
   must still yield a report that strict JSON parsers accept, with every
   string round-tripping. *)
let test_report_json_escapes () =
  let names = [| "Z\xc3\xbcrich"; "Gen\xc3\xa8ve"; "Bern \"HQ\"" |] in
  let g =
    Digraph.of_edges ~names ~n:3
      [ (0, 1, 10.); (1, 0, 10.); (1, 2, 10.); (2, 1, 10.); (0, 2, 10.);
        (2, 0, 10.) ]
  in
  let demands = [| Network.demand 0 2 4.; Network.demand 1 0 3. |] in
  let deployed =
    { Scenario.weights = Array.make (Digraph.edge_count g) 1;
      Scenario.waypoints = Segments.none demands }
  in
  let topology = "Schweiz \"CH\" \xc3\xa9t\xc3\xa9" in
  let r =
    Scenario.summarize ~topology ~nominal_mlu:1.
      (Scenario.sweep_ctx (Obs.Ctx.make ()) ~deployed g demands
         (Scenario.generate Scenario.default_config g))
  in
  match Serve.Sjson.parse (Scenario.report_to_json g r) with
  | Error e -> Alcotest.fail ("report is not JSON: " ^ e)
  | Ok j ->
    let str k o = Option.bind (Serve.Sjson.member k o) Serve.Sjson.to_string in
    Alcotest.(check (option string)) "topology round-trips" (Some topology)
      (str "topology" j);
    let cases =
      Option.value ~default:[]
        (Option.bind (Serve.Sjson.member "worst_cases" j) Serve.Sjson.to_list)
    in
    Alcotest.(check int) "every worst case rendered"
      (List.length r.Scenario.worst_cases) (List.length cases);
    List.iter2
      (fun (sp, _, _) c ->
        let hop e =
          Printf.sprintf "%s>%s"
            (Digraph.node_name g (Digraph.src g e))
            (Digraph.node_name g (Digraph.dst g e))
        in
        let prefix =
          match sp.Scenario.failed with
          | [] -> "ok"
          | es -> "fail:" ^ String.concat "+" (List.map hop es)
        in
        Alcotest.(check bool) ("label starts with " ^ prefix) true
          (String.starts_with ~prefix
             (Option.value ~default:"" (str "label" c))))
      r.Scenario.worst_cases cases

(* ------------------------------------------------------------------ *)
(* Single-failure what-ifs on small graphs (the te-tool failures view)  *)
(* ------------------------------------------------------------------ *)

let square () =
  (* bidirected square 0-1-3-2-0, all caps 10 *)
  Digraph.of_edges ~n:4
    [ (0, 1, 10.); (1, 0, 10.); (1, 3, 10.); (3, 1, 10.); (0, 2, 10.);
      (2, 0, 10.); (2, 3, 10.); (3, 2, 10.) ]

(* Static single-failure sweep of a fixed setting. *)
let single_failures ?fail_pairs ?waypoints g weights demands =
  let deployed =
    {
      Scenario.weights;
      Scenario.waypoints =
        (match waypoints with Some w -> w | None -> Segments.none demands);
    }
  in
  Scenario.sweep_ctx (Obs.Ctx.make ()) ~deployed g demands
    (Scenario.generate (singles_only ?fail_pairs ()) g)

(* The most severe static outcome: (failed links, mlu, disconnected). *)
let worst_case outcomes =
  let r = Scenario.summarize ~topology:"t" ~nominal_mlu:0. outcomes in
  match r.Scenario.worst_cases with
  | (spec, mlu, disc) :: _ -> (spec.Scenario.failed, mlu, disc)
  | [] -> Alcotest.fail "no worst case"

let test_twin () =
  Alcotest.(check (list (list int))) "twins fail together"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ]
    (single_cases (square ()));
  Alcotest.(check (list (list int))) "unpaired without fail_pairs"
    [ [ 0 ]; [ 1 ] ]
    (single_cases ~fail_pairs:false (Digraph.of_edges ~n:2 [ (0, 1, 1.); (1, 0, 1.) ]));
  Alcotest.(check (list (list int))) "no twin across capacities"
    [ [ 0 ]; [ 1 ] ]
    (single_cases (Digraph.of_edges ~n:2 [ (0, 1, 10.); (1, 0, 5.) ]))

let test_without_edges () =
  (* The rebuild oracle routes on the graph minus exactly the failed
     links: 0-1 down leaves 0-2-3; 0-1 and 0-2 down strand node 0. *)
  let g = square () in
  let deployed =
    { Scenario.weights = Array.make 8 1; Scenario.waypoints = [| [] |] }
  in
  let spec failed = { Scenario.id = 0; failed; shift = Scenario.No_shift } in
  let oracle =
    Scenario.static_sweep_rebuild ~deployed g [| Network.demand 0 3 8. |]
      [| spec [ 0; 1 ]; spec [ 0; 1; 4; 5 ] |]
  in
  let mlu, disc = oracle.(0) in
  Alcotest.(check int) "one link pair down: connected" 0 disc;
  Alcotest.(check (float 1e-9)) "all 8 units on the surviving path" 0.8 mlu;
  let mlu, disc = oracle.(1) in
  Alcotest.(check int) "both exits down: disconnected" 1 disc;
  Alcotest.(check bool) "nan mlu" true (Float.is_nan mlu)

let test_single_failures () =
  let g = square () in
  let outs = single_failures g (Array.make 8 1) [| Network.demand 0 3 8. |] in
  Alcotest.(check int) "four failure scenarios" 4 (Array.length outs);
  Array.iter
    (fun (o : Scenario.outcome) ->
      Alcotest.(check int) "still connected" 0 o.Scenario.static_disconnected;
      (* After any single link-pair failure one 2-hop path remains:
         all 8 units on capacity-10 links. *)
      Alcotest.(check (float 1e-9)) "mlu" 0.8 o.Scenario.static_mlu)
    outs

let test_failure_disconnects () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 10.) ] in
  let outs =
    single_failures ~fail_pairs:false g [| 1 |] [| Network.demand 0 1 1. |]
  in
  let _, _, disc = worst_case outs in
  Alcotest.(check int) "disconnected" 1 disc

let test_worst_case_failure () =
  (* Asymmetric: failing the fat path must be the worst case.  Failing
     (0,2) leaves MLU 0.5; failing (0,1) or (1,2) pushes all 5 onto the
     capacity-1 link: MLU 5, first at the lower edge id. *)
  let g = Digraph.of_edges ~n:3 [ (0, 1, 10.); (1, 2, 10.); (0, 2, 1.) ] in
  let outs =
    single_failures ~fail_pairs:false g [| 1; 1; 1 |] [| Network.demand 0 2 5. |]
  in
  let failed, mlu, _ = worst_case outs in
  Alcotest.(check (list int)) "worst link" [ 0 ] failed;
  Alcotest.(check (float 1e-9)) "worst mlu" 5. mlu

let test_failures_with_waypoints () =
  let g = square () in
  let outs =
    single_failures ~waypoints:[| [ 1 ] |] g (Array.make 8 1)
      [| Network.demand 0 3 4. |]
  in
  Array.iter
    (fun (o : Scenario.outcome) ->
      Alcotest.(check int) "routable" 0 o.Scenario.static_disconnected)
    outs

let test_single_failures_matches_rebuild () =
  (* The engine sweep (persistent evaluator, disable_edge + undo) must
     reproduce the rebuild-the-subgraph oracle on every single-failure
     case — same disconnection counts, same MLUs — on a real topology,
     with and without waypoints. *)
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:7 ~flows_per_pair:2 g
  in
  (* Weights.random draws integers in [1, 8], so the conversion is exact. *)
  let w = Array.map int_of_float (Weights.random ~seed:11 ~wmax:8 g) in
  let wpo =
    Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g (Weights.of_ints w) demands
  in
  let specs = Scenario.generate (singles_only ()) g in
  List.iter
    (fun waypoints ->
      let engine = single_failures ~waypoints g w demands in
      let rebuild =
        Scenario.static_sweep_rebuild
          ~deployed:{ Scenario.weights = w; Scenario.waypoints }
          g demands specs
      in
      Alcotest.(check int) "same case count" (Array.length rebuild)
        (Array.length engine);
      Array.iteri
        (fun i (mlu, disc) ->
          let o = engine.(i) in
          Alcotest.(check (list int)) "same edges" specs.(i).Scenario.failed
            o.Scenario.spec.Scenario.failed;
          Alcotest.(check int) "same disconnected" disc
            o.Scenario.static_disconnected;
          if Float.is_nan mlu then
            Alcotest.(check bool) "nan mlu" true
              (Float.is_nan o.Scenario.static_mlu)
          else
            Alcotest.(check (float 1e-9)) "same mlu" mlu o.Scenario.static_mlu)
        rebuild)
    [ Segments.none demands; Segments.of_single wpo.Greedy_wpo.waypoints ]

let test_severity_total_order () =
  (* One order for worst_id and worst_cases, total even on nan MLUs:
     more disconnected demands beat fewer, any disconnection beats any
     MLU, a (defensive) nan MLU on a connected row sorts above every
     number, and ties keep the lowest id. *)
  let row id ~mlu ~disc =
    {
      Scenario.spec = { Scenario.id; failed = []; shift = Scenario.No_shift };
      static_disconnected = disc;
      topo_disconnected = disc;
      static_mlu = mlu;
      policies = [];
    }
  in
  let low = row 0 ~mlu:0.5 ~disc:0 and high = row 1 ~mlu:1e9 ~disc:0 in
  let nan_conn = row 2 ~mlu:nan ~disc:0 in
  let disc2 = row 3 ~mlu:nan ~disc:2 and disc1 = row 4 ~mlu:nan ~disc:1 in
  let low_tie = row 5 ~mlu:0.5 ~disc:0 in
  let summarize rows =
    Scenario.summarize ~topology:"t" ~nominal_mlu:0. (Array.of_list rows)
  in
  let r = summarize [ low; high; nan_conn; disc2; disc1; low_tie ] in
  let s = List.hd r.Scenario.summaries in
  Alcotest.(check int) "most disconnected is worst" 3 s.Scenario.worst_id;
  Alcotest.(check (list int)) "worst cases in severity order" [ 3; 4; 2; 1; 0 ]
    (List.map (fun (sp, _, _) -> sp.Scenario.id) r.Scenario.worst_cases);
  Alcotest.(check (float 0.)) "worst finite mlu" 1e9 s.Scenario.worst_mlu;
  Alcotest.(check int) "disconnected scenarios" 2
    s.Scenario.disconnected_scenarios;
  let s = List.hd (summarize [ low; nan_conn; high ]).Scenario.summaries in
  Alcotest.(check int) "connected nan outranks every mlu" 2 s.Scenario.worst_id;
  let s = List.hd (summarize [ low; low_tie ]).Scenario.summaries in
  Alcotest.(check int) "ties keep the lowest id" 0 s.Scenario.worst_id

let () =
  Alcotest.run "scenario"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "counts" `Quick test_generate_counts;
          Alcotest.test_case "validation" `Quick test_generate_validation;
        ] );
      ( "shifts",
        [
          Alcotest.test_case "apply_shift" `Quick test_apply_shift;
          Alcotest.test_case "policies_of_string" `Quick test_policies_of_string;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "matches rebuild oracle" `Quick
            test_sweep_matches_rebuild_oracle;
          Alcotest.test_case "scheduling independent" `Quick
            test_sweep_scheduling_independent;
          Alcotest.test_case "policy semantics" `Quick test_sweep_policies;
        ] );
      ( "report",
        [ Alcotest.test_case "summarize + json" `Quick test_summarize;
          Alcotest.test_case "json escapes names" `Quick
            test_report_json_escapes ] );
      ( "failures",
        [
          Alcotest.test_case "twin" `Quick test_twin;
          Alcotest.test_case "without edges" `Quick test_without_edges;
          Alcotest.test_case "single failures" `Quick test_single_failures;
          Alcotest.test_case "disconnection" `Quick test_failure_disconnects;
          Alcotest.test_case "worst case" `Quick test_worst_case_failure;
          Alcotest.test_case "with waypoints" `Quick test_failures_with_waypoints;
          Alcotest.test_case "engine = rebuild oracle" `Quick
            test_single_failures_matches_rebuild;
          Alcotest.test_case "severity total order" `Quick
            test_severity_total_order;
        ] );
    ]
