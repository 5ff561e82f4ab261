(* Tests for lib/obs: span bookkeeping (nesting, bounded buffers,
   misnest repair), counter merge and export, exporters — and the two
   load-bearing contracts of the run-context API: the deprecated
   optional-argument observability never changes solver results, and
   merged traces are byte-identical for every pool size. *)

open Te

(* A small Abilene instance shared across the solver-level tests. *)
let fixture =
  lazy
    (let g = Topology.Datasets.abilene () in
     let demands =
       Demand_gen.mcf_synthetic ~seed:3 ~flows_per_pair:2 g
     in
     (g, demands))

let ls_params =
  { Local_search.default_params with max_evals = 150; seed = 5 }

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

(* Structural well-formedness of an exported span list: ids dense from
   0, parents precede their children, depth chains by 1. *)
let check_well_formed spans =
  let arr = Array.of_list spans in
  Array.iteri
    (fun i (s : Obs.Span.t) ->
      Alcotest.(check int) "dense ids" i s.Obs.Span.id;
      if s.Obs.Span.parent = -1 then
        Alcotest.(check int) "root depth" 0 s.Obs.Span.depth
      else begin
        Alcotest.(check bool) "parent precedes child" true
          (s.Obs.Span.parent >= 0 && s.Obs.Span.parent < i);
        Alcotest.(check int) "depth chains"
          (arr.(s.Obs.Span.parent).Obs.Span.depth + 1)
          s.Obs.Span.depth
      end)
    arr

(* A span on [t] through the context API. *)
let with_span t ?attrs name f = Obs.Ctx.span (Obs.Ctx.make ~tracer:t ()) ?attrs name f

(* The [trace/1] stream [Obs.Export.write_trace] writes for [t]. *)
let trace_lines ?times t =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Export.write_trace ?times ~path t;
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* [path] inside a JSON line. *)
let json_at line path =
  match Serve.Sjson.parse line with
  | Error e -> Alcotest.fail e
  | Ok j ->
    List.fold_left (fun j k -> Option.bind j (Serve.Sjson.member k)) (Some j) path

(* The [misnested] count in the trace header. *)
let misnested t =
  match Option.bind (json_at (List.hd (trace_lines t)) [ "misnested" ]) Serve.Sjson.to_int with
  | Some k -> k
  | None -> Alcotest.fail "trace header lacks misnested"

let test_tracer_nesting () =
  let t = Obs.Tracer.create () in
  with_span t "a" (fun () ->
      with_span t "b" (fun () -> ());
      with_span t ~attrs:[ Obs.Attr.int "k" 7 ] "c" (fun () -> ()));
  Obs.Tracer.instant t "d";
  let spans = Obs.Tracer.spans t in
  Alcotest.(check int) "span count" 4 (List.length spans);
  Alcotest.(check int) "no misnesting" 0 (misnested t);
  check_well_formed spans;
  let names = List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) spans in
  Alcotest.(check (list string)) "recording order" [ "a"; "b"; "c"; "d" ] names;
  let c = List.nth spans 2 in
  Alcotest.(check int) "b/c nest under a" 0 c.Obs.Span.parent;
  Alcotest.(check bool) "attr kept" true
    (c.Obs.Span.attrs = [ ("k", Obs.Attr.Int 7) ]);
  (* every closed span has a duration *)
  List.iter
    (fun (s : Obs.Span.t) ->
      Alcotest.(check bool) "closed" true (s.Obs.Span.dur >= 0.))
    spans

let test_tracer_exception_closes () =
  let t = Obs.Tracer.create () in
  (try with_span t "boom" (fun () -> failwith "x") with
  | Failure _ -> ());
  match Obs.Tracer.spans t with
  | [ s ] ->
    Alcotest.(check bool) "closed on raise" true (s.Obs.Span.dur >= 0.);
    Alcotest.(check int) "well formed" 0 (misnested t)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_tracer_misnest_repair () =
  let t = Obs.Tracer.create () in
  let a = Obs.Tracer.start t "a" in
  let _b = Obs.Tracer.start t "b" in
  Obs.Tracer.finish t a;
  (* force-pops b *)
  Alcotest.(check int) "repair counted" 1 (misnested t);
  check_well_formed (Obs.Tracer.spans t)

let test_tracer_bounded () =
  let t = Obs.Tracer.create ~cap:4 () in
  for i = 1 to 10 do
    with_span t (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "cap retained" 4 (Obs.Tracer.span_count t);
  Alcotest.(check int) "drops counted" 6 (Obs.Tracer.dropped t);
  check_well_formed (Obs.Tracer.spans t)

let test_tracer_noop () =
  let t = Obs.Tracer.noop in
  Alcotest.(check bool) "disabled" false (Obs.Tracer.enabled t);
  Alcotest.(check int) "start is -1" (-1) (Obs.Tracer.start t "x");
  let ran = ref false in
  with_span t "y" (fun () -> ran := true);
  Alcotest.(check bool) "body runs" true !ran;
  Alcotest.(check int) "records nothing" 0 (Obs.Tracer.span_count t);
  Alcotest.(check bool) "probe is null" false (Obs.Tracer.probe t).Engine.Probe.enabled;
  Alcotest.(check bool) "lp probe is null" false
    (Obs.Tracer.lp_probe t).Linprog.Simplex.enabled

let test_graft_key_order () =
  let run keys =
    let t = Obs.Tracer.create () in
    let ctx = Obs.Ctx.make ~tracer:t () in
    Obs.Ctx.span ctx "root" (fun () ->
        let kids =
          List.map
            (fun k ->
              let c = Obs.Ctx.fork ctx in
              Obs.Ctx.span c (Printf.sprintf "task%d" k) (fun () -> ());
              (k, c))
            keys
        in
        List.iter (fun (k, c) -> Obs.Ctx.join ~key:k ~into:ctx c) kids);
    List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) (Obs.Tracer.spans t)
  in
  (* Same keys, two completion orders: identical merged traces. *)
  Alcotest.(check (list string))
    "sorted by key" [ "root"; "task0"; "task1"; "task2" ] (run [ 2; 0; 1 ]);
  Alcotest.(check (list string))
    "order independent" (run [ 0; 1; 2 ]) (run [ 2; 1; 0 ])

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let pp_metrics ctx =
  Format.asprintf "%a" Obs.Export.pp_metrics (Obs.Export.run_metrics ctx)

(* [path] inside the run summary's [metrics] object for a context. *)
let summary_metric ctx path =
  json_at (Obs.Export.run_summary ctx) ("metrics" :: path)

let prefixed p name =
  String.length name > String.length p
  && String.sub name 0 (String.length p) = p

(* The run summary's counters are exactly the context's nonzero
   [Stats.counters], under their own names, plus the pool's [sched.*]
   entries; no solver prefix outside the counter table appears. *)
let check_exported ctx =
  let exported =
    match summary_metric ctx [ "counters" ] with
    | Some (Serve.Sjson.Obj kvs) ->
      List.map
        (fun (k, v) -> (k, Option.value (Serve.Sjson.to_int v) ~default:(-1)))
        kvs
    | _ -> Alcotest.fail "run summary lacks metrics.counters"
  in
  let nonzero =
    List.filter (fun (_, v) -> v <> 0) (Engine.Stats.counters ctx.Obs.Ctx.stats)
  in
  Alcotest.(check (list (pair string int)))
    "summary counters = nonzero Stats counters"
    (List.sort compare nonzero)
    (List.filter (fun (k, _) -> not (prefixed "sched." k)) exported);
  List.iter
    (fun (k, _) ->
      List.iter
        (fun p ->
          Alcotest.(check bool) (k ^ " has no dropped prefix") false
            (prefixed p k))
        [ "omw."; "grad."; "scn."; "serve." ])
    exported

(* Forked stats merge back into the parent on join, and the printout
   is a pure function of the merged counters. *)
let test_metrics_merge () =
  let ctx = Obs.Ctx.make () in
  let bump (c : Obs.Ctx.t) =
    let s = c.Obs.Ctx.stats in
    s.Engine.Stats.evaluations <- s.evaluations + 2;
    s.ls_rounds <- s.ls_rounds + 1
  in
  bump ctx;
  let kids = [ Obs.Ctx.fork ctx; Obs.Ctx.fork ctx ] in
  List.iter bump kids;
  List.iteri (fun key k -> Obs.Ctx.join ~key ~into:ctx k) kids;
  Alcotest.(check (list (pair string int)))
    "counters add" [ ("engine.evaluations", 6); ("ls.rounds", 3) ]
    (Obs.Export.run_metrics ctx).Obs.Export.counters;
  check_exported ctx;
  (* The printout is deterministic: rebuild the same counters, same text. *)
  let rebuild () =
    let c = Obs.Ctx.make () in
    c.Obs.Ctx.stats.Engine.Stats.evaluations <- 6;
    c.Obs.Ctx.stats.ls_rounds <- 3;
    pp_metrics c
  in
  Alcotest.(check string) "printout deterministic" (rebuild ()) (rebuild ());
  Alcotest.(check string) "merge equals rebuild" (rebuild ()) (pp_metrics ctx)

let test_metrics_export_stats () =
  let s = Engine.Stats.create () in
  s.Engine.Stats.evaluations <- 2;
  (Engine.Stats.hot_times s).(Engine.Stats.hot_units) <- 0.25;
  let ctx = Obs.Ctx.make ~stats:s () in
  Alcotest.(check int) "counter preserved" 2
    (List.assoc "engine.evaluations"
       (Obs.Export.run_metrics ctx).Obs.Export.counters);
  Alcotest.(check (option (float 1e-9))) "timer becomes gauge" (Some 0.25)
    (Option.bind
       (summary_metric ctx [ "gauges"; "engine.time.units" ])
       Serve.Sjson.to_float);
  check_exported ctx;
  (* Every Stats counter is exported under its table name.  A [Stats.t]
     is its int counters followed by the [hot] array, so the all-ones
     fixture sets every int field through the representation, naming
     none, and [merge] carries it through the counter table: a counter
     added to the record but not to the table fails here. *)
  let ones = Engine.Stats.create () in
  let r = Obj.repr ones in
  Alcotest.(check int) "table covers every field"
    (Obj.size r - 1) (List.length (Engine.Stats.counters ones));
  for i = 0 to Obj.size r - 2 do
    Obj.set_field r i (Obj.repr 1)
  done;
  let s = Engine.Stats.create () in
  Engine.Stats.merge ~into:s ones;
  Alcotest.(check bool) "fixture sets every counter" true
    (List.for_all (fun (_, v) -> v = 1) (Engine.Stats.counters s));
  check_exported (Obs.Ctx.make ~stats:s ())

(* ------------------------------------------------------------------ *)
(* Ctx                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ctx_phase () =
  let ctx = Obs.Ctx.make ~tracer:(Obs.Tracer.create ()) () in
  let r = Obs.Ctx.phase ctx "load" (fun () -> 42) in
  Alcotest.(check int) "phase returns" 42 r;
  Alcotest.(check (list string)) "root span recorded" [ "load" ]
    (List.map fst (Obs.Tracer.phase_totals ctx.Obs.Ctx.tracer))

let test_ctx_deadline () =
  Alcotest.(check bool) "no deadline never expires" false
    (Obs.Ctx.expired (Obs.Ctx.make ()));
  let past = Obs.Ctx.make ~deadline:(Engine.Mono.now () -. 1.) () in
  Alcotest.(check bool) "past deadline expired" true (Obs.Ctx.expired past);
  (* an expired context still returns a valid (early-stopped) result *)
  let g, demands = Lazy.force fixture in
  let r = Local_search.optimize_ctx past ~params:ls_params g demands in
  Alcotest.(check bool) "early stop still solves" true
    (Float.is_finite r.Local_search.mlu && r.Local_search.evals >= 0)

(* ------------------------------------------------------------------ *)
(* Ctx equivalence                                                     *)
(* ------------------------------------------------------------------ *)

(* A plain context and a fully traced one must produce the same
   result: observability never changes what a solver computes. *)

let traced_ctx () =
  Obs.Ctx.make ~tracer:(Obs.Tracer.create ~engine_detail:true ()) ()

let test_ctx_local_search () =
  let g, demands = Lazy.force fixture in
  let plain = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params:ls_params g demands in
  let traced = Local_search.optimize_ctx (traced_ctx ()) ~params:ls_params g demands in
  Alcotest.(check bool) "tracing changes nothing" true (plain = traced)

let test_ctx_greedy_wpo () =
  let g, demands = Lazy.force fixture in
  let w = Weights.inverse_capacity g in
  let plain = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g w demands in
  let traced = Greedy_wpo.optimize_ctx (traced_ctx ()) g w demands in
  Alcotest.(check bool) "tracing changes nothing" true (plain = traced)

let test_ctx_joint () =
  let g, demands = Lazy.force fixture in
  let plain = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
  let traced = Joint.optimize_ctx (traced_ctx ()) ~ls_params g demands in
  Alcotest.(check bool) "tracing changes nothing" true (plain = traced)

let test_ctx_scenario_sweep () =
  let g, demands = Lazy.force fixture in
  let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
  let deployed =
    { Scenario.weights = joint.Joint.int_weights;
      Scenario.waypoints = joint.Joint.waypoints }
  in
  let cfg = { Scenario.default_config with Scenario.seed = 7; Scenario.jitters = 2 } in
  let specs = Scenario.generate cfg g in
  let plain =
    Scenario.sweep_ctx (Obs.Ctx.make ()) ~policies:[ Scenario.Static; Scenario.Repair ] ~deployed g
      demands specs
  in
  let traced =
    Scenario.sweep_ctx (traced_ctx ())
      ~policies:[ Scenario.Static; Scenario.Repair ] ~deployed g demands specs
  in
  (* compare treats nan = nan, unlike (=). *)
  Alcotest.(check bool) "tracing changes nothing" true (compare plain traced = 0)

(* ------------------------------------------------------------------ *)
(* Trace determinism across pool sizes                                 *)
(* ------------------------------------------------------------------ *)

(* The exported trace (timestamps stripped) and the counters must be a
   pure function of the task decomposition, not of the schedule. *)

let trace_of ~jobs run =
  let go pool =
    let tracer = Obs.Tracer.create () in
    let ctx = Obs.Ctx.make ~tracer ~pool () in
    let r = run ctx in
    ( r,
      trace_lines ~times:false tracer,
      Engine.Stats.counters ctx.Obs.Ctx.stats )
  in
  if jobs = 1 then go Par.Pool.sequential else Par.Pool.with_pool ~jobs go

let check_jobs_invariant name run =
  let r1, t1, m1 = trace_of ~jobs:1 run in
  let r2, t2, m2 = trace_of ~jobs:2 run in
  Alcotest.(check bool) (name ^ ": results identical") true (compare r1 r2 = 0);
  Alcotest.(check (list string)) (name ^ ": trace byte-identical") t1 t2;
  Alcotest.(check (list (pair string int))) (name ^ ": counters identical")
    m1 m2

let test_trace_jobs_local_search () =
  let g, demands = Lazy.force fixture in
  check_jobs_invariant "restart fan-out" (fun ctx ->
      Local_search.optimize_ctx ctx ~restarts:3 ~params:ls_params g demands)

let test_trace_jobs_greedy_wpo () =
  let g, demands = Lazy.force fixture in
  let w = Weights.inverse_capacity g in
  check_jobs_invariant "candidate scan" (fun ctx ->
      Greedy_wpo.optimize_ctx ctx g w demands)

let test_trace_jobs_scenario () =
  let g, demands = Lazy.force fixture in
  let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
  let deployed =
    { Scenario.weights = joint.Joint.int_weights;
      Scenario.waypoints = joint.Joint.waypoints }
  in
  let cfg = { Scenario.default_config with Scenario.seed = 7; Scenario.jitters = 2 } in
  let specs = Scenario.generate cfg g in
  check_jobs_invariant "scenario sweep" (fun ctx ->
      Scenario.sweep_ctx ctx ~policies:[ Scenario.Static; Scenario.Repair ]
        ~deployed g demands specs)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_export_trace_lines () =
  let g, demands = Lazy.force fixture in
  let tracer = Obs.Tracer.create () in
  let ctx = Obs.Ctx.make ~tracer () in
  ignore
    (Obs.Ctx.phase ctx "solve" (fun () ->
         Local_search.optimize_ctx ctx ~params:ls_params g demands));
  match trace_lines tracer with
  | [] -> Alcotest.fail "empty trace"
  | header :: spans ->
    Alcotest.(check bool) "header schema" true
      (contains ~sub:"\"schema\": \"trace/1\"" header);
    Alcotest.(check bool) "header span count" true
      (contains ~sub:(Printf.sprintf "\"spans\": %d" (List.length spans)) header);
    Alcotest.(check int) "nothing dropped" 0 (Obs.Tracer.dropped tracer);
    List.iter
      (fun l ->
        Alcotest.(check bool) "span line shape" true
          (contains ~sub:"\"name\":" l))
      spans

let test_export_run_summary () =
  let g, demands = Lazy.force fixture in
  let tracer = Obs.Tracer.create () in
  let ctx = Obs.Ctx.make ~tracer () in
  ignore
    (Obs.Ctx.phase ctx "solve" (fun () ->
         Local_search.optimize_ctx ctx ~params:ls_params g demands));
  let s = Obs.Export.run_summary ctx in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "summary has %s" sub) true
        (contains ~sub s))
    [ "\"schema\": \"run-summary/3\""; "\"phases\""; "\"solve\"";
      "\"phase_coverage\""; "\"engine.evaluations\"" ]

(* Each quantity is exported under exactly one name: the MILP's node
   count and LP solves are Engine.Stats counters, the local-search
   rounds too; the sweep's cases, OMW's moves and the gradient's rounds
   live only in spans and result records; a daemon's event counts and
   update latencies stay in its own record (no serve.* metric).  Every
   non-sched counter is a Stats.counters name, every engine.time.*
   gauge a hot-phase timer slot. *)
let test_export_one_home () =
  let g, demands = Lazy.force fixture in
  let ctx = Obs.Ctx.make () in
  ignore
    (Wpo_milp.solve_ctx ctx ~max_nodes:50 g (Weights.inverse_capacity g)
       (Array.sub demands 0 6));
  let d =
    Serve.Daemon.create ctx
      { Serve.Daemon.default_config with
        deadline_ms = -1.; reopt_evals = 60; timings = false }
      ~deployed_weights:
        (Weights.round_to_range ~wmax:16 (Weights.inverse_capacity g))
      ~deployed_waypoints:(Segments.none demands) g demands
  in
  List.iter
    (fun l -> ignore (Serve.Daemon.handle_line d l : string option))
    [ "{\"ev\":\"link-down\",\"edge\":0}"; "not json";
      "{\"ev\":\"link-up\",\"edge\":0}"; "{\"ev\":\"report\"}" ];
  let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
  let deployed =
    { Scenario.weights = joint.Joint.int_weights;
      Scenario.waypoints = joint.Joint.waypoints }
  in
  let specs =
    Scenario.generate
      { Scenario.default_config with Scenario.seed = 7; Scenario.jitters = 2 }
      g
  in
  ignore (Scenario.sweep_ctx ctx ~deployed g demands specs);
  ignore
    (Solver.solve_many
       { Solver.default_config with Solver.evals = 150 }
       ctx g demands
       (List.filter_map Solver.find [ "omw"; "grad" ]));
  let s = Obs.Export.run_summary ctx in
  let has name = contains ~sub:(Printf.sprintf "%S:" name) s in
  List.iter
    (fun name -> Alcotest.(check bool) ("has " ^ name) true (has name))
    [ "milp.nodes"; "ls.rounds"; "engine.lp_solves" ];
  List.iter
    (fun name -> Alcotest.(check bool) ("no " ^ name) false (has name))
    [ "engine.milp_nodes"; "engine.scenarios"; "milp.lp_solves";
      "engine.ls.rounds" ];
  check_exported ctx;
  let after p name =
    let n = String.length p in
    String.sub name n (String.length name - n)
  in
  let slots =
    let t = Engine.Stats.create () in
    let hot = Engine.Stats.hot_times t in
    Array.fill hot 0 (Array.length hot) 1.;
    List.map fst (Engine.Stats.timers t)
  in
  let gauges =
    match summary_metric ctx [ "gauges" ] with
    | Some (Serve.Sjson.Obj kvs) -> List.map fst kvs
    | _ -> Alcotest.fail "run summary lacks metrics.gauges"
  in
  Alcotest.(check bool) "some engine timers" true
    (List.exists (prefixed "engine.time.") gauges);
  List.iter
    (fun name ->
      if prefixed "engine.time." name then
        Alcotest.(check bool) (name ^ " is a timer slot") true
          (List.mem (after "engine.time." name) slots);
      Alcotest.(check bool) (name ^ " is not serve.*") false
        (prefixed "serve." name))
    gauges;
  Alcotest.(check bool) "the daemon ran" true
    ((Serve.Daemon.summary d).Serve.Daemon.updates = 2
     && (Serve.Daemon.summary d).Serve.Daemon.errors = 1)

(* A bench record round-trips through the strict serve parser: keys in
   order, JSON string escaping, nan as null. *)
let test_export_envelope () =
  let tricky = "q\"b\\c\001\xc3\xa9" in
  let record =
    [ Obs.Attr.float "x" nan; Obs.Attr.str "s" tricky; Obs.Attr.int "n" 3;
      Obs.Attr.bool "ok" true;
      ("xs", Obs.Attr.List [ Obs.Attr.Str "a"; Obs.Attr.Float 0.1 ]) ]
  in
  let env =
    Obs.Export.envelope ~schema:"bench/test/1" ~phases:[ ("p", 0.5) ]
      [ record ]
  in
  let module J = Serve.Sjson in
  match J.parse env with
  | Error e -> Alcotest.fail e
  | Ok (J.Obj top) -> (
    Alcotest.(check (list string)) "envelope keys"
      [ "schema"; "git_rev"; "host_cores"; "phases"; "records" ]
      (List.map fst top);
    match List.assoc "records" top with
    | J.Arr [ J.Obj fields ] ->
      Alcotest.(check (list string)) "record keys" (List.map fst record)
        (List.map fst fields);
      Alcotest.(check bool) "nan is null" true (List.assoc "x" fields = J.Null);
      Alcotest.(check (option string)) "string escaping" (Some tricky)
        (J.to_string (List.assoc "s" fields));
      Alcotest.(check bool) "list and floats" true
        (List.assoc "xs" fields = J.Arr [ J.Str "a"; J.Num 0.1 ])
    | _ -> Alcotest.fail "expected one record")
  | Ok _ -> Alcotest.fail "expected an object"

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "nesting" `Quick test_tracer_nesting;
          Alcotest.test_case "exception closes span" `Quick
            test_tracer_exception_closes;
          Alcotest.test_case "misnest repair" `Quick test_tracer_misnest_repair;
          Alcotest.test_case "bounded buffer" `Quick test_tracer_bounded;
          Alcotest.test_case "noop" `Quick test_tracer_noop;
          Alcotest.test_case "graft key order" `Quick test_graft_key_order;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "absorb stats" `Quick test_metrics_export_stats;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "phase" `Quick test_ctx_phase;
          Alcotest.test_case "deadline" `Quick test_ctx_deadline;
        ] );
      ( "ctx-equivalence",
        [
          Alcotest.test_case "local search" `Quick test_ctx_local_search;
          Alcotest.test_case "greedy wpo" `Quick test_ctx_greedy_wpo;
          Alcotest.test_case "joint" `Quick test_ctx_joint;
          Alcotest.test_case "scenario sweep" `Quick test_ctx_scenario_sweep;
        ] );
      ( "trace-determinism",
        [
          Alcotest.test_case "local search restarts" `Quick
            test_trace_jobs_local_search;
          Alcotest.test_case "greedy wpo scan" `Quick
            test_trace_jobs_greedy_wpo;
          Alcotest.test_case "scenario sweep" `Quick test_trace_jobs_scenario;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace lines" `Quick test_export_trace_lines;
          Alcotest.test_case "run summary" `Quick test_export_run_summary;
          Alcotest.test_case "one home per quantity" `Quick
            test_export_one_home;
          Alcotest.test_case "bench envelope" `Quick test_export_envelope;
        ] );
    ]
