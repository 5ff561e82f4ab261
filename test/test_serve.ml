(* Tests for lib/serve: the JSON substrate is total and deterministic,
   the event grammar rejects everything malformed without killing the
   daemon, and the daemon itself honors its three service-level
   contracts — byte-identical response streams across pool sizes, the
   deadline floor (degrade to the incumbent, never block), and the
   per-update churn budget. *)

open Netgraph
open Te

(* ------------------------------------------------------------------ *)
(* Sjson                                                               *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Serve.Sjson.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_sjson_roundtrip () =
  let cases =
    [
      "null"; "true"; "false"; "0"; "-1"; "3.5"; "1e3"; "\"\"";
      "\"a b\\n\\\"c\\\"\\\\\""; "[]"; "[1, [2, \"x\"], {}]";
      "{\"a\": 1, \"b\": [true, null]}";
    ]
  in
  List.iter
    (fun s ->
      let v = parse_ok s in
      let v' = parse_ok (Serve.Sjson.render v) in
      Alcotest.(check bool) (Printf.sprintf "roundtrip %S" s) true (v = v'))
    cases;
  (* Unicode escape (BMP) decodes to UTF-8. *)
  Alcotest.(check bool) "\\u00e9 decodes" true
    (parse_ok "\"\\u00e9\"" = Serve.Sjson.Str "\xc3\xa9")

let test_sjson_render_deterministic () =
  (* Field order is construction order; floats render canonically. *)
  let v =
    Serve.Sjson.Obj
      [
        ("b", Serve.Sjson.Num 2.); ("a", Serve.Sjson.Num 0.1);
        ("n", Serve.Sjson.Num nan); ("i", Serve.Sjson.Num infinity);
      ]
  in
  Alcotest.(check string) "render"
    "{\"b\":2,\"a\":0.10000000000000001,\"n\":null,\"i\":1e999}"
    (Serve.Sjson.render v)

let test_sjson_errors () =
  List.iter
    (fun s ->
      match Serve.Sjson.parse s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error for %S mentions offset" s)
          true
          (String.length e > 0))
    [
      ""; "{"; "}"; "[1,]"; "{\"a\":}"; "{\"a\" 1}"; "\"unterminated";
      "{} trailing"; "nan"; "+1"; "01"; "1e999"; "tru"; "\"\\q\"";
      "\"\\u12\""; "{\"a\": 1,}"; "[1 2]";
    ]

(* ------------------------------------------------------------------ *)
(* Event grammar                                                       *)
(* ------------------------------------------------------------------ *)

let abilene = lazy (Topology.Datasets.abilene ())

let ev_ok line =
  let g = Lazy.force abilene in
  match Serve.Event.parse g line with
  | Ok e -> e
  | Error msg -> Alcotest.failf "event %S rejected: %s" line msg

let ev_err line =
  let g = Lazy.force abilene in
  match Serve.Event.parse g line with
  | Ok _ -> Alcotest.failf "event %S unexpectedly accepted" line
  | Error msg -> msg

let test_event_parse () =
  (match ev_ok "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":3,\"size\":2.5}]}" with
  | Serve.Event.Delta [ { Serve.Event.src = 0; dst = 3; size } ] ->
    Alcotest.(check (float 0.)) "size" 2.5 size
  | _ -> Alcotest.fail "delta shape");
  (* Node names resolve against the graph. *)
  let g = Lazy.force abilene in
  let n0 = Digraph.node_name g 0 and n3 = Digraph.node_name g 3 in
  (match
     ev_ok
       (Printf.sprintf
          "{\"ev\":\"delta\",\"changes\":[{\"src\":%s,\"dst\":%s,\"size\":1}]}"
          (Obs.Json.str n0) (Obs.Json.str n3))
   with
  | Serve.Event.Delta [ { Serve.Event.src = 0; dst = 3; _ } ] -> ()
  | _ -> Alcotest.fail "named delta shape");
  (match ev_ok "{\"ev\":\"link-down\",\"edges\":[2,0,2]}" with
  | Serve.Event.Link_down [ 0; 2 ] -> ()
  | _ -> Alcotest.fail "edges dedup + sort");
  (* Addressing an edge by endpoints. *)
  let u = Digraph.src g 1 and v = Digraph.dst g 1 in
  (match
     ev_ok
       (Printf.sprintf "{\"ev\":\"link-up\",\"src\":%d,\"dst\":%d}" u v)
   with
  | Serve.Event.Link_up [ e ] -> Alcotest.(check int) "endpoint edge" 1 e
  | _ -> Alcotest.fail "endpoint link-up shape");
  (match (ev_ok "{\"ev\":\"report\"}", ev_ok "{\"ev\":\"resolve\"}",
          ev_ok "{\"ev\":\"quit\"}")
   with
  | Serve.Event.Report, Serve.Event.Resolve, Serve.Event.Quit -> ()
  | _ -> Alcotest.fail "nullary events")

let test_event_rejects () =
  List.iter
    (fun line -> ignore (ev_err line))
    [
      "not json"; "[]"; "{}"; "{\"ev\":\"warp\"}"; "{\"ev\":42}";
      "{\"ev\":\"delta\"}"; "{\"ev\":\"delta\",\"changes\":[]}";
      "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":0,\"size\":1}]}";
      "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":99,\"size\":1}]}";
      "{\"ev\":\"delta\",\"changes\":[{\"src\":\"Nowhere\",\"dst\":1,\"size\":1}]}";
      "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":1,\"size\":-1}]}";
      "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":1}]}";
      "{\"ev\":\"set-matrix\"}"; "{\"ev\":\"link-down\"}";
      "{\"ev\":\"link-down\",\"edge\":-1}";
      "{\"ev\":\"link-down\",\"edge\":9999}";
      "{\"ev\":\"link-down\",\"edges\":[]}";
      "{\"ev\":\"link-up\",\"src\":0,\"dst\":0}";
    ]

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

(* A cheap deterministic fixture: inverse-capacity integer weights and
   direct routing, so daemon tests do not pay for a Joint deploy. *)
let fixture =
  lazy
    (let g = Lazy.force abilene in
     let demands =
       Demand_gen.mcf_synthetic ~seed:3 ~flows_per_pair:2 g
     in
     let weights = Weights.round_to_range ~wmax:16 (Weights.inverse_capacity g) in
     (g, demands, weights))

let make_daemon ?(cfg_f = fun c -> c) ?(pool = Par.Pool.sequential)
    ?(stats = Engine.Stats.create ()) ?tracer () =
  let g, demands, weights = Lazy.force fixture in
  let ctx = Obs.Ctx.make ~stats ~pool ?tracer () in
  let cfg =
    cfg_f
      {
        Serve.Daemon.default_config with
        deadline_ms = -1.;
        reopt_evals = 60;
        resolve_evals = 200;
        timings = false;
        seed = 11;
      }
  in
  Serve.Daemon.create ctx cfg ~deployed_weights:weights
    ~deployed_waypoints:(Segments.none demands) g demands

let field name resp =
  match Serve.Sjson.member name (parse_ok resp) with
  | Some v -> v
  | None -> Alcotest.failf "response %s lacks %S" resp name

let str_field name resp =
  match Serve.Sjson.to_string (field name resp) with
  | Some s -> s
  | None -> Alcotest.failf "field %S not a string in %s" name resp

let int_field name resp =
  match Serve.Sjson.to_int (field name resp) with
  | Some i -> i
  | None -> Alcotest.failf "field %S not an int in %s" name resp

let float_field name resp =
  match Serve.Sjson.to_float (field name resp) with
  | Some f -> f
  | None -> Alcotest.failf "field %S not a number in %s" name resp

let must_respond d line =
  match Serve.Daemon.handle_line d line with
  | Some r -> r
  | None -> Alcotest.failf "no response for %S" line

let test_daemon_robust_to_garbage () =
  let d = make_daemon () in
  let before = (Serve.Daemon.summary d).Serve.Daemon.updates in
  List.iteri
    (fun i line ->
      let r = must_respond d line in
      Alcotest.(check string)
        (Printf.sprintf "garbage %d -> error status" i)
        "error" (str_field "status" r);
      Alcotest.(check int) "seq echoes" i (int_field "seq" r);
      Alcotest.(check string) "schema" "serve/1" (str_field "schema" r))
    [
      "not json at all"; "{\"ev\":\"warp\"}"; "[1,2,3]";
      "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":0,\"size\":1}]}";
      "{\"ev\":\"link-up\",\"edge\":0}" (* edge is not down *);
      "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":1,\"size\":1e999}]}";
    ];
  let s = Serve.Daemon.summary d in
  Alcotest.(check int) "all lines counted" 6 s.Serve.Daemon.events;
  Alcotest.(check int) "all errors counted" 6 s.Serve.Daemon.errors;
  Alcotest.(check int) "no state change" before s.Serve.Daemon.updates;
  (* Blank lines produce no response and consume no sequence number. *)
  Alcotest.(check bool) "blank -> None" true
    (Serve.Daemon.handle_line d "   " = None);
  (* The daemon still serves after all that. *)
  let r = must_respond d "{\"ev\":\"report\"}" in
  Alcotest.(check string) "still alive" "ok" (str_field "status" r)

let replay_lines ?(steps = 12) () =
  let _, demands, _ = Lazy.force fixture in
  let replay =
    {
      Scenario.default_replay with
      Scenario.replay_seed = 4;
      steps;
      report_every = 5;
    }
  in
  Scenario.replay_events replay demands

let drive d lines =
  List.filter_map (fun l -> Serve.Daemon.handle_line d l) lines

let test_daemon_deterministic_across_jobs () =
  let lines = replay_lines () in
  let seq = String.concat "\n" (drive (make_daemon ()) lines) in
  let par =
    Par.Pool.with_pool ~jobs:3 (fun pool ->
        String.concat "\n" (drive (make_daemon ~pool ()) lines))
  in
  let seq2 = String.concat "\n" (drive (make_daemon ()) lines) in
  Alcotest.(check string) "jobs=1 = jobs=3" seq par;
  Alcotest.(check string) "rerun identical" seq seq2

let test_daemon_deadline_floor () =
  (* deadline 0: every update is already over budget when it starts, so
     the daemon degrades to the incumbent — zero churn, mlu unchanged
     by the optimizer (only by the demands themselves). *)
  let d = make_daemon ~cfg_f:(fun c -> { c with Serve.Daemon.deadline_ms = 0. }) () in
  let lines = replay_lines () in
  let updates = ref 0 in
  List.iter
    (fun line ->
      match Serve.Daemon.handle_line d line with
      | None -> ()
      | Some r when str_field "event" r = "delta" ->
        incr updates;
        Alcotest.(check bool) "degraded" true
          (field "degraded" r = Serve.Sjson.Bool true);
        Alcotest.(check int) "no weight churn" 0 (int_field "weight_churn" r);
        Alcotest.(check int) "no waypoint churn" 0
          (int_field "waypoint_churn" r);
        Alcotest.(check (float 0.)) "incumbent kept"
          (float_field "mlu_before" r)
          (float_field "mlu_after" r)
      | Some _ -> ())
    lines;
  let s = Serve.Daemon.summary d in
  Alcotest.(check bool) "saw updates" true (!updates > 0);
  Alcotest.(check int) "all degraded" s.Serve.Daemon.updates
    s.Serve.Daemon.degraded

let test_daemon_churn_budget () =
  let budget = 2 in
  let d =
    make_daemon ~cfg_f:(fun c -> { c with Serve.Daemon.churn_budget = budget }) ()
  in
  let lines = replay_lines ~steps:15 () in
  List.iter
    (fun line ->
      match Serve.Daemon.handle_line d line with
      | Some r when str_field "status" r = "ok" && str_field "event" r = "delta"
        ->
        Alcotest.(check bool)
          (Printf.sprintf "weight churn %d <= %d" (int_field "weight_churn" r)
             budget)
          true
          (int_field "weight_churn" r <= budget)
      | _ -> ())
    lines

let test_daemon_link_flap () =
  (* With the optimizer floored (deadline 0) a down/up flap must return
     the daemon to its exact pre-flap state: same MLU, same weights. *)
  let d = make_daemon ~cfg_f:(fun c -> { c with Serve.Daemon.deadline_ms = 0. }) () in
  ignore (must_respond d "{\"ev\":\"report\"}");
  let w0, _, _ = Serve.Daemon.state d in
  let mlu0 = Serve.Daemon.mlu d in
  let down = must_respond d "{\"ev\":\"link-down\",\"edge\":0}" in
  Alcotest.(check string) "down ok" "ok" (str_field "status" down);
  Alcotest.(check bool) "down disconnects or reroutes" true
    (int_field "disconnected" down >= 0);
  (* Down twice is a client error, not a crash, and changes nothing. *)
  let again = must_respond d "{\"ev\":\"link-down\",\"edge\":0}" in
  Alcotest.(check string) "double down rejected" "error"
    (str_field "status" again);
  let up = must_respond d "{\"ev\":\"link-up\",\"edge\":0}" in
  Alcotest.(check string) "up ok" "ok" (str_field "status" up);
  Alcotest.(check int) "nothing disconnected after up" 0
    (int_field "disconnected" up);
  let w1, _, _ = Serve.Daemon.state d in
  Alcotest.(check bool) "weights restored" true (w0 = w1);
  Alcotest.(check (float 0.)) "mlu restored" mlu0 (Serve.Daemon.mlu d)

let test_daemon_set_matrix_and_delta_remove () =
  let d = make_daemon () in
  let r =
    must_respond d
      "{\"ev\":\"set-matrix\",\"demands\":[{\"src\":0,\"dst\":3,\"size\":5},{\"src\":4,\"dst\":1,\"size\":2}]}"
  in
  Alcotest.(check string) "swap ok" "ok" (str_field "status" r);
  Alcotest.(check int) "two pairs" 2 (int_field "demands" r);
  let r =
    must_respond d
      "{\"ev\":\"delta\",\"changes\":[{\"src\":0,\"dst\":3,\"size\":0}]}"
  in
  Alcotest.(check int) "size 0 removes the pair" 1 (int_field "demands" r);
  let _, demands, _ = Serve.Daemon.state d in
  Alcotest.(check int) "state agrees" 1 (Array.length demands)

let test_daemon_lp_warm_by_destination () =
  (* The LP's layout depends only on the destination set, so dropping a
     pair whose destination other pairs still use must re-solve warm —
     and land on the cold optimum. *)
  let stats = Engine.Stats.create () in
  let d = make_daemon ~stats () in
  let g, _, _ = Lazy.force fixture in
  let change (dm : Network.demand) size =
    Printf.sprintf
      "{\"ev\":\"delta\",\"changes\":[{\"src\":%d,\"dst\":%d,\"size\":%.17g}]}"
      dm.Network.src dm.Network.dst size
  in
  let _, demands, _ = Serve.Daemon.state d in
  ignore (must_respond d (change demands.(0) (1.1 *. demands.(0).Network.size)));
  Alcotest.(check int) "first update solves cold" 0 stats.Engine.Stats.lp_warm_solves;
  let _, demands, _ = Serve.Daemon.state d in
  let shares_dst (dm : Network.demand) =
    Array.exists
      (fun (o : Network.demand) ->
        o.Network.dst = dm.Network.dst && o.Network.src <> dm.Network.src)
      demands
  in
  let victim =
    match List.find_opt shares_dst (Array.to_list demands) with
    | Some dm -> dm
    | None -> Alcotest.fail "fixture has no shared destination"
  in
  let r = must_respond d (change victim 0.) in
  Alcotest.(check int) "one pair fewer" (Array.length demands - 1)
    (int_field "demands" r);
  Alcotest.(check int) "pair removal solves warm" 1 stats.Engine.Stats.lp_warm_solves;
  let _, demands, _ = Serve.Daemon.state d in
  let cold = (Mcf.opt_mlu_lp g demands).Mcf.value in
  let warm = float_field "lp_bound" r in
  Alcotest.(check bool)
    (Printf.sprintf "warm %.17g = cold %.17g" warm cold)
    true
    (abs_float (warm -. cold) <= 1e-9 *. abs_float cold)

(* [lp_every = 0] turns the bound off: no update and no resolve solves
   an LP, and every response carries a null bound. *)
let test_daemon_lp_off () =
  let stats = Engine.Stats.create () in
  let d = make_daemon ~stats ~cfg_f:(fun c -> { c with lp_every = 0 }) () in
  let _, demands, _ = Serve.Daemon.state d in
  let dm = demands.(0) in
  List.iter
    (fun line ->
      let r = must_respond d line in
      Alcotest.(check string) "ok" "ok" (str_field "status" r);
      Alcotest.(check bool) ("null bound: " ^ line) true
        (field "lp_bound" r = Serve.Sjson.Null))
    [
      Printf.sprintf
        "{\"ev\":\"delta\",\"changes\":[{\"src\":%d,\"dst\":%d,\"size\":%.17g}]}"
        dm.Network.src dm.Network.dst (1.5 *. dm.Network.size);
      "{\"ev\":\"resolve\"}";
      "{\"ev\":\"report\"}";
    ];
  Alcotest.(check int) "no LP solved" 0 stats.Engine.Stats.lp_solves

(* The [misnested] count in the [trace/1] header written for [t]. *)
let misnested t =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Export.write_trace ~path t;
  match In_channel.with_open_text path In_channel.input_line with
  | None -> None
  | Some header ->
    Option.bind (Result.to_option (Serve.Sjson.parse header)) (fun j ->
        Option.bind (Serve.Sjson.member "misnested" j) Serve.Sjson.to_int)

let test_daemon_lp_spans () =
  (* A traced update with an LP readout shows the simplex's own spans
     under one serve:lp span, so the readout's cost is attributed like
     every other layer, and that span says how the readout was solved:
     the first one builds the LP and solves it cold, the next re-solves
     the kept LP warm. *)
  let tracer = Obs.Tracer.create () in
  let d = make_daemon ~tracer () in
  let _, demands, _ = Serve.Daemon.state d in
  let dm = demands.(0) in
  let scale f =
    must_respond d
      (Printf.sprintf
         "{\"ev\":\"delta\",\"changes\":[{\"src\":%d,\"dst\":%d,\"size\":%.17g}]}"
         dm.Network.src dm.Network.dst (f *. dm.Network.size))
  in
  let r = scale 1.2 in
  Alcotest.(check bool) "update carries an LP readout" true
    (float_field "lp_bound" r > 0.);
  ignore (scale 0.7);
  let spans = Obs.Tracer.spans tracer in
  let names = List.map (fun sp -> sp.Obs.Span.name) spans in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span recorded") true (List.mem name names))
    [ "lp:solve"; "lp:factor" ];
  let lp_spans = List.filter (fun sp -> sp.Obs.Span.name = "serve:lp") spans in
  Alcotest.(check int) "one serve:lp span per readout" 2 (List.length lp_spans);
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Obs.Span.id sp) spans;
  List.iter
    (fun sp ->
      if sp.Obs.Span.name = "lp:solve" then
        match Hashtbl.find_opt by_id sp.Obs.Span.parent with
        | Some parent ->
          Alcotest.(check string) "lp:solve nests in serve:lp" "serve:lp"
            parent.Obs.Span.name
        | None -> Alcotest.fail "lp:solve is a root span")
    spans;
  let attrs sp =
    let a k = List.assoc_opt k sp.Obs.Span.attrs in
    match (a "pivots", a "path", a "rebuilt") with
    | Some (Obs.Attr.Int pv), Some (Obs.Attr.Str path), Some (Obs.Attr.Bool rb) ->
      Alcotest.(check bool) "pivots non-negative" true (pv >= 0);
      (path, rb)
    | _ -> Alcotest.fail "serve:lp lacks pivots/path/rebuilt"
  in
  (match List.map attrs lp_spans with
  | [ (p1, r1); (p2, r2) ] ->
    Alcotest.(check (pair string bool)) "first readout" ("cold", true) (p1, r1);
    Alcotest.(check (pair string bool)) "second readout" ("primal", false) (p2, r2)
  | _ -> assert false);
  Alcotest.(check (option int)) "well nested" (Some 0) (misnested tracer)

let test_daemon_quit () =
  let d = make_daemon () in
  let r = must_respond d "{\"ev\":\"quit\"}" in
  Alcotest.(check string) "quit ok" "ok" (str_field "status" r);
  Alcotest.(check bool) "finished" true (Serve.Daemon.finished d);
  Alcotest.(check bool) "lines after quit ignored" true
    (Serve.Daemon.handle_line d "{\"ev\":\"report\"}" = None)

let test_replay_generator () =
  (* Deterministic, delta-only except reports, ends with quit. *)
  let lines = replay_lines () in
  let lines' = replay_lines () in
  Alcotest.(check bool) "regeneration identical" true (lines = lines');
  let g = Lazy.force abilene in
  List.iteri
    (fun i l ->
      match Serve.Event.parse g l with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "replay line %d unparseable: %s" i e)
    lines;
  match List.rev lines with
  | last :: _ ->
    Alcotest.(check bool) "ends with quit" true
      (Serve.Event.parse g last = Ok Serve.Event.Quit)
  | [] -> Alcotest.fail "empty replay"

let () =
  Alcotest.run "serve"
    [
      ( "sjson",
        [
          Alcotest.test_case "roundtrip" `Quick test_sjson_roundtrip;
          Alcotest.test_case "deterministic render" `Quick
            test_sjson_render_deterministic;
          Alcotest.test_case "errors" `Quick test_sjson_errors;
        ] );
      ( "events",
        [
          Alcotest.test_case "parse" `Quick test_event_parse;
          Alcotest.test_case "rejects" `Quick test_event_rejects;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "robust to garbage" `Quick
            test_daemon_robust_to_garbage;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_daemon_deterministic_across_jobs;
          Alcotest.test_case "deadline floor" `Quick test_daemon_deadline_floor;
          Alcotest.test_case "churn budget" `Quick test_daemon_churn_budget;
          Alcotest.test_case "link flap" `Quick test_daemon_link_flap;
          Alcotest.test_case "set-matrix and delta-remove" `Quick
            test_daemon_set_matrix_and_delta_remove;
          Alcotest.test_case "LP warm across pair removal" `Quick
            test_daemon_lp_warm_by_destination;
          Alcotest.test_case "LP readout spans" `Quick test_daemon_lp_spans;
          Alcotest.test_case "LP off at lp_every 0" `Quick test_daemon_lp_off;
          Alcotest.test_case "quit" `Quick test_daemon_quit;
        ] );
      ( "replay",
        [ Alcotest.test_case "generator" `Quick test_replay_generator ] );
    ]
