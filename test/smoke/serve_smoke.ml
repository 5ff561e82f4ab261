(* Serving smoke: a 50-event diurnal + flash-crowd replay on Abilene
   through the daemon must (1) answer every event with a schema-valid
   serve/1 line carrying the right sequence number, (2) improve on the
   incumbent at least once (the stream is not a no-op), (3) never
   deploy a setting worse than the incumbent, and (4) emit the same
   bytes across pool sizes.  Run with `dune build @serve-smoke'. *)

open Te

let mismatches = ref 0

let check name ok =
  if ok then Printf.printf "  ok   %s\n%!" name
  else begin
    incr mismatches;
    Printf.printf "  FAIL %s\n%!" name
  end

(* Exactly 50 events: 49 drift/report lines plus a trailing quit. *)
let event_lines demands =
  let replay =
    {
      Scenario.default_replay with
      Scenario.replay_seed = 2;
      steps = 60;
      report_every = 10;
      quit = false;
    }
  in
  let lines = Scenario.replay_events replay demands in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take 49 lines @ [ "{\"ev\":\"quit\"}" ]

let drive pool g demands weights lines =
  let ctx = Obs.Ctx.make ~stats:(Engine.Stats.create ()) ~pool () in
  let cfg =
    {
      Serve.Daemon.default_config with
      deadline_ms = -1.;
      timings = false;
      seed = 2;
    }
  in
  let d =
    Serve.Daemon.create ctx cfg ~deployed_weights:weights
      ~deployed_waypoints:(Segments.none demands) g demands
  in
  let rs = List.filter_map (fun l -> Serve.Daemon.handle_line d l) lines in
  (d, rs)

let () =
  let g = Topology.Datasets.abilene () in
  let flows = max 2 (Netgraph.Digraph.edge_count g / 16) in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:flows g
  in
  let weights =
    Weights.round_to_range ~wmax:16 (Weights.inverse_capacity g)
  in
  let lines = event_lines demands in
  Printf.printf "serve smoke: Abilene, %d demands, %d events\n%!"
    (Array.length demands) (List.length lines);
  check "replay is 50 events" (List.length lines = 50);
  let d, responses = drive Par.Pool.sequential g demands weights lines in
  check "one response per event" (List.length responses = List.length lines);
  let schema_ok = ref true and seq_ok = ref true and status_ok = ref true in
  let never_worse = ref true in
  List.iteri
    (fun i r ->
      match Serve.Sjson.parse r with
      | Error _ -> schema_ok := false
      | Ok v ->
        let str name =
          Option.bind (Serve.Sjson.member name v) Serve.Sjson.to_string
        in
        let num name =
          Option.bind (Serve.Sjson.member name v) Serve.Sjson.to_float
        in
        if str "schema" <> Some "serve/1" then schema_ok := false;
        if num "seq" <> Some (float_of_int i) then seq_ok := false;
        if str "status" <> Some "ok" then status_ok := false;
        (match (num "mlu_before", num "mlu_after") with
        | Some b, Some a -> if a > b +. 1e-12 then never_worse := false
        | _ -> ()))
    responses;
  check "every response parses with schema serve/1" !schema_ok;
  check "sequence numbers echo line order" !seq_ok;
  check "no errors on a clean replay" !status_ok;
  check "never deploys worse than the incumbent" !never_worse;
  let s = Serve.Daemon.summary d in
  check "nonzero improvement" (s.Serve.Daemon.improved > 0);
  check "daemon reached quit" (Serve.Daemon.finished d);
  let par =
    Par.Pool.with_pool ~jobs:3 (fun pool ->
        snd (drive pool g demands weights lines))
  in
  check "byte-identical across pool sizes" (responses = par);
  if !mismatches > 0 then begin
    Printf.printf "serve smoke: %d failure(s)\n" !mismatches;
    exit 1
  end;
  Printf.printf "serve smoke: all checks passed\n"
