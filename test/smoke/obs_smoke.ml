(* Observability smoke: the run-context API end to end on Abilene —
   traced HeurOSPF + scenario sweep, trace well-formedness, jobs
   invariance of the exported trace, ctx equivalence, and a
   run-summary sanity check.  Run with `dune build @obs-smoke'. *)

open Te

let mismatches = ref 0

let check name ok =
  if ok then Printf.printf "  ok   %s\n%!" name
  else begin
    incr mismatches;
    Printf.printf "  FAIL %s\n%!" name
  end

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The [trace/1] stream [Obs.Export.write_trace] writes for [t]. *)
let trace_lines ?times t =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Export.write_trace ?times ~path t;
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let () =
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g
  in
  let params = { Local_search.default_params with max_evals = 300; seed = 7 } in
  Printf.printf "obs smoke: Abilene, %d demands\n%!" (Array.length demands);
  (* Traced run: phases + solver spans, well-formed, full phase coverage. *)
  let tracer = Obs.Tracer.create () in
  let ctx = Obs.Ctx.make ~tracer () in
  let r =
    Obs.Ctx.phase ctx "solve" (fun () ->
        Local_search.optimize_ctx ctx ~restarts:2 ~params g demands)
  in
  check "traced solve returns a finite MLU" (Float.is_finite r.Local_search.mlu);
  check "spans recorded" (Obs.Tracer.span_count tracer > 0);
  check "no spans dropped" (Obs.Tracer.dropped tracer = 0);
  check "no misnesting"
    (contains ~sub:"\"misnested\": 0" (List.hd (trace_lines tracer)));
  check "phase totals name the phase"
    (List.map fst (Obs.Tracer.phase_totals tracer) = [ "solve" ]);
  (* An untraced context agrees with the traced run. *)
  let plain = Local_search.optimize_ctx (Obs.Ctx.make ()) ~restarts:2 ~params g demands in
  check "tracing changes nothing" (plain = r);
  (* Exported trace is byte-identical across pool sizes. *)
  let trace jobs =
    let go pool =
      let t = Obs.Tracer.create () in
      ignore
        (Local_search.optimize_ctx
           (Obs.Ctx.make ~tracer:t ~pool ())
           ~restarts:2 ~params g demands);
      trace_lines ~times:false t
    in
    if jobs = 1 then go Par.Pool.sequential else Par.Pool.with_pool ~jobs go
  in
  check "trace byte-identical jobs 1 vs 4" (trace 1 = trace 4);
  (* Run summary of the traced run. *)
  let summary = Obs.Export.run_summary ctx in
  check "summary schema" (contains ~sub:"\"schema\": \"run-summary/3\"" summary);
  check "summary phases" (contains ~sub:"\"solve\"" summary);
  check "summary engine counters"
    (contains ~sub:"\"engine.evaluations\"" summary);
  (* Scenario sweep under a forked-children trace. *)
  let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params:params g demands in
  let deployed =
    { Scenario.weights = joint.Joint.int_weights;
      Scenario.waypoints = joint.Joint.waypoints }
  in
  let specs =
    Scenario.generate { Scenario.default_config with Scenario.seed = 3 } g
  in
  let sweep jobs =
    let go pool =
      let t = Obs.Tracer.create () in
      let sctx = Obs.Ctx.make ~tracer:t ~pool () in
      let out = Scenario.sweep_ctx sctx ~deployed g demands specs in
      (out, trace_lines ~times:false t,
       Engine.Stats.counters sctx.Obs.Ctx.stats)
    in
    if jobs = 1 then go Par.Pool.sequential else Par.Pool.with_pool ~jobs go
  in
  let out1, tr1, m1 = sweep 1 in
  let out4, tr4, m4 = sweep 4 in
  check "sweep results bit-identical jobs 1 vs 4" (compare out1 out4 = 0);
  check "sweep trace byte-identical jobs 1 vs 4" (tr1 = tr4);
  check "sweep counters identical jobs 1 vs 4" (m1 = m4);
  check "sweep counts every case"
    (List.length
       (List.filter (contains ~sub:"\"name\": \"scn:case\"") tr1)
     = Array.length specs);
  if !mismatches > 0 then begin
    Printf.printf "obs smoke: %d mismatch(es)\n" !mismatches;
    exit 1
  end;
  print_endline "obs smoke: tracing is deterministic and changes no result"
