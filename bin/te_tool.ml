(* te-tool: command-line front end for the joint link-weight and segment
   optimization library.

     te-tool topos                       list bundled topologies
     te-tool mlu -t Abilene -w invcap    MLU of a standard weight setting
     te-tool lwo -t Germany50            HeurOSPF link-weight optimization
     te-tool wpo -t Abilene -w invcap    GreedyWPO waypoints
     te-tool joint -t Abilene            JOINT-Heur (Algorithm 2)
     te-tool gap -i 1 -m 16              gap summary of a paper instance
     te-tool lwo-apx -i 3 -m 6           Algorithm 1 on a paper instance
     te-tool nanonet                     the Figure 7 experiment
     te-tool robust -t Abilene           robustness sweep (failures x shifts x policies)

   Topologies may also be read from SNDLib (XML or native) or GraphML
   files with --file. *)

open Cmdliner
open Te

(* Returns the graph plus any demand matrix carried by the file. *)
let load_topology name file =
  match file with
  | Some path ->
    if Filename.check_suffix path ".graphml" || Filename.check_suffix path ".gml"
    then (Topology.Graphml.load_file path, [])
    else
      let t = Topology.Sndlib.load_file path in
      (t.Topology.Sndlib.graph, t.Topology.Sndlib.demands)
  | None -> (
    try (Topology.Datasets.load name, [])
    with Not_found ->
      Printf.eprintf "unknown topology %S; try `te-tool topos'\n" name;
      exit 2)

let load_graph name file = fst (load_topology name file)

(* A count option below its minimum is a usage error: exit 2 with a
   message, not an uncaught [Invalid_argument] from deep inside a
   solver. *)
let at_least min flag v =
  if v < min then begin
    Printf.eprintf "--%s must be >= %d\n" flag min;
    exit 2
  end

let make_demands ?(file_demands = []) g ~seed ~kind ~flows =
  at_least 1 "flows" flows;
  match (kind, file_demands) with
  | "file", [] ->
    Printf.eprintf "--demands file requires an SNDLib file with a DEMANDS section\n";
    exit 2
  | "file", ds ->
    (* The file's own matrix, MCF-rescaled so OPT = 1 like the paper. *)
    let demands =
      List.filter_map
        (fun (s, t, v) ->
          match
            ( Netgraph.Digraph.node_of_name g s,
              Netgraph.Digraph.node_of_name g t )
          with
          | exception Not_found -> None
          | s, t when s <> t && v > 0. -> Some (Network.demand s t v)
          | _ -> None)
        ds
      |> Array.of_list
    in
    Demand_gen.scale_to_opt g demands
  | "mcf", _ -> Demand_gen.mcf_synthetic ~seed ~flows_per_pair:flows g
  | "gravity", _ -> Demand_gen.gravity ~seed ~flows_per_pair:flows g
  | other, _ ->
    Printf.eprintf "unknown demand kind %S (mcf|gravity|file)\n" other;
    exit 2

let weights_of g = function
  | "unit" -> Weights.unit g
  | "invcap" -> Weights.inverse_capacity g
  | other ->
    Printf.eprintf "unknown weight setting %S (unit|invcap)\n" other;
    exit 2

(* Shared options *)
let topo_arg =
  Arg.(value & opt string "Abilene" & info [ "t"; "topology" ] ~docv:"NAME"
         ~doc:"Bundled topology name (see `te-tool topos').")

let file_arg =
  Arg.(value & opt (some file) None & info [ "file" ] ~docv:"PATH"
         ~doc:"Load the topology from an SNDLib (XML/native) or GraphML file.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed for demand generation.")

let demands_arg =
  Arg.(value & opt string "mcf" & info [ "demands" ] ~docv:"KIND"
         ~doc:"Demand generator: mcf (Figure 4 style), gravity (Figure 6 \
               style), or file (the SNDLib file's own matrix, MCF-rescaled).")

let flows_arg =
  Arg.(value & opt int 2 & info [ "flows" ] ~doc:"Sub-flows per demand pair.")

let weights_arg =
  Arg.(value & opt string "invcap" & info [ "w"; "weights" ] ~docv:"SETTING"
         ~doc:"Weight setting: unit or invcap.")

let evals_arg =
  Arg.(value & opt int 1500 & info [ "evals" ] ~doc:"Local-search evaluation budget.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print the per-phase wall times and the run's counters \
               after the run: the engine counters and timers \
               (evaluations, full vs. incremental SPF rebuilds, cache \
               hits), the solver counters (local-search rounds, \
               scored waypoint candidates, branch-and-bound nodes) \
               and the scheduler's, nonzero ones only, under the names \
               run-summary/3 exports.  serve reports its event counts \
               and update latencies on its stderr summary line \
               instead.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the --restarts walks and the scenario \
               sweeps.  The result is bit-identical for every N; only \
               the wall time changes.")

let restarts_arg =
  Arg.(value & opt int 1 & info [ "restarts" ] ~docv:"N"
         ~doc:"Independent reseeded local-search walks run in parallel; \
               the best-MLU walk wins.  1 reproduces the historical \
               single walk.")

(* Runs [f] inside a pool of [jobs] worker domains.  jobs = 1 uses the
   shared sequential pool, so no domain is ever spawned. *)
let with_pool jobs f =
  at_least 1 "jobs" jobs;
  if jobs = 1 then f Par.Pool.sequential else Par.Pool.with_pool ~jobs f

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
         ~doc:"Write the run's span stream (schema trace/1, one JSON \
               object per line) to $(docv).")

let summary_arg =
  Arg.(value & flag & info [ "summary" ]
         ~doc:"Print a run-summary/3 JSON digest after the run: per-phase \
               wall time, the engine and solver counters, parallel \
               efficiency.")

(* One run context per CLI invocation: the worker pool from --jobs, and
   a live tracer exactly when --stats/--trace/--summary needs one
   (otherwise the noop tracer, whose probes cost one load+branch).  [f]
   solves and prints its result; the phase times and counters, the trace
   file and the summary follow in that order. *)
let with_ctx ~jobs ~stats ~trace ~summary f =
  let tracer =
    if stats || trace <> None || summary then Obs.Tracer.create ()
    else Obs.Tracer.noop
  in
  let ctx, wall =
    with_pool jobs (fun pool ->
        let ctx = Obs.Ctx.make ~tracer ~pool () in
        let t0 = Engine.Mono.now () in
        f ctx;
        (ctx, Engine.Mono.now () -. t0))
  in
  if stats then begin
    List.iter
      (fun (name, dt) -> Printf.printf "phase %-22s %.6f s\n" name dt)
      (Obs.Tracer.phase_totals tracer);
    Format.printf "%a@." Obs.Export.pp_metrics (Obs.Export.run_metrics ctx)
  end;
  (match trace with
  | Some path ->
    Obs.Export.write_trace ~path tracer;
    Printf.printf "wrote %s\n" path
  | None -> ());
  if summary then print_string (Obs.Export.run_summary ~wall ctx)

let m_arg =
  Arg.(value & opt int 8 & info [ "m" ] ~doc:"Size parameter of the paper instance.")

let instance_arg =
  Arg.(value & opt int 1 & info [ "i"; "instance" ] ~doc:"Paper TE-Instance number (1-5).")

let instance_of i m =
  match i with
  | 1 -> Instances.Gap_instances.instance1 ~m
  | 2 -> Instances.Gap_instances.instance2 ~m
  | 3 -> Instances.Gap_instances.instance3 ~m
  | 4 -> Instances.Gap_instances.instance4 ~m
  | 5 -> Instances.Gap_instances.instance5 ~m
  | _ ->
    Printf.eprintf "instance must be 1-5\n";
    exit 2

(* topos *)
let topos_cmd =
  let run () =
    Printf.printf "%-14s %6s %6s %s\n" "name" "nodes" "links" "kind";
    List.iter
      (fun i ->
        Printf.printf "%-14s %6d %6d %s\n" i.Topology.Datasets.name
          i.Topology.Datasets.nodes i.Topology.Datasets.links
          (match i.Topology.Datasets.kind with
          | Topology.Datasets.Embedded -> "embedded (real structure)"
          | Topology.Datasets.Synthetic -> "synthetic stand-in"))
      Topology.Datasets.all
  in
  Cmd.v (Cmd.info "topos" ~doc:"List the bundled topologies")
    Term.(const run $ const ())

(* mlu *)
let mlu_cmd =
  let run topo file seed kind flows wsetting =
    let g, file_demands = load_topology topo file in
    let demands = make_demands ~file_demands g ~seed ~kind ~flows in
    let w = weights_of g wsetting in
    let mlu = Ecmp.mlu_of g w demands in
    Printf.printf "topology %s: %d nodes, %d edges, %d demands\n" topo
      (Netgraph.Digraph.node_count g) (Netgraph.Digraph.edge_count g)
      (Array.length demands);
    Printf.printf "MLU under %s weights: %.4f (demands scaled so OPT = 1)\n"
      wsetting mlu
  in
  Cmd.v (Cmd.info "mlu" ~doc:"Evaluate the MLU of a standard weight setting")
    Term.(const run $ topo_arg $ file_arg $ seed_arg $ demands_arg $ flows_arg
          $ weights_arg)

(* The optimizer table: each entry pairs a Solver.t's solve, applied
   to the config from its own flags, with a printer in the command's
   historical output format.  The shared driver below loads,
   generates demands and solves under one run context, with each phase
   recorded for --trace/--summary. *)

let print_lwo _g _demands (r : Solver.result) =
  Printf.printf "HeurOSPF: MLU %.4f -> %.4f (%d evaluations)\n"
    r.Solver.initial_mlu r.Solver.mlu r.Solver.evals;
  match r.Solver.weights with
  | Some w ->
    Printf.printf "weights:";
    Array.iteri
      (fun e wv ->
        if e < 20 then Printf.printf " %d" wv
        else if e = 20 then Printf.printf " ...")
      w;
    print_newline ()
  | None -> ()

let waypoints_in (r : Solver.result) =
  Option.fold ~none:0 ~some:Segments.count_waypoints r.Solver.waypoints

let print_wpo wsetting _g demands (r : Solver.result) =
  Printf.printf
    "GreedyWPO under %s weights: MLU %.4f -> %.4f (%d/%d demands got a waypoint)\n"
    wsetting r.Solver.initial_mlu r.Solver.mlu (waypoints_in r)
    (Array.length demands)

(* The stage trail and the final MLU, left open for a suffix. *)
let print_stages (r : Solver.result) =
  List.iter
    (fun (stage, mlu) -> Printf.printf "%-12s MLU %.4f\n" stage mlu)
    r.Solver.stages;
  Printf.printf "final        MLU %.4f" r.Solver.mlu

let print_joint _g _demands r =
  print_stages r;
  Printf.printf " (%d waypoints in use)\n" (waypoints_in r)

let run_solver (solve, print) topo file seed kind flows jobs stats trace
    summary =
  with_ctx ~jobs ~stats ~trace ~summary (fun ctx ->
      let g, file_demands =
        Obs.Ctx.phase ctx "load" (fun () -> load_topology topo file)
      in
      let demands =
        Obs.Ctx.phase ctx "demands" (fun () ->
            make_demands ~file_demands g ~seed ~kind ~flows)
      in
      let r =
        Obs.Ctx.phase ctx "solve" (fun () -> solve ctx g demands)
      in
      print g demands r)

let solver_cmd (name, doc, conf_term) =
  Cmd.v (Cmd.info name ~doc)
    Term.(const run_solver $ conf_term $ topo_arg $ file_arg $ seed_arg
          $ demands_arg $ flows_arg $ jobs_arg $ stats_arg $ trace_arg
          $ summary_arg)

let full_pipeline_arg =
  Arg.(value & flag & info [ "full-pipeline" ]
         ~doc:"Run Algorithm 2 steps 3-4 (split demands, re-optimize weights).")

let prune_arg =
  Arg.(value & opt (some int) None & info [ "prune" ] ~docv:"K"
         ~doc:"Prune the waypoint candidate scan: keep a pool of K \
               centrality-scored middlepoints and cap each demand's \
               candidate list at K (a non-positive K selects the built-in \
               default).  Off when omitted — results are then \
               byte-identical to runs without the flag.")

let prune_spec_of = function
  | None -> None
  | Some k -> Some (Prune.spec (if k <= 0 then Prune.default_k else k))

let passes_arg =
  Arg.(value & opt int 1 & info [ "passes" ] ~docv:"N"
         ~doc:"Greedy waypoint passes: later passes revisit every demand \
               and may reassign or drop its waypoint.")

(* The shared solver configuration, one term for every algorithm
   command: each solver reads only the fields its algorithm uses. *)
let config_term =
  Term.(const (fun seed evals restarts passes full_pipeline prune wsetting ->
            at_least 1 "evals" evals;
            at_least 1 "restarts" restarts;
            at_least 1 "passes" passes;
            {
              Solver.seed;
              evals;
              restarts;
              passes;
              full_pipeline;
              prune = prune_spec_of prune;
              weights = (fun g -> weights_of g wsetting);
            })
        $ seed_arg $ evals_arg $ restarts_arg $ passes_arg $ full_pipeline_arg
        $ prune_arg $ weights_arg)

(* Every algorithm command resolves its solver through the registry —
   the historical lwo/wpo/joint commands are aliases for `solve --alg'
   with their historical printers. *)
let solver_of_alg alg config =
  match Solver.find alg with
  | Some s -> Solver.solve s config
  | None ->
    Printf.eprintf "unknown algorithm %S; try `te-tool list-algs'\n" alg;
    exit 2

let print_generic _g _demands (r : Solver.result) =
  print_stages r;
  if Float.is_finite r.Solver.initial_mlu then
    Printf.printf " (start %.4f)" r.Solver.initial_mlu;
  if r.Solver.evals > 0 then Printf.printf "; %d evaluations" r.Solver.evals;
  if r.Solver.waypoints <> None then
    Printf.printf "; %d waypoints" (waypoints_in r);
  (match r.Solver.splits with
  | Some a ->
    let split =
      Array.fold_left (fun acc x -> if x < 1. then acc + 1 else acc) 0 a
    in
    Printf.printf "; %d/%d demands split onto the second system" split
      (Array.length a)
  | None -> ());
  print_newline ()

let alg_arg_of_solve =
  Arg.(value & opt string "joint" & info [ "alg" ] ~docv:"NAME"
         ~doc:"Registered solver to run (see `te-tool list-algs').")

let solver_cmds =
  let alias alg print =
    Term.(const (fun cfg -> (solver_of_alg alg cfg, print)) $ config_term)
  in
  List.map solver_cmd
    [ ("lwo", "Link-weight optimization (HeurOSPF local search)",
       alias "lwo" print_lwo);
      ("wpo", "Waypoint optimization (Algorithm 3, GreedyWPO)",
       Term.(const (fun cfg wsetting ->
                 (solver_of_alg "wpo" cfg, print_wpo wsetting))
             $ config_term $ weights_arg));
      ("joint", "Joint optimization (Algorithm 2, JOINT-Heur)",
       alias "joint" print_joint);
      ("solve", "Run any registered solver (--alg NAME)",
       Term.(const (fun alg cfg -> (solver_of_alg alg cfg, print_generic))
             $ alg_arg_of_solve $ config_term)) ]

let list_algs_cmd =
  let run () =
    List.iter
      (fun s -> Printf.printf "%-10s %s\n" s.Solver.name s.Solver.doc)
      Solver.all
  in
  Cmd.v
    (Cmd.info "list-algs" ~doc:"List the registered solver algorithms")
    Term.(const run $ const ())

(* gap *)
let gap_cmd =
  let run i m =
    let inst = instance_of i m in
    let net = inst.Instances.Gap_instances.network in
    let g = net.Network.graph in
    Printf.printf "%s: %d nodes, %d edges, %d demands (total %.3f)\n"
      inst.Instances.Gap_instances.name (Netgraph.Digraph.node_count g)
      (Netgraph.Digraph.edge_count g)
      (Array.length net.Network.demands)
      (Network.total_demand net);
    let joint =
      Ecmp.mlu_of ~waypoints:inst.Instances.Gap_instances.joint_waypoints g
        inst.Instances.Gap_instances.joint_weights net.Network.demands
    in
    Printf.printf "Joint (lemma construction)  MLU %.4f (predicted %.4f)\n" joint
      inst.Instances.Gap_instances.predicted_joint_mlu;
    (match inst.Instances.Gap_instances.lwo_weights with
    | Some w ->
      let lwo = Ecmp.mlu_of g w net.Network.demands in
      Printf.printf "LWO (optimal weights)       MLU %.4f" lwo;
      (match inst.Instances.Gap_instances.predicted_lwo_mlu with
      | Some p -> Printf.printf " (predicted %.4f)" p
      | None -> ());
      Printf.printf "  -> gap %.2f\n" (lwo /. joint)
    | None -> ());
    let wpo =
      Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g (Weights.unit g)
        net.Network.demands
    in
    Printf.printf "WPO greedy (unit weights)   MLU %.4f  -> gap %.2f\n"
      wpo.Greedy_wpo.mlu (wpo.Greedy_wpo.mlu /. joint)
  in
  Cmd.v (Cmd.info "gap" ~doc:"Optimality-gap summary of a paper TE instance")
    Term.(const run $ instance_arg $ m_arg)

(* lwo-apx *)
let lwo_apx_cmd =
  let run i m =
    let inst = instance_of i m in
    let g = inst.Instances.Gap_instances.network.Network.graph in
    let r =
      Lwo_apx.solve g ~source:inst.Instances.Gap_instances.source
        ~target:inst.Instances.Gap_instances.target
    in
    Printf.printf "LWO-APX on %s:\n" inst.Instances.Gap_instances.name;
    Printf.printf "  max (s,t)-flow       %.4f\n" r.Lwo_apx.max_flow_value;
    Printf.printf "  realized ES-flow     %.4f\n" r.Lwo_apx.es_flow_value;
    Printf.printf "  approximation ratio  %.4f (Theorem 5.4 bound: n ln n = %.1f)\n"
      (Lwo_apx.approximation_ratio r)
      (let n = float_of_int (Netgraph.Digraph.node_count g) in
       n *. log n)
  in
  Cmd.v
    (Cmd.info "lwo-apx"
       ~doc:"Run Algorithm 1 (approximate LWO) on a paper TE instance")
    Term.(const run $ instance_arg $ m_arg)

(* nanonet *)
let nanonet_cmd =
  let run trials streams =
    let s = Netsim.Nanonet.run ~trials ~streams_per_demand:streams () in
    List.iteri
      (fun i t ->
        Printf.printf "trial %-2d  Joint %.4f  Weights %.4f\n" (i + 1)
          t.Netsim.Nanonet.joint t.Netsim.Nanonet.weights)
      s.Netsim.Nanonet.trials;
    Printf.printf "Joint median %.4f; Weights median %.4f (range %.4f-%.4f)\n"
      s.Netsim.Nanonet.joint_median s.Netsim.Nanonet.weights_median
      s.Netsim.Nanonet.weights_min s.Netsim.Nanonet.weights_max
  in
  let trials_arg = Arg.(value & opt int 10 & info [ "trials" ] ~doc:"Trials.") in
  let streams_arg =
    Arg.(value & opt int 32 & info [ "streams" ] ~doc:"Hashed streams per demand.")
  in
  Cmd.v
    (Cmd.info "nanonet" ~doc:"Hash-based ECMP validation experiment (Figure 7)")
    Term.(const run $ trials_arg $ streams_arg)

(* failures *)
let failures_cmd =
  let run topo file seed kind flows evals =
    at_least 1 "evals" evals;
    let g, file_demands = load_topology topo file in
    let demands = make_demands ~file_demands g ~seed ~kind ~flows in
    let ls_params = { Local_search.default_params with max_evals = evals; seed } in
    let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
    Printf.printf "no-failure MLU %.4f; sweeping single link-pair failures:\n"
      joint.Joint.mlu;
    let deployed =
      {
        Scenario.weights = joint.Joint.int_weights;
        Scenario.waypoints = joint.Joint.waypoints;
      }
    in
    let specs =
      Scenario.generate
        { Scenario.default_config with Scenario.include_baseline = false }
        g
    in
    Array.iter
      (fun (o : Scenario.outcome) ->
        let e = List.hd o.Scenario.spec.Scenario.failed in
        Printf.printf "  %-8s -> %-8s  %s\n"
          (Netgraph.Digraph.node_name g (Netgraph.Digraph.src g e))
          (Netgraph.Digraph.node_name g (Netgraph.Digraph.dst g e))
          (if o.Scenario.static_disconnected > 0 then
             Printf.sprintf "disconnects %d demands" o.Scenario.static_disconnected
           else Printf.sprintf "MLU %.4f" o.Scenario.static_mlu))
      (Scenario.sweep_ctx (Obs.Ctx.make ()) ~deployed g demands specs)
  in
  Cmd.v
    (Cmd.info "failures" ~doc:"Single-link-failure sweep of an optimized setting")
    Term.(const run $ topo_arg $ file_arg $ seed_arg $ demands_arg $ flows_arg
          $ evals_arg)

(* robust *)
let robust_cmd =
  let run topo file seed kind flows evals jobs stats trace summary policies_s
      dual scales_s jitter hotspots diurnal cross reopt_evals out =
    at_least 1 "evals" evals;
    let policies =
      try Scenario.policies_of_string policies_s
      with Invalid_argument m ->
        Printf.eprintf "%s\n" m;
        exit 2
    in
    let scales =
      if scales_s = "" then []
      else
        List.map
          (fun s ->
            match float_of_string_opt (String.trim s) with
            | Some f -> f
            | None ->
              Printf.eprintf "bad scale factor %S\n" s;
              exit 2)
          (String.split_on_char ',' scales_s)
    in
    with_ctx ~jobs ~stats ~trace ~summary (fun ctx ->
        let g, file_demands =
          Obs.Ctx.phase ctx "load" (fun () -> load_topology topo file)
        in
        let demands =
          Obs.Ctx.phase ctx "demands" (fun () ->
              make_demands ~file_demands g ~seed ~kind ~flows)
        in
        (* Deploy a JOINT-Heur setting, then stress it. *)
        let ls_params =
          { Local_search.default_params with max_evals = evals; seed }
        in
        let joint =
          Obs.Ctx.phase ctx "deploy" (fun () ->
              Joint.optimize_ctx ctx ~ls_params g demands)
        in
        let deployed =
          {
            Scenario.weights = joint.Joint.int_weights;
            Scenario.waypoints = joint.Joint.waypoints;
          }
        in
        let nominal_mlu =
          Ecmp.mlu_of ~waypoints:deployed.Scenario.waypoints g
            (Weights.of_ints deployed.Scenario.weights)
            demands
        in
        let cfg =
          {
            Scenario.default_config with
            Scenario.seed;
            Scenario.dual_failures = dual;
            Scenario.scales = scales;
            Scenario.jitters = jitter;
            Scenario.hotspots = hotspots;
            Scenario.diurnal = diurnal;
            Scenario.cross = cross;
          }
        in
        let specs = Scenario.generate cfg g in
        let outcomes =
          Obs.Ctx.phase ctx "sweep" (fun () ->
              Scenario.sweep_ctx ctx ~policies ~reopt_evals ~deployed g demands
                specs)
        in
        let report = Scenario.summarize ~topology:topo ~nominal_mlu outcomes in
        let json = Scenario.report_to_json g report in
        match out with
        | Some path ->
          let oc = open_out path in
          output_string oc json;
          output_char oc '\n';
          close_out oc;
          Printf.printf "deployed MLU %.4f; %d scenarios\n" nominal_mlu
            (Array.length specs);
          List.iter
            (fun s ->
              Printf.printf
                "%-12s worst %7.4f  mean %7.4f  p95 %7.4f  disconnected %d/%d\n"
                (Scenario.policy_name s.Scenario.policy)
                s.Scenario.worst_mlu s.Scenario.mean_mlu s.Scenario.p95
                s.Scenario.disconnected_scenarios s.Scenario.scenarios)
            report.Scenario.summaries;
          Printf.printf "wrote %s\n" path
        | None -> print_endline json)
  in
  let policies_arg =
    Arg.(value & opt string "static" & info [ "policies" ] ~docv:"LIST"
           ~doc:"Comma-separated reaction policies: static, repair \
                 (re-run GreedyWPO on the surviving topology), and/or \
                 reweight:K (re-optimize at most K link weights).")
  in
  let dual_arg =
    Arg.(value & opt int 0 & info [ "dual" ] ~docv:"N"
           ~doc:"Sample N distinct dual-failure scenarios (pairs of \
                 single-failure cases).")
  in
  let scales_arg =
    Arg.(value & opt string "" & info [ "scales" ] ~docv:"F,F,..."
           ~doc:"Uniform demand scale factors to sweep, e.g. 0.8,1.2,1.5.")
  in
  let jitter_arg =
    Arg.(value & opt int 0 & info [ "jitter" ] ~docv:"N"
           ~doc:"Lognormal per-demand jitter scenarios.")
  in
  let hotspots_arg =
    Arg.(value & opt int 0 & info [ "hotspots" ] ~docv:"N"
           ~doc:"Hot-spot burst scenarios (3 demands x3 each).")
  in
  let diurnal_arg =
    Arg.(value & opt int 0 & info [ "diurnal" ] ~docv:"N"
           ~doc:"Diurnal time-of-day scenarios, evenly spaced over the day.")
  in
  let cross_arg =
    Arg.(value & flag & info [ "cross" ]
           ~doc:"Take the full failure x demand-shift product instead of \
                 varying one axis at a time.")
  in
  let reopt_evals_arg =
    Arg.(value & opt int 400 & info [ "reopt-evals" ]
           ~doc:"Per-scenario search budget of the reweight policy.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Write the JSON report to a file (and print a summary \
                 table) instead of dumping JSON to stdout.")
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Robustness sweep of an optimized setting: link failures x \
             demand shifts x reaction policies, streamed through the \
             incremental engine.  The report is bit-identical for every \
             --jobs value.")
    Term.(const run $ topo_arg $ file_arg $ seed_arg $ demands_arg $ flows_arg
          $ evals_arg $ jobs_arg $ stats_arg $ trace_arg $ summary_arg
          $ policies_arg $ dual_arg $ scales_arg $ jitter_arg $ hotspots_arg
          $ diurnal_arg $ cross_arg $ reopt_evals_arg $ out_arg)

(* exact *)
let exact_cmd =
  let run alg topo file seed kind flows wsetting i m max_nodes cold prune
      stats trace summary =
    let warm = not cold in
    let prune = prune_spec_of prune in
    with_ctx ~jobs:1 ~stats ~trace ~summary (fun ctx ->
        match alg with
        | "wpo" ->
          let g, file_demands =
            Obs.Ctx.phase ctx "load" (fun () -> load_topology topo file)
          in
          let demands =
            Obs.Ctx.phase ctx "demands" (fun () ->
                make_demands ~file_demands g ~seed ~kind ~flows)
          in
          let w = weights_of g wsetting in
          let r =
            Obs.Ctx.phase ctx "solve" (fun () ->
                Wpo_milp.solve_ctx ctx ?max_nodes ~warm ?prune g w demands)
          in
          let used =
            Array.fold_left
              (fun acc o -> if o = [] then acc else acc + 1)
              0 r.Wpo_milp.waypoints
          in
          Printf.printf
            "exact WPO (MILP, %s weights): MLU %.4f (%s; %d B&B nodes; \
             %d/%d demands got waypoints)\n"
            wsetting r.Wpo_milp.mlu
            (if r.Wpo_milp.exact then "optimal" else "node limit hit")
            r.Wpo_milp.nodes_explored used (Array.length demands)
        | "lwo" ->
          let inst = instance_of i m in
          let net = inst.Instances.Gap_instances.network in
          let r =
            Obs.Ctx.phase ctx "solve" (fun () ->
                Uspr_milp.lwo_ctx ctx ?max_nodes ~warm net.Network.graph
                  net.Network.demands)
          in
          Printf.printf "exact USPR weights (MILP) on %s: MLU %.4f (%s; %d B&B nodes)\n"
            inst.Instances.Gap_instances.name r.Uspr_milp.mlu
            (if r.Uspr_milp.exact then "optimal" else "node limit hit")
            r.Uspr_milp.nodes_explored
        | "joint" ->
          let inst = instance_of i m in
          let net = inst.Instances.Gap_instances.network in
          let r =
            Obs.Ctx.phase ctx "solve" (fun () ->
                Uspr_milp.joint_ctx ctx ?max_nodes net.Network.graph
                  net.Network.demands)
          in
          Printf.printf
            "exact joint (enumerated waypoints x weight MILP) on %s: MLU %.4f \
             (%d waypoints in use)\n"
            inst.Instances.Gap_instances.name r.Uspr_milp.setting.Uspr_milp.mlu
            (Segments.count_waypoints r.Uspr_milp.waypoints)
        | other ->
          Printf.eprintf "unknown exact algorithm %S (wpo|lwo|joint)\n" other;
          exit 2)
  in
  let alg_arg =
    Arg.(value & opt string "wpo" & info [ "alg" ] ~docv:"ALG"
           ~doc:"Exact formulation to solve: wpo (waypoint MILP on a \
                 topology), lwo (USPR weight MILP on a paper instance), or \
                 joint (waypoint enumeration x weight MILP on a paper \
                 instance).")
  in
  let exact_m_arg =
    Arg.(value & opt int 3 & info [ "m" ]
           ~doc:"Size parameter of the paper instance (lwo/joint).")
  in
  let max_nodes_arg =
    Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Branch-and-bound node budget (defaults to the \
                 formulation's own limit).")
  in
  let cold_arg =
    Arg.(value & flag & info [ "cold" ]
           ~doc:"Disable parent-basis warm starts in the branch and bound \
                 (for comparing LP effort; the result is unchanged).")
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"Exact MILP optimization (branch and bound over warm-started \
             sparse LP relaxations); --stats reports B&B nodes and LP \
             pivot effort alongside the engine counters.")
    Term.(const run $ alg_arg $ topo_arg $ file_arg $ seed_arg $ demands_arg
          $ flows_arg $ weights_arg $ instance_arg $ exact_m_arg
          $ max_nodes_arg $ cold_arg $ prune_arg $ stats_arg
          $ trace_arg $ summary_arg)

(* replay *)
let replay_cmd =
  let run topo file seed kind flows steps days flash flash_pairs flash_factor
      flash_len report_every no_quit out =
    let g, file_demands = load_topology topo file in
    let demands = make_demands ~file_demands g ~seed ~kind ~flows in
    let spec =
      {
        Scenario.replay_seed = seed;
        steps;
        days;
        flash_crowds = flash;
        flash_pairs;
        flash_factor;
        flash_len;
        report_every;
        quit = not no_quit;
      }
    in
    let lines = Scenario.replay_events spec demands in
    match out with
    | Some path ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      Printf.printf "wrote %d events to %s\n" (List.length lines) path
    | None -> List.iter print_endline lines
  in
  let steps_arg =
    Arg.(value & opt int 100 & info [ "steps" ] ~docv:"N"
           ~doc:"Diurnal steps (at most one delta event each).")
  in
  let days_arg =
    Arg.(value & opt float 1. & info [ "days" ]
           ~doc:"Diurnal periods the steps sweep through.")
  in
  let flash_arg =
    Arg.(value & opt int 2 & info [ "flash" ] ~docv:"N"
           ~doc:"Flash-crowd bursts layered over the diurnal drift.")
  in
  let flash_pairs_arg =
    Arg.(value & opt int 3 & info [ "flash-pairs" ] ~docv:"N"
           ~doc:"Demand pairs scaled by each burst.")
  in
  let flash_factor_arg =
    Arg.(value & opt float 3. & info [ "flash-factor" ] ~docv:"F"
           ~doc:"Burst demand multiplier.")
  in
  let flash_len_arg =
    Arg.(value & opt int 8 & info [ "flash-len" ] ~docv:"N"
           ~doc:"Steps each burst stays active.")
  in
  let report_every_arg =
    Arg.(value & opt int 0 & info [ "report-every" ] ~docv:"K"
           ~doc:"Interleave a report event every K steps (0 = never).")
  in
  let no_quit_arg =
    Arg.(value & flag & info [ "no-quit" ]
           ~doc:"Omit the trailing quit event (the daemon then runs to EOF).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Write the event JSONL to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Generate a serve/1 event trace: the topology's demand matrix \
             drifting through diurnal phases with seeded flash-crowd \
             bursts, rendered as demand-delta JSONL for `te-tool serve'.  \
             Deterministic: same options, byte-identical trace.")
    Term.(const run $ topo_arg $ file_arg $ seed_arg $ demands_arg $ flows_arg
          $ steps_arg $ days_arg $ flash_arg $ flash_pairs_arg
          $ flash_factor_arg $ flash_len_arg $ report_every_arg $ no_quit_arg
          $ out_arg)

(* serve *)
let serve_cmd =
  let run topo file seed kind flows evals jobs stats trace summary deploy
      deadline_ms churn_budget reopt_evals resolve_evals lp_every no_prune
      no_timings input output =
    at_least 1 "evals" evals;
    at_least 0 "lp-every" lp_every;
    with_ctx ~jobs ~stats ~trace ~summary (fun ctx ->
        let g, file_demands =
          Obs.Ctx.phase ctx "load" (fun () -> load_topology topo file)
        in
        let demands =
          Obs.Ctx.phase ctx "demands" (fun () ->
              make_demands ~file_demands g ~seed ~kind ~flows)
        in
        (* Deploy a starting setting, then serve the event stream
           against it. *)
        let deployed_weights, deployed_waypoints =
          Obs.Ctx.phase ctx "deploy" (fun () ->
              match deploy with
              | "joint" ->
                let ls_params =
                  { Local_search.default_params with max_evals = evals; seed }
                in
                let joint = Joint.optimize_ctx ctx ~ls_params g demands in
                (joint.Joint.int_weights, joint.Joint.waypoints)
              | setting ->
                ( Weights.round_to_range ~wmax:16 (weights_of g setting),
                  Segments.none demands ))
        in
        let cfg =
          {
            Serve.Daemon.deadline_ms;
            churn_budget;
            reopt_evals;
            resolve_evals;
            lp_every;
            prune = not no_prune;
            timings = not no_timings;
            seed;
          }
        in
        let daemon =
          Serve.Daemon.create ctx cfg ~deployed_weights ~deployed_waypoints g
            demands
        in
        let ic = match input with None -> stdin | Some p -> open_in p in
        let oc = match output with None -> stdout | Some p -> open_out p in
        Obs.Ctx.phase ctx "serve" (fun () -> Serve.Daemon.run daemon ic oc);
        if input <> None then close_in ic;
        if output <> None then close_out oc;
        let s = Serve.Daemon.summary daemon in
        let lat = s.Serve.Daemon.latencies in
        Printf.eprintf
          "serve: %d events (%d updates, %d improved, %d degraded, %d \
           errors), final MLU %.4f"
          s.Serve.Daemon.events s.Serve.Daemon.updates
          s.Serve.Daemon.improved s.Serve.Daemon.degraded
          s.Serve.Daemon.errors s.Serve.Daemon.mlu;
        if Float.is_finite s.Serve.Daemon.lp_bound then
          Printf.eprintf " (LP bound %.4f)" s.Serve.Daemon.lp_bound;
        if Array.length lat > 0 then
          Printf.eprintf "; latency p50 %.1f ms p99 %.1f ms"
            (1000. *. Serve.Daemon.quantile lat 0.5)
            (1000. *. Serve.Daemon.quantile lat 0.99);
        prerr_newline ())
  in
  let deploy_arg =
    Arg.(value & opt string "joint" & info [ "deploy" ] ~docv:"SETTING"
           ~doc:"Initial deployment: joint (optimize weights+waypoints \
                 first, --evals budget) or unit/invcap static weights.")
  in
  let deadline_arg =
    Arg.(value & opt float 1000. & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-update latency budget.  A search overrunning it stops \
                 early with the best setting so far; 0 degrades every \
                 update to the incumbent; a negative value, glued to the \
                 flag as in --deadline-ms=-1, disables the deadline.")
  in
  let churn_arg =
    Arg.(value & opt int 0 & info [ "churn-budget" ] ~docv:"K"
           ~doc:"Max links re-weighted per update (0 = |E|/10).")
  in
  let reopt_evals_arg =
    Arg.(value & opt int 400 & info [ "reopt-evals" ]
           ~doc:"Local-search evaluation budget per update.")
  in
  let resolve_evals_arg =
    Arg.(value & opt int 4000 & info [ "resolve-evals" ]
           ~doc:"Evaluation budget for resolve events.")
  in
  let lp_every_arg =
    Arg.(value & opt int 1 & info [ "lp-every" ] ~docv:"K"
           ~doc:"Solve the warm-basis LP lower bound only on every K-th \
                 update (resolve always solves); thins the cadence on \
                 topologies where even a warm solve dwarfs the \
                 re-optimization.  0 never solves it, resolve included: \
                 no optimality-gap readout in responses.")
  in
  let no_prune_arg =
    Arg.(value & flag & info [ "no-prune" ]
           ~doc:"Disable candidate pruning in the waypoint re-pick.")
  in
  let no_timings_arg =
    Arg.(value & flag & info [ "no-timings" ]
           ~doc:"Omit latency fields from responses, making the response \
                 stream byte-identical across runs and --jobs.")
  in
  let input_arg =
    Arg.(value & opt (some file) None & info [ "i"; "input" ] ~docv:"PATH"
           ~doc:"Read events from a file instead of stdin.")
  in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Write responses to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"TE-as-a-service: a long-running loop reading demand deltas, \
             matrix swaps and link up/down events as JSONL (see `te-tool \
             replay'), answering each with a churn-budgeted incremental \
             re-optimization under a latency deadline, one serve/1 JSON \
             response line per event.  Holds a warm evaluator and warm LP \
             bases across the whole stream; a summary line goes to stderr.")
    Term.(const run $ topo_arg $ file_arg $ seed_arg $ demands_arg $ flows_arg
          $ evals_arg $ jobs_arg $ stats_arg $ trace_arg $ summary_arg
          $ deploy_arg $ deadline_arg $ churn_arg $ reopt_evals_arg
          $ resolve_evals_arg $ lp_every_arg $ no_prune_arg
          $ no_timings_arg $ input_arg $ output_arg)

(* export *)
let export_cmd =
  let run topo file fmt out =
    let g = load_graph topo file in
    let contents =
      match fmt with
      | "dot" -> Topology.Export.to_dot g
      | "sndlib" -> Topology.Export.to_sndlib_native g
      | other ->
        Printf.eprintf "unknown format %S (dot|sndlib)\n" other;
        exit 2
    in
    match out with
    | Some path ->
      Topology.Export.write_file path contents;
      Printf.printf "wrote %s\n" path
    | None -> print_string contents
  in
  let fmt_arg =
    Arg.(value & opt string "dot" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: dot or sndlib.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Write to a file instead of stdout.")
  in
  Cmd.v (Cmd.info "export" ~doc:"Export a topology as Graphviz DOT or SNDLib native")
    Term.(const run $ topo_arg $ file_arg $ fmt_arg $ out_arg)

let () =
  let doc = "Traffic engineering with joint link weight and segment optimization" in
  let info = Cmd.info "te-tool" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (topos_cmd :: mlu_cmd :: list_algs_cmd :: solver_cmds
          @ [ gap_cmd; lwo_apx_cmd; nanonet_cmd; failures_cmd; robust_cmd;
              replay_cmd; serve_cmd; exact_cmd; export_cmd ])))
