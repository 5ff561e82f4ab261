(* The repository benchmark: three workloads (plan, serve, sweep) driven
   in one process through the libraries' public entry points.

   Usage:
     main.exe --workload plan|serve|sweep --seed N --seconds S --trace 0|1
     main.exe --self-test

   [--trace 0] measures the end-to-end metrics on untraced runs;
   [--trace 1] re-runs a fixed slice of the same work twice, untraced
   (engine counters, Gc, scheduler counters) and under a live
   [Obs.Tracer] with engine detail (span-derived layer times), and
   prints the per-layer metrics.  The last stdout line is one JSON
   object: {"correct","attempted","failed","metrics"}.  See README.md
   for what every metric means and which layer should move it. *)

open Netgraph
open Te

let now = Engine.Mono.now

(* ------------------------------------------------------------------ *)
(* Scale                                                               *)
(* ------------------------------------------------------------------ *)

(* What differs between the measured scale and the self-test's tiny
   one; everything else is a constant below. *)
type scale = {
  deploy_evals : int;  (** Joint budget of the initial deploy (serve, sweep) *)
  plan_topo : string;
  plan_evals : int;  (** weight-search budget per Joint solve *)
  serve_topo : string;
  serve_steps : int;  (** diurnal steps of the replayed stream *)
  serve_quality : int;  (** updates [mlu] averages over *)
  serve_trace_events : int;  (** events of the traced slice *)
  sweep_topo : string;
  sweep_duals : int;
  sweep_shifts : int;  (** diurnal levels, hotspot and jitter draws each *)
  sweep_batch : int;  (** scenarios per [Scenario.sweep_ctx] call *)
  sweep_reopt_evals : int;
}

let full =
  {
    deploy_evals = 300;
    plan_topo = "GtsCe";
    plan_evals = 600;
    serve_topo = "Cost266";
    serve_steps = 400;
    serve_quality = 100;
    serve_trace_events = 40;
    sweep_topo = "Germany50";
    sweep_duals = 10;
    sweep_shifts = 4;
    sweep_batch = 16;
    sweep_reopt_evals = 400;
  }

let tiny =
  {
    deploy_evals = 60;
    plan_topo = "Abilene";
    plan_evals = 150;
    serve_topo = "Abilene";
    serve_steps = 24;
    serve_quality = 8;
    serve_trace_events = 12;
    sweep_topo = "Abilene";
    sweep_duals = 3;
    sweep_shifts = 1;
    sweep_batch = 8;
    sweep_reopt_evals = 60;
  }

let setup_reps = 3  (* set-ups per run; setup_s is their median *)

let flows_per_pair = 2  (* plan and sweep split each demand pair *)

let plan_sigma = 0.15  (* lognormal size jitter between seeds, see gen_demands *)

let sweep_sigma = 0.05

let plan_quality = 6  (* solves [mlu] averages over on plan *)

let sweep_oracle = 8  (* static outcomes cross-checked per run *)

(* ------------------------------------------------------------------ *)
(* Result accounting                                                   *)
(* ------------------------------------------------------------------ *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks_ok : bool;
  mutable pool : int;  (** domains the workload runs on *)
  mutable samples : int;  (** timed operations behind the percentiles *)
  mutable metrics : (string * float * string) list;  (** reverse order *)
}

let fresh_run () =
  { attempted = 0; failed = 0; checks_ok = true; pool = 1; samples = 0; metrics = [] }

let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics

(* A failed correctness check: counted as a failed operation, reported
   on stderr, never aborts the run. *)
let check r ok what =
  if not ok then begin
    r.checks_ok <- false;
    r.failed <- r.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let close ?(tol = 1e-9) a b = abs_float (a -. b) <= tol *. (1. +. abs_float b)

let safe_div a b = if b = 0. then 0. else a /. b

let fsum = Array.fold_left ( +. ) 0.

(* Linear-interpolation quantile of a non-empty sample. *)
let quantile xs q =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    let j = min (n - 1) (i + 1) in
    s.(i) +. ((h -. float_of_int i) *. (s.(j) -. s.(i)))
  end

let median xs = quantile xs 0.5

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Runs the set-up [reps] times; returns the last product and the
   median set-up time. *)
let repeated_setup reps f =
  let times = Array.make reps 0. and last = ref None in
  for i = 0 to reps - 1 do
    let x, dt = timed f in
    times.(i) <- dt;
    last := Some x
  done;
  (Option.get !last, median times)

let heap_peak_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The demand matrices share one set of pairs and base sizes, fixed by
   [base_seed]: 20% of the mutually reachable pairs, sizes uniform in
   [0.5, 1.5).  The run seed only jitters each size by a lognormal
   factor exp(sigma * N(0,1)), so seeds give different inputs of
   comparable difficulty.  Sizes are then scaled so the
   inverse-capacity ECMP routing has MLU exactly 1 — one engine
   evaluation instead of the MCF FPTAS normalization — and split into
   [flows] equal sub-flows. *)
let base_seed = 1

let gen_demands ~sigma ~seed ~flows g =
  let pairs = Demand_gen.select_pairs ~seed:base_seed ~frac:0.2 g in
  let st = Random.State.make [| base_seed; 0x7e5d |] in
  let jt = Random.State.make [| seed; 0x1177 |] in
  let gauss () =
    let u1 = 1. -. Random.State.float jt 1. and u2 = Random.State.float jt 1. in
    sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
  in
  let base =
    Array.map
      (fun (s, t) ->
        let size = 0.5 +. Random.State.float st 1. in
        Network.demand s t (size *. exp (sigma *. gauss ())))
      pairs
  in
  let inv = Ecmp.mlu_of g (Weights.inverse_capacity g) base in
  let base =
    Array.map (fun d -> { d with Network.size = d.Network.size /. inv }) base
  in
  if flows > 1 then Network.split_demands ~parts:flows base else base

let demands_bytes ds =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun d -> Printf.sprintf "%d,%d,%h" d.Network.src d.Network.dst d.Network.size)
          ds))

(* Same seed, same bytes; and the normalization holds. *)
let check_inputs r ~sigma ~seed ~flows g ds =
  check r
    (String.equal (demands_bytes ds) (demands_bytes (gen_demands ~sigma ~seed ~flows g)))
    (Printf.sprintf "demand generation is not reproducible (seed %d)" seed);
  let inv = Ecmp.mlu_of g (Weights.inverse_capacity g) ds in
  check r (close ~tol:1e-9 inv 1.)
    (Printf.sprintf "inverse-capacity MLU of generated demands is %.17g, not 1" inv)

let ls_params ~evals ~seed =
  { Local_search.default_params with Local_search.max_evals = evals; seed }

let prune = Prune.spec Prune.default_k

(* The initial deploy of serve and sweep: the same for every run seed. *)
let deploy ~evals g demands =
  Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params:(ls_params ~evals ~seed:base_seed)
    ~prune g demands

(* ------------------------------------------------------------------ *)
(* Layer attribution from counters and spans                           *)
(* ------------------------------------------------------------------ *)

let engine_metrics r (s : Engine.Stats.t) ~minor_words =
  let open Engine.Stats in
  let ht = hot_times s in
  let fi = float_of_int in
  metric r "engine.spf_incr_s" "s" ht.(hot_spf_incr);
  metric r "engine.spf_full_s" "s" ht.(hot_spf_full);
  metric r "engine.units_s" "s" ht.(hot_units);
  metric r "engine.loads_s" "s" ht.(hot_loads);
  metric r "engine.evals" "count" (fi s.evaluations);
  metric r "engine.spf_nodes_touched" "count" (fi s.spf_nodes_touched);
  metric r "engine.minor_words_per_eval" "words"
    (safe_div minor_words (fi s.evaluations));
  metric r "engine.unit_hit_ratio" "ratio"
    (safe_div (fi s.unit_hits) (fi (s.unit_hits + s.unit_misses)));
  metric r "engine.dag_hit_ratio" "ratio"
    (safe_div (fi s.dag_hits) (fi (s.dag_hits + s.dag_misses)));
  metric r "engine.commits" "count" (fi s.commits);
  metric r "engine.undos" "count" (fi s.undos);
  metric r "engine.clone_sync_ratio" "ratio"
    (safe_div (fi s.clone_syncs) (fi (s.clone_syncs + s.clone_copies)));
  metric r "prune.kept_ratio" "ratio"
    (safe_div (fi s.candidates_kept) (fi (s.candidates_kept + s.candidates_pruned)));
  metric r "linprog.solves" "count" (fi s.lp_solves);
  metric r "linprog.pivots" "count" (fi s.lp_pivots);
  metric r "linprog.warm_ratio" "ratio"
    (safe_div (fi s.lp_warm_solves) (fi s.lp_solves))

(* Per span name: inclusive seconds, count and self seconds (duration
   minus the children's).  Self times partition the root spans, so
   [self_sum] over the timed wall is the coverage.  Only spans that
   started at or after [since] (tracer-epoch seconds) count. *)
type span_view = {
  by_name : (string, float * int * float) Hashtbl.t;
  self_sum : float;
  spans : int;
}

let span_view ?(since = neg_infinity) tracer =
  let spans = Array.of_list (Obs.Tracer.spans tracer) in
  let dur i = Float.max 0. spans.(i).Obs.Span.dur in
  let kids = Array.make (Array.length spans) 0. in
  Array.iteri
    (fun i s ->
      let p = s.Obs.Span.parent in
      if p >= 0 then kids.(p) <- kids.(p) +. dur i)
    spans;
  let by_name = Hashtbl.create 64 and self_sum = ref 0. and n = ref 0 in
  Array.iteri
    (fun i s ->
      if s.Obs.Span.t0 >= since then begin
        let self = Float.max 0. (dur i -. kids.(i)) in
        let t, c, sf =
          Option.value (Hashtbl.find_opt by_name s.Obs.Span.name) ~default:(0., 0, 0.)
        in
        Hashtbl.replace by_name s.Obs.Span.name (t +. dur i, c + 1, sf +. self);
        self_sum := !self_sum +. self;
        incr n
      end)
    spans;
  { by_name; self_sum = !self_sum; spans = !n }

let span_stat v name =
  Option.value (Hashtbl.find_opt v.by_name name) ~default:(0., 0, 0.)

let total v name = let t, _, _ = span_stat v name in t

let live_tracer () = Obs.Tracer.create ~cap:(1 lsl 21) ~engine_detail:true ()

let span_metrics r tracer v =
  let _, scans, _ = span_stat v "wpo:scan" and _, _, case_self = span_stat v "scn:case" in
  metric r "local_search.s" "s" (total v "joint:weights");
  metric r "greedy_wpo.s" "s" (total v "wpo:scan");
  metric r "greedy_wpo.scans" "count" (float_of_int scans);
  metric r "prune.s" "s" (total v "prune:prepare");
  metric r "reopt.weights_s" "s" (total v "reopt:weights");
  metric r "reopt.waypoints_s" "s" (total v "reopt:waypoints");
  metric r "scenario.repair_s" "s" (total v "scn:policy:repair");
  metric r "scenario.reweight_s" "s" (total v "scn:policy:reweight:3");
  metric r "scenario.case_wait_s" "s" case_self;
  metric r "obs.spans" "count" (float_of_int v.spans);
  metric r "obs.dropped" "count" (float_of_int (Obs.Tracer.dropped tracer))

let no_par r =
  metric r "par.tasks" "count" 0.;
  metric r "par.steals" "count" 0.;
  metric r "par.parks" "count" 0.;
  metric r "par.park_s" "s" 0.;
  metric r "par.efficiency" "ratio" 1.

let no_serve r =
  metric r "mcf.lp_s" "s" 0.;
  metric r "serve.update_s" "s" 0.;
  metric r "serve.parse_s" "s" 0.

(* Throughput: the median, over consecutive windows of at least
   [rate_window] seconds of timed calls, of operations per second.  The
   host's speed drifts in phases of several seconds; like the median
   latency, this median ignores phases that cover less than half of the
   run, where a whole-run mean takes in every one of them.  [calls]:
   (operations, seconds) per timed call, in run order.  A run shorter
   than one window gives its overall rate. *)
let rate_window = 3.

let windowed_rate calls =
  let rates = ref [] and n = ref 0 and w = ref 0. in
  List.iter
    (fun (k, dt) ->
      n := !n + k;
      w := !w +. dt;
      if !w >= rate_window then begin
        rates := (float_of_int !n /. !w) :: !rates;
        n := 0;
        w := 0.
      end)
    calls;
  if !rates = [] then safe_div (float_of_int !n) !w else median (Array.of_list !rates)

(* [ops]: per-operation latencies in seconds; [calls]: see
   [windowed_rate]. *)
let end_to_end r ~setup_s ~ops ~calls ~mlu =
  r.samples <- Array.length ops;
  metric r "setup_s" "s" setup_s;
  metric r "op_ms_p50" "ms" (1000. *. median ops);
  metric r "ops_per_s" "1/s" (windowed_rate calls);
  metric r "mlu" "ratio" mlu;
  metric r "ok_share" "ratio"
    (1. -. safe_div (float_of_int r.failed) (float_of_int (max 1 r.attempted)));
  metric r "heap_peak_mb" "MiB" (heap_peak_mb ())

let layer_common r ~untraced ~traced ~coverage =
  metric r "failed_share" "ratio"
    (safe_div (float_of_int r.failed) (float_of_int (max 1 r.attempted)));
  metric r "obs.trace_overhead" "ratio" (traced /. untraced);
  metric r "coverage" "ratio" coverage

(* ------------------------------------------------------------------ *)
(* plan: offline Joint planning                                        *)
(* ------------------------------------------------------------------ *)

let plan sc ~seed ~seconds ~trace =
  let r = fresh_run () in
  let mat_seed i = (seed * 1000) + i in
  let matrix g i =
    gen_demands ~sigma:plan_sigma ~seed:(mat_seed i) ~flows:flows_per_pair g
  in
  let g, setup_s =
    repeated_setup setup_reps (fun () ->
        let g = Topology.Datasets.load sc.plan_topo in
        (* Warm-up: one short solve (code, allocator, caches). *)
        ignore
          (Joint.optimize_ctx (Obs.Ctx.make ())
             ~ls_params:(ls_params ~evals:(sc.plan_evals / 10) ~seed)
             ~prune g (matrix g 0)
            : Joint.result);
        g)
  in
  let solve ?(ctx = Obs.Ctx.make ()) i ds =
    Joint.optimize_ctx ctx
      ~ls_params:(ls_params ~evals:sc.plan_evals ~seed:(mat_seed i))
      ~prune g ds
  in
  (* Re-evaluate the returned setting from scratch; it must reproduce the
     reported MLU and never lose to the inverse-capacity start (MLU 1). *)
  let verify i ds (res : Joint.result) =
    let re = Ecmp.mlu_of ~waypoints:res.Joint.waypoints g res.Joint.weights ds in
    check r (close ~tol:1e-9 re res.Joint.mlu)
      (Printf.sprintf "plan solve %d: re-evaluated MLU %.17g <> reported %.17g" i
         re res.Joint.mlu);
    check r (res.Joint.mlu <= 1. +. 1e-9)
      (Printf.sprintf "plan solve %d: MLU %.17g above the inverse-capacity start" i
         res.Joint.mlu)
  in
  if trace = 0 then begin
    let walls = ref [] and quality = ref [] in
    let t_start = now () in
    let i = ref 0 in
    (* Every solve gets its own matrix and search seed: solve cost differs
       by matrix, so the latency median comes from many independent draws
       rather than from re-solving a handful.  A matrix is made and
       checked outside the timed call and dropped after it, so no
       benchmark data stays live for the solves' major collections to
       trace. *)
    while !i = 0 || now () -. t_start < seconds do
      let ds = matrix g !i in
      r.attempted <- r.attempted + 1;
      (match timed (fun () -> solve !i ds) with
      | res, dt ->
        walls := dt :: !walls;
        verify !i ds res;
        if !i < plan_quality then begin
          check_inputs r ~sigma:plan_sigma ~seed:(mat_seed !i) ~flows:flows_per_pair g ds;
          quality := res.Joint.mlu :: !quality
        end
      | exception e ->
        r.failed <- r.failed + 1;
        Printf.eprintf "perfbench: plan solve %d raised %s\n%!" !i (Printexc.to_string e));
      incr i
    done;
    end_to_end r ~setup_s ~ops:(Array.of_list !walls)
      ~calls:(List.rev_map (fun dt -> (1, dt)) !walls)
      ~mlu:(safe_div (List.fold_left ( +. ) 0. !quality) (float_of_int (List.length !quality)))
  end
  else begin
    (* Untraced: engine counters and Gc; then the same solve traced. *)
    let ds = matrix g 0 in
    check_inputs r ~sigma:plan_sigma ~seed:(mat_seed 0) ~flows:flows_per_pair g ds;
    let stats = Engine.Stats.create () in
    let mw0 = Gc.minor_words () in
    let res, untraced = timed (fun () -> solve ~ctx:(Obs.Ctx.make ~stats ()) 0 ds) in
    let minor_words = Gc.minor_words () -. mw0 in
    let tracer = live_tracer () in
    let res', traced = timed (fun () -> solve ~ctx:(Obs.Ctx.make ~tracer ()) 0 ds) in
    r.attempted <- 2;
    verify 0 ds res;
    verify 0 ds res';
    check r (res.Joint.mlu = res'.Joint.mlu) "plan: tracing changed the solve";
    let v = span_view tracer in
    engine_metrics r stats ~minor_words;
    span_metrics r tracer v;
    no_serve r;
    no_par r;
    layer_common r ~untraced ~traced ~coverage:(v.self_sum /. traced)
  end;
  r

(* ------------------------------------------------------------------ *)
(* serve: the daemon under a replayed event stream                     *)
(* ------------------------------------------------------------------ *)

(* Undirected links (edge, reverse edge) whose loss leaves every demand
   routable. *)
let flappable g demands =
  let ev = Engine.Evaluator.create g (Weights.inverse_capacity g) in
  let out = ref [] in
  for e = 0 to Digraph.edge_count g - 1 do
    match Digraph.find_edge g ~src:(Digraph.dst g e) ~dst:(Digraph.src g e) with
    | Some rev when e < rev ->
      Engine.Evaluator.disable_edge ev ~edge:e;
      Engine.Evaluator.disable_edge ev ~edge:rev;
      if
        Array.for_all
          (fun d ->
            Engine.Evaluator.reachable ev ~src:d.Network.src ~dst:d.Network.dst)
          demands
      then out := (e, rev) :: !out;
      Engine.Evaluator.undo ev
    | _ -> ()
  done;
  Array.of_list (List.rev !out)

let flap_links = 4

let steps_per_day = 40

(* The replayed diurnal + flash-crowd stream with a report every 10
   steps, and a link flap (down, two events, up) every 12 lines.  The
   flaps rotate over a fixed set of [flap_links] flappable links (the
   seed only picks where the rotation starts): which link is down
   changes re-optimization and LP cost far more than anything else the
   seed drives, so a per-flap random pick makes run times depend on the
   seed.  A diurnal period every [steps_per_day] steps keeps the mix of
   load levels the same over any window a run covers, whatever its
   speed.  Every link is back up at the end, and deltas carry absolute
   sizes, so the stream can be replayed cyclically. *)
let serve_stream ~seed ~steps g demands =
  let replay =
    { Scenario.default_replay with
      Scenario.replay_seed = seed; steps; report_every = 10; quit = false;
      days = float_of_int steps /. float_of_int steps_per_day }
  in
  let lines = Scenario.replay_events replay demands in
  let links = flappable g demands in
  let nl = Array.length links in
  let links = Array.init (min flap_links nl) (fun i -> links.(i * nl / flap_links)) in
  let next = ref seed in
  let ev name (a, b) = Printf.sprintf "{\"ev\":%S,\"edges\":[%d,%d]}" name a b in
  let out = ref [] and down = ref None in
  List.iteri
    (fun i line ->
      (match !down with
      | Some (l, k) when i = k ->
        out := ev "link-up" l :: !out;
        down := None
      | _ -> ());
      if !down = None && i mod 12 = 11 && Array.length links > 0 then begin
        let n = Array.length links in
        let l = links.(((!next mod n) + n) mod n) in
        incr next;
        out := ev "link-down" l :: !out;
        down := Some (l, i + 2)
      end;
      out := line :: !out)
    lines;
  (match !down with Some (l, _) -> out := ev "link-up" l :: !out | None -> ());
  Array.of_list (List.rev !out)

type serve_setup = {
  g : Digraph.t;
  demands : Network.demand array;
  deployed : Joint.result;
  lines : string array;
}

let serve_cfg ~seed =
  { Serve.Daemon.default_config with Serve.Daemon.deadline_ms = 60_000.; seed }

(* A daemon booted on the deployed setting; its first event (the one
   cold LP solve) is processed here, as warm-up. *)
let boot ?(ctx = Obs.Ctx.make ()) ~seed s =
  let d =
    Serve.Daemon.create ctx (serve_cfg ~seed)
      ~deployed_weights:s.deployed.Joint.int_weights
      ~deployed_waypoints:s.deployed.Joint.waypoints s.g s.demands
  in
  ignore (Serve.Daemon.handle_line d s.lines.(0) : string option);
  d

let is_update = function "delta" | "link-down" | "link-up" -> true | _ -> false

type served = {
  line : string;
  resp : string option;
  dt : float;  (** benchmark-timed handle_line seconds *)
}

let jfield name j = Option.bind j (Serve.Sjson.member name)
let jfloat name j = Option.bind (jfield name j) Serve.Sjson.to_float
let jstr name j = Option.bind (jfield name j) Serve.Sjson.to_string
let jbool name j = jfield name j = Some (Serve.Sjson.Bool true)

(* Checks every response and counts failed ones; returns the parsed
   responses. *)
let verify_responses r served =
  Array.map
    (fun s ->
      r.attempted <- r.attempted + 1;
      let j =
        match s.resp with
        | None -> None
        | Some line -> Result.to_option (Serve.Sjson.parse line)
      in
      check r (jstr "schema" j = Some "serve/1")
        (Printf.sprintf "serve: response is not serve/1: %s"
           (Option.value s.resp ~default:"<none>"));
      let event = Option.value (jstr "event" j) ~default:"" in
      if jstr "status" j <> Some "ok" || jbool "degraded" j || jbool "deadline_hit" j
      then begin
        r.failed <- r.failed + 1;
        Printf.eprintf "perfbench: serve: failed response %s\n%!"
          (Option.value s.resp ~default:"<none>")
      end;
      (if is_update event then
         match (jfloat "mlu_before" j, jfloat "mlu_after" j) with
         | Some b, Some a ->
           check r (a <= b +. 1e-9)
             (Printf.sprintf "serve: mlu_after %.17g > mlu_before %.17g" a b);
           Option.iter
             (fun lp ->
               check r (lp <= a *. (1. +. 1e-6) +. 1e-9)
                 (Printf.sprintf "serve: lp_bound %.17g > mlu_after %.17g" lp a))
             (jfloat "lp_bound" j)
         | _ -> check r false "serve: update response without MLUs");
      (event, j))
    served

(* The final incumbent must re-evaluate, from scratch, to the daemon's
   reported MLU (links still down at infinite weight). *)
let verify_state r g d served =
  let weights, demands, waypoints = Serve.Daemon.state d in
  let down = Hashtbl.create 4 in
  Array.iter
    (fun s ->
      let j = Result.to_option (Serve.Sjson.parse s.line) in
      let edges =
        Option.value ~default:[] (Option.bind (jfield "edges" j) Serve.Sjson.to_list)
        |> List.filter_map Serve.Sjson.to_int
      in
      match jstr "ev" j with
      | Some "link-down" -> List.iter (fun e -> Hashtbl.replace down e ()) edges
      | Some "link-up" -> List.iter (Hashtbl.remove down) edges
      | _ -> ())
    served;
  let w = Weights.of_ints weights in
  Hashtbl.iter (fun e () -> w.(e) <- infinity) down;
  let re = if Array.length demands = 0 then 0. else Ecmp.mlu_of ~waypoints g w demands in
  check r (close ~tol:1e-9 re (Serve.Daemon.mlu d))
    (Printf.sprintf "serve: final state re-evaluates to %.17g, daemon says %.17g" re
       (Serve.Daemon.mlu d))

let serve sc ~seed ~seconds ~trace =
  let r = fresh_run () in
  let (s, d), setup_s =
    repeated_setup setup_reps (fun () ->
        let g = Topology.Datasets.load sc.serve_topo in
        let demands = gen_demands ~sigma:0. ~seed ~flows:1 g in
        let deployed = deploy ~evals:sc.deploy_evals g demands in
        let lines = serve_stream ~seed ~steps:sc.serve_steps g demands in
        let s = { g; demands; deployed; lines } in
        (s, boot ~seed s))
  in
  check_inputs r ~sigma:0. ~seed ~flows:1 s.g s.demands;
  let nlines = Array.length s.lines in
  (* Feeds lines 1, 2, ... (cycling past the end) one at a time, each
     only after the previous response came back. *)
  let feed d ~until =
    let out = ref [] and k = ref 0 and t_start = now () in
    while not (until !k (now () -. t_start)) do
      let line = s.lines.(1 + (!k mod (nlines - 1))) in
      let resp, dt = timed (fun () -> Serve.Daemon.handle_line d line) in
      out := { line; resp; dt } :: !out;
      incr k
    done;
    Array.of_list (List.rev !out)
  in
  if trace = 0 then begin
    let served =
      feed d ~until:(fun k el ->
          k >= 2 * sc.serve_quality && el >= seconds)
    in
    let parsed = verify_responses r served in
    verify_state r s.g d served;
    let updates = ref [] and quality = ref [] in
    Array.iteri
      (fun i (event, j) ->
        if is_update event then begin
          updates := served.(i).dt :: !updates;
          Option.iter (fun a -> quality := a :: !quality) (jfloat "mlu_after" j)
        end)
      parsed;
    (* The first [serve_quality] updates: the same ones for every run of
       a seed, however many the time budget allowed. *)
    let q = Array.of_list (List.rev !quality) in
    let q = Array.sub q 0 (min sc.serve_quality (Array.length q)) in
    end_to_end r ~setup_s ~ops:(Array.of_list !updates)
      ~calls:(Array.to_list (Array.map (fun x -> (1, x.dt)) served))
      ~mlu:(fsum q /. float_of_int (Array.length q))
  end
  else begin
    let n = sc.serve_trace_events in
    let stats = Engine.Stats.create () in
    let d1 = boot ~ctx:(Obs.Ctx.make ~stats ()) ~seed s in
    Engine.Stats.reset stats;
    let mw0 = Gc.minor_words () in
    let served = feed d1 ~until:(fun k _ -> k >= n) in
    let minor_words = Gc.minor_words () -. mw0 in
    let untraced = fsum (Array.map (fun x -> x.dt) served) in
    let parsed = verify_responses r served in
    let lat = (Serve.Daemon.summary d1).Serve.Daemon.latencies in
    (* Benchmark-timed response minus the daemon's own update latency,
       on updates that carried an LP readout. *)
    let lp_s = ref 0. and u = ref 0 in
    Array.iteri
      (fun i (event, j) ->
        if is_update event then begin
          let k = !u + 1 in
          (* latencies.(0) is the warm-up event *)
          if jfloat "lp_bound" j <> None then
            lp_s := !lp_s +. (served.(i).dt -. lat.(k));
          incr u
        end)
      parsed;
    let t_created = now () in
    let tracer = live_tracer () in
    let d2 = boot ~ctx:(Obs.Ctx.make ~tracer ()) ~seed s in
    (* Span times are relative to the tracer's epoch, which is at or
       after [t_created]: spans of the warm-up event started well over a
       millisecond before [since], spans of the fed events after it. *)
    let since = now () -. t_created -. 1e-3 in
    let served2 = feed d2 ~until:(fun k _ -> k >= n) in
    let traced = fsum (Array.map (fun x -> x.dt) served2) in
    let parse_s =
      fsum (Array.map (fun x -> snd (timed (fun () -> Serve.Event.parse s.g x.line))) served2)
    in
    ignore (verify_responses r served2 : (string * Serve.Sjson.t option) array);
    let v = span_view ~since tracer in
    engine_metrics r stats ~minor_words;
    span_metrics r tracer v;
    metric r "mcf.lp_s" "s" !lp_s;
    metric r "serve.update_s" "s" (fsum (Array.sub lat 1 (Array.length lat - 1)));
    metric r "serve.parse_s" "s" parse_s;
    no_par r;
    layer_common r ~untraced ~traced ~coverage:((v.self_sum +. parse_s) /. traced)
  end;
  r

(* ------------------------------------------------------------------ *)
(* sweep: what-if robustness sweep on a domain pool                    *)
(* ------------------------------------------------------------------ *)

let policies = Scenario.[ Static; Repair; Reweight 3 ]

type sweep_setup = {
  sg : Digraph.t;
  sdemands : Network.demand array;
  sdeployed : Scenario.deployed;
  batches : Scenario.spec array array;
  sctx : Obs.Ctx.t;  (** the warmed context the timed loop reuses *)
}

(* Each finite policy MLU is at most its static MLU; a seeded sample of
   static outcomes matches the subgraph-rebuild oracle. *)
let verify_sweep r ~seed s outcomes =
  Array.iter
    (fun (o : Scenario.outcome) ->
      List.iter
        (fun (p : Scenario.policy_outcome) ->
          if Float.is_finite p.Scenario.mlu && Float.is_finite o.Scenario.static_mlu then
            check r (p.Scenario.mlu <= o.Scenario.static_mlu *. (1. +. 1e-9) +. 1e-12)
              (Printf.sprintf "sweep: %s MLU %.17g above static %.17g on scenario %d"
                 (Scenario.policy_name p.Scenario.policy) p.Scenario.mlu
                 o.Scenario.static_mlu o.Scenario.spec.Scenario.id))
        o.Scenario.policies)
    outcomes;
  let st = Random.State.make [| seed; 0x0ac1 |] in
  let n = Array.length outcomes in
  for _ = 1 to min n sweep_oracle do
    let o = outcomes.(Random.State.int st n) in
    let m, disc =
      (Scenario.static_sweep_rebuild ~deployed:s.sdeployed s.sg s.sdemands
         [| o.Scenario.spec |]).(0)
    in
    let same =
      disc = o.Scenario.static_disconnected
      && ((Float.is_nan m && Float.is_nan o.Scenario.static_mlu)
         || close ~tol:1e-9 m o.Scenario.static_mlu)
    in
    check r same
      (Printf.sprintf "sweep: scenario %d static (%.17g, %d) <> rebuild oracle (%.17g, %d)"
         o.Scenario.spec.Scenario.id o.Scenario.static_mlu o.Scenario.static_disconnected m
         disc)
  done

let sweep sc ~seed ~seconds ~trace =
  let r = fresh_run () in
  let jobs = max 1 (min 2 (Domain.recommended_domain_count ())) in
  r.pool <- jobs;
  Par.Pool.with_pool ~jobs @@ fun pool ->
  let run_sweep ctx s specs =
    Scenario.sweep_ctx ctx ~policies ~reopt_evals:sc.sweep_reopt_evals
      ~deployed:s.sdeployed s.sg s.sdemands specs
  in
  let s, setup_s =
    repeated_setup setup_reps (fun () ->
        let g = Topology.Datasets.load sc.sweep_topo in
        let demands = gen_demands ~sigma:sweep_sigma ~seed ~flows:flows_per_pair g in
        let j = deploy ~evals:sc.deploy_evals g demands in
        let deployed =
          { Scenario.weights = j.Joint.int_weights; waypoints = j.Joint.waypoints }
        in
        let n = sc.sweep_shifts in
        let specs =
          Scenario.generate
            { Scenario.default_config with
              Scenario.seed; dual_failures = sc.sweep_duals; diurnal = n;
              hotspots = n; jitters = n }
            g
        in
        (* Batch j takes specs j, j + nb, j + 2nb, ...: every batch mixes
           single and dual failures and shifts, so batch costs are alike
           and the percentiles do not hinge on which kind a batch holds. *)
        let nb = (Array.length specs + sc.sweep_batch - 1) / sc.sweep_batch in
        let batches =
          Array.init nb (fun j ->
              Array.to_list specs
              |> List.filteri (fun k _ -> k mod nb = j)
              |> Array.of_list)
        in
        let s =
          { sg = g; sdemands = demands; sdeployed = deployed; batches;
            sctx = Obs.Ctx.make ~pool () }
        in
        (* Warm-up: the first batch, which also builds the worker clones. *)
        ignore (run_sweep s.sctx s batches.(0) : Scenario.outcome array);
        s)
  in
  check_inputs r ~sigma:sweep_sigma ~seed ~flows:flows_per_pair s.sg s.sdemands;
  (* One pass over every batch on [ctx]; returns the outcomes in batch
     order and the per-batch (wall, scenarios). *)
  let pass ctx =
    let outs = ref [] and walls = ref [] in
    Array.iter
      (fun b ->
        r.attempted <- r.attempted + Array.length b;
        match timed (fun () -> run_sweep ctx s b) with
        | out, dt ->
          outs := out :: !outs;
          walls := (dt, Array.length b) :: !walls
        | exception e ->
          r.failed <- r.failed + Array.length b;
          Printf.eprintf "perfbench: sweep batch raised %s\n%!" (Printexc.to_string e))
      s.batches;
    (Array.concat (List.rev !outs), List.rev !walls)
  in
  let wall_of walls = List.fold_left (fun a (w, _) -> a +. w) 0. walls in
  let reacting_mlu outcomes =
    let xs =
      Array.to_list outcomes
      |> List.concat_map (fun (o : Scenario.outcome) -> o.Scenario.policies)
      |> List.filter_map (fun (p : Scenario.policy_outcome) ->
             if p.Scenario.policy <> Scenario.Static && Float.is_finite p.Scenario.mlu
             then Some p.Scenario.mlu
             else None)
    in
    safe_div (List.fold_left ( +. ) 0. xs) (float_of_int (List.length xs))
  in
  if trace = 0 then begin
    (* Whole passes only: even mixed batches differ somewhat in cost, and
       a partial pass would tilt the median towards the ones it covered. *)
    let t_start = now () in
    let first, walls = pass s.sctx in
    let walls = ref walls in
    while now () -. t_start < seconds do
      walls := !walls @ snd (pass s.sctx)
    done;
    verify_sweep r ~seed s first;
    let ops = Array.of_list (List.map (fun (w, n) -> w /. float_of_int n) !walls) in
    end_to_end r ~setup_s ~ops
      ~calls:(List.map (fun (w, n) -> (n, w)) !walls)
      ~mlu:(reacting_mlu first)
  end
  else begin
    (* Fresh pools, so the scheduler counters cover exactly one pass. *)
    let stats = Engine.Stats.create () in
    let mw0 = Gc.minor_words () in
    let (out, walls), pm =
      Par.Pool.with_pool ~jobs (fun p ->
          let x = pass (Obs.Ctx.make ~stats ~pool:p ()) in
          (x, Par.Pool.metrics p))
    in
    let minor_words = Gc.minor_words () -. mw0 in
    let untraced = wall_of walls in
    verify_sweep r ~seed s out;
    let tracer = live_tracer () in
    let (out', walls'), pm' =
      Par.Pool.with_pool ~jobs (fun p ->
          let x = pass (Obs.Ctx.make ~tracer ~pool:p ()) in
          (x, Par.Pool.metrics p))
    in
    let traced = wall_of walls' in
    check r (compare out out' = 0) "sweep: tracing changed the outcomes";
    (* Stage-A static probe work, which no span covers: the same specs
       under the static policy alone, on one domain. *)
    let _, probe_s =
      timed (fun () ->
          Array.iter
            (fun b ->
              ignore
                (Scenario.sweep_ctx (Obs.Ctx.make ()) ~deployed:s.sdeployed s.sg
                   s.sdemands b
                  : Scenario.outcome array))
            s.batches)
    in
    let v = span_view tracer in
    let fj = float_of_int jobs in
    let _, _, case_self = span_stat v "scn:case" in
    let work = v.self_sum -. case_self +. probe_s in
    engine_metrics r stats ~minor_words;
    span_metrics r tracer v;
    no_serve r;
    metric r "par.tasks" "count" (float_of_int pm.Par.Pool.tasks);
    metric r "par.steals" "count" (float_of_int pm.Par.Pool.steals);
    metric r "par.parks" "count" (float_of_int pm.Par.Pool.parks);
    metric r "par.park_s" "s" pm.Par.Pool.park_seconds;
    metric r "par.efficiency" "ratio" (work /. (fj *. traced));
    layer_common r ~untraced ~traced
      ~coverage:((work +. pm'.Par.Pool.park_seconds) /. (fj *. traced))
  end;
  r

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line r =
  let ms =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs.Export.json_str name)
          (json_num v) (Obs.Export.json_str unit))
      r.metrics
  in
  let all_finite = List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.checks_ok && all_finite) (max 1 r.attempted) r.failed (String.concat ", " ms)

let workloads = [ ("plan", plan); ("serve", serve); ("sweep", sweep) ]

(* Digest of the library and benchmark sources, identifying the code
   measured where no git metadata is available. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  match files "lib" @ files "perfbench" with
  | ps -> Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file ps)))
  | exception Sys_error _ -> "unknown"

(* Metric (name, unit) lists of one BENCHMARK.json section. *)
let declared section =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Serve.Sjson.parse text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
    Option.value ~default:[] (Option.bind (Serve.Sjson.member section j) Serve.Sjson.to_list)
    |> List.map (fun m ->
           let j = Some m in
           (Option.value (jstr "name" j) ~default:"", Option.value (jstr "unit" j) ~default:""))

(* Every workload at tiny scale, in both modes: every check passes, no
   operation fails, and the printed metrics are exactly the declared
   ones with their units. *)
let self_test_main () =
  let ok = ref true in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun trace ->
          let r = f tiny ~seed:7 ~seconds:0.2 ~trace in
          let want =
            List.sort compare (declared (if trace = 0 then "end_to_end" else "per_layer"))
          in
          let got = List.sort compare (List.map (fun (n, _, u) -> (n, u)) r.metrics) in
          let pass = r.checks_ok && r.failed = 0 && want = got in
          if not pass then ok := false;
          Printf.printf "self-test %-5s trace=%d: %s (%d metrics)\n%!" name trace
            (if pass then "ok" else "FAILED") (List.length got);
          if want <> got then
            List.iter
              (fun (n, u) ->
                if not (List.mem (n, u) want) then Printf.printf "  undeclared %s [%s]\n" n u)
              got;
          List.iter
            (fun (n, u) ->
              if not (List.mem (n, u) got) then Printf.printf "  missing %s [%s]\n" n u)
            want)
        [ 0; 1 ])
    workloads;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self_test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME plan, serve or sweep");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--self-test", Arg.Set self_test, " tiny-scale run of every workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self_test then self_test_main ()
  else
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline "perfbench: unknown --workload (plan, serve or sweep)";
    exit 2
  | Some f ->
    let r = f full ~seed:!seed ~seconds:!seconds ~trace:!trace in
    Printf.printf
      "perfbench: workload=%s seed=%d trace=%d nproc=%d pool=%d samples=%d git_rev=%s src=%s\n"
      !workload !seed !trace (Domain.recommended_domain_count ()) r.pool r.samples
      (Obs.Export.git_rev ()) (source_digest ());
    print_endline (result_line r)
