open Netgraph
open Te

(* ------------------------------------------------------------------ *)
(* Scenario grammar                                                    *)
(* ------------------------------------------------------------------ *)

type shift =
  | No_shift
  | Uniform of float
  | Jitter of { seed : int; sigma : float }
  | Hotspot of { seed : int; pairs : int; factor : float }
  | Diurnal of { level : float }

type spec = { id : int; failed : int list; shift : shift }

type config = {
  seed : int;
  fail_pairs : bool;
  include_baseline : bool;
  dual_failures : int;
  srlgs : int list list;
  scales : float list;
  jitters : int;
  hotspots : int;
  diurnal : int;
  cross : bool;
}

let default_config =
  {
    seed = 1;
    fail_pairs = true;
    include_baseline = true;
    dual_failures = 0;
    srlgs = [];
    scales = [];
    jitters = 0;
    hotspots = 0;
    diurnal = 0;
    cross = false;
  }

let validate cfg =
  List.iter
    (fun s ->
      if not (s > 0.) then invalid_arg "Scenario.generate: scale must be > 0")
    cfg.scales;
  if cfg.dual_failures < 0 || cfg.jitters < 0 || cfg.hotspots < 0
     || cfg.diurnal < 0
  then invalid_arg "Scenario.generate: negative scenario count"

(* The reverse link of equal capacity, if one exists. *)
let twin g e =
  let u = Digraph.src g e and v = Digraph.dst g e in
  Array.find_opt
    (fun e' -> e' <> e && Digraph.dst g e' = u && Digraph.cap g e' = Digraph.cap g e)
    (Digraph.out_edges g v)

(* One single-failure case per link (per unordered twin pair with
   [fail_pairs]) in edge-id order; the lowest member edge id leads. *)
let failure_groups ~fail_pairs g =
  let m = Digraph.edge_count g in
  let seen = Array.make m false in
  let out = ref [] in
  for e = 0 to m - 1 do
    if not seen.(e) then begin
      seen.(e) <- true;
      let removed =
        match if fail_pairs then twin g e else None with
        | Some e' when not seen.(e') ->
          seen.(e') <- true;
          [ e; e' ]
        | _ -> [ e ]
      in
      out := removed :: !out
    end
  done;
  List.rev !out

(* Sampled unordered pairs of single-failure cases.  The RNG derives
   from the config seed only, so the sample is one fixed set no matter
   where generation runs. *)
let sample_duals cfg singles =
  if cfg.dual_failures = 0 then []
  else begin
    let arr = Array.of_list singles in
    let n = Array.length arr in
    let total = n * (n - 1) / 2 in
    if total = 0 then []
    else if cfg.dual_failures >= total then begin
      let out = ref [] in
      for i = n - 1 downto 0 do
        for j = n - 1 downto i + 1 do
          out := (arr.(i) @ arr.(j)) :: !out
        done
      done;
      !out
    end
    else begin
      let st = Random.State.make [| 0x2fa1; cfg.seed |] in
      let seen = Hashtbl.create cfg.dual_failures in
      let out = ref [] in
      while Hashtbl.length seen < cfg.dual_failures do
        let i = Random.State.int st n and j = Random.State.int st n in
        if i <> j then begin
          let key = (min i j, max i j) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            out := (arr.(fst key) @ arr.(snd key)) :: !out
          end
        end
      done;
      List.rev !out
    end
  end

let generate cfg g =
  validate cfg;
  let m = Digraph.edge_count g in
  List.iter
    (List.iter (fun e ->
         if e < 0 || e >= m then
           invalid_arg "Scenario.generate: SRLG edge outside the graph"))
    cfg.srlgs;
  let singles = failure_groups ~fail_pairs:cfg.fail_pairs g in
  let fail_cases = singles @ cfg.srlgs @ sample_duals cfg singles in
  let shifts =
    List.map (fun f -> Uniform f) cfg.scales
    @ List.init cfg.jitters (fun j ->
          Jitter { seed = (cfg.seed * 8191) + j; sigma = 0.25 })
    @ List.init cfg.hotspots (fun j ->
          Hotspot { seed = (cfg.seed * 524287) + j; pairs = 3; factor = 3. })
    @ List.init cfg.diurnal (fun j ->
          Diurnal { level = float_of_int j /. float_of_int cfg.diurnal })
  in
  let cases =
    if cfg.cross then
      List.concat_map
        (fun f -> List.map (fun s -> (f, s)) (No_shift :: shifts))
        ([] :: fail_cases)
      |> List.filter (fun (f, s) ->
             cfg.include_baseline || f <> [] || s <> No_shift)
    else
      (if cfg.include_baseline then [ ([], No_shift) ] else [])
      @ List.map (fun f -> (f, No_shift)) fail_cases
      @ List.map (fun s -> ([], s)) shifts
  in
  Array.of_list (List.mapi (fun id (failed, shift) -> { id; failed; shift }) cases)

(* ------------------------------------------------------------------ *)
(* Demand shifts                                                       *)
(* ------------------------------------------------------------------ *)

let gaussian st =
  let u1 = 1. -. Random.State.float st 1. in
  let u2 = Random.State.float st 1. in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

(* The shifted demand matrix.  [No_shift] returns the input array
   itself; every other shift builds a fresh array and touches only the
   sizes.  Pure: same shift, same demands, same result. *)
let apply_shift shift demands =
  match shift with
  | No_shift -> demands
  | Uniform f ->
    Array.map
      (fun (d : Network.demand) -> { d with Network.size = d.Network.size *. f })
      demands
  | Jitter { seed; sigma } ->
    let st = Random.State.make [| 0x71e2; seed |] in
    Array.map
      (fun (d : Network.demand) ->
        { d with Network.size = d.Network.size *. exp (sigma *. gaussian st) })
      demands
  | Hotspot { seed; pairs; factor } ->
    let st = Random.State.make [| 0x4075; seed |] in
    let n = Array.length demands in
    let idx = Array.init n (fun i -> i) in
    let k = min pairs n in
    for i = 0 to k - 1 do
      let j = i + Random.State.int st (n - i) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    let hot = Hashtbl.create (max 1 k) in
    for i = 0 to k - 1 do
      Hashtbl.replace hot idx.(i) ()
    done;
    Array.mapi
      (fun i (d : Network.demand) ->
        if Hashtbl.mem hot i then
          { d with Network.size = d.Network.size *. factor }
        else d)
      demands
  | Diurnal { level } ->
    (* Each source city peaks at its own hour; the factor stays within
       [0.4, 1.2] so sizes remain positive. *)
    Array.map
      (fun (d : Network.demand) ->
        let phase = float_of_int (((23 * d.Network.src) + 7) mod 24) /. 24. in
        let x = 0.5 +. (0.5 *. sin (2. *. Float.pi *. (level +. phase))) in
        { d with Network.size = d.Network.size *. (0.4 +. (0.8 *. x)) })
      demands

(* ------------------------------------------------------------------ *)
(* Serving replays                                                      *)
(* ------------------------------------------------------------------ *)

type replay = {
  replay_seed : int;
  steps : int;
  days : float;
  flash_crowds : int;
  flash_pairs : int;
  flash_factor : float;
  flash_len : int;
  report_every : int;
  quit : bool;
}

let default_replay =
  {
    replay_seed = 1;
    steps = 100;
    days = 1.;
    flash_crowds = 2;
    flash_pairs = 3;
    flash_factor = 3.;
    flash_len = 8;
    report_every = 0;
    quit = true;
  }

let replay_events r demands =
  if r.steps <= 0 then invalid_arg "Scenario.replay_events: steps must be positive";
  if r.flash_crowds < 0 || r.flash_pairs < 0 || r.flash_len < 0 then
    invalid_arg "Scenario.replay_events: negative flash-crowd parameter";
  if not (r.flash_factor > 0.) then
    invalid_arg "Scenario.replay_events: flash factor must be positive";
  let base = Demand.aggregate demands in
  (* Each flash crowd is a seeded hotspot burst over a contiguous step
     window; the window start and the pair pick both derive from the
     replay seed, so the trace is a pure function of the spec. *)
  let crowds =
    List.init r.flash_crowds (fun c ->
        let st = Random.State.make [| 0x5e2e; r.replay_seed; c |] in
        let start = Random.State.int st (max 1 (r.steps - r.flash_len + 1)) in
        let hs =
          Hotspot
            {
              seed = (r.replay_seed * 131071) + c;
              pairs = r.flash_pairs;
              factor = r.flash_factor;
            }
        in
        (start, hs))
  in
  let prev = Array.map (fun (d : Network.demand) -> d.Network.size) base in
  let buf = Buffer.create 4096 in
  let lines = ref [] in
  for t = 0 to r.steps - 1 do
    let level =
      let x = r.days *. float_of_int (t + 1) /. float_of_int r.steps in
      x -. Float.of_int (int_of_float x)
    in
    let matrix = apply_shift (Diurnal { level }) base in
    let matrix =
      List.fold_left
        (fun m (start, hs) ->
          if t >= start && t < start + r.flash_len then apply_shift hs m
          else m)
        matrix crowds
    in
    Buffer.clear buf;
    let changes = ref 0 in
    Array.iteri
      (fun i (d : Network.demand) ->
        let s = d.Network.size in
        if abs_float (s -. prev.(i)) > 1e-12 *. (1. +. abs_float prev.(i))
        then begin
          if !changes > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "{\"src\":%d,\"dst\":%d,\"size\":%.17g}"
               d.Network.src d.Network.dst s);
          incr changes;
          prev.(i) <- s
        end)
      matrix;
    if !changes > 0 then
      lines :=
        Printf.sprintf "{\"ev\":\"delta\",\"changes\":[%s]}"
          (Buffer.contents buf)
        :: !lines;
    if r.report_every > 0 && (t + 1) mod r.report_every = 0 then
      lines := "{\"ev\":\"report\"}" :: !lines
  done;
  if r.quit then lines := "{\"ev\":\"quit\"}" :: !lines;
  List.rev !lines

let shift_label = function
  | No_shift -> "nominal"
  | Uniform f -> Printf.sprintf "scale=%.2f" f
  | Jitter { seed; sigma } -> Printf.sprintf "jitter#%d s=%.2f" seed sigma
  | Hotspot { seed; pairs; factor } ->
    Printf.sprintf "hotspot#%d %dx%.1f" seed pairs factor
  | Diurnal { level } -> Printf.sprintf "diurnal t=%.2f" level

(* Human-readable label, e.g. ["fail:A>B+B>A jitter#0 s=0.25"]. *)
let spec_label g s =
  let fail =
    match s.failed with
    | [] -> "ok"
    | es ->
      "fail:"
      ^ String.concat "+"
          (List.map
             (fun e ->
               Printf.sprintf "%s>%s"
                 (Digraph.node_name g (Digraph.src g e))
                 (Digraph.node_name g (Digraph.dst g e)))
             es)
  in
  fail ^ " " ^ shift_label s.shift

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)
(* ------------------------------------------------------------------ *)

type policy = Static | Repair | Reweight of int

let policy_name = function
  | Static -> "static"
  | Repair -> "repair"
  | Reweight k -> Printf.sprintf "reweight:%d" k

let policy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "static" -> Static
  | "repair" -> Repair
  | _ when String.length s > 9 && String.sub s 0 9 = "reweight:" -> (
    match int_of_string_opt (String.sub s 9 (String.length s - 9)) with
    | Some k when k >= 0 -> Reweight k
    | _ ->
      invalid_arg ("Scenario.policies_of_string: bad reweight budget in " ^ s))
  | _ -> invalid_arg ("Scenario.policies_of_string: unknown policy " ^ s)

let policies_of_string s =
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map policy_of_string

type deployed = { weights : int array; waypoints : Segments.setting }

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

type policy_outcome = {
  policy : policy;
  disconnected : int;
  mlu : float;
  weight_changes : int;
  waypoint_changes : int;
}

type outcome = {
  spec : spec;
  static_disconnected : int;
  topo_disconnected : int;
  static_mlu : float;
  policies : policy_outcome list;
}

(* One policy reaction to one scenario.  Runs on fresh evaluators (the
   optimizers build their own), so the outcome is a pure function of the
   spec — independent of which worker runs it and of anything cached in
   the sweep evaluators. *)
let run_policy ~(kctx : Obs.Ctx.t) ~g ~deployed ~reopt_evals ~spec ~demands'
    ~static_disconnected ~topo_disconnected ~static_mlu policy =
  Obs.Ctx.span kctx ("scn:policy:" ^ policy_name policy) @@ fun () ->
  match policy with
  | Static ->
    {
      policy = Static;
      disconnected = static_disconnected;
      mlu = static_mlu;
      weight_changes = 0;
      waypoint_changes = 0;
    }
  | Repair ->
    if topo_disconnected > 0 then
      {
        policy = Repair;
        disconnected = topo_disconnected;
        mlu = nan;
        weight_changes = 0;
        waypoint_changes = 0;
      }
    else begin
      let wrep = Weights.of_ints deployed.weights in
      List.iter (fun e -> wrep.(e) <- infinity) spec.failed;
      let r = Greedy_wpo.optimize_ctx kctx g wrep demands' in
      if static_disconnected = 0 && static_mlu <= r.Greedy_wpo.mlu +. 1e-12 then
        (* The deployed waypoints still route everything and are at
           least as good: keep them, zero churn. *)
        {
          policy = Repair;
          disconnected = 0;
          mlu = static_mlu;
          weight_changes = 0;
          waypoint_changes = 0;
        }
      else begin
        let setting = Segments.of_single r.Greedy_wpo.waypoints in
        let changes = ref 0 in
        Array.iteri
          (fun i wps -> if wps <> deployed.waypoints.(i) then incr changes)
          setting;
        {
          policy = Repair;
          disconnected = 0;
          mlu = r.Greedy_wpo.mlu;
          weight_changes = 0;
          waypoint_changes = !changes;
        }
      end
    end
  | Reweight k ->
    if static_disconnected > 0 then
      {
        policy = Reweight k;
        disconnected = static_disconnected;
        mlu = nan;
        weight_changes = 0;
        waypoint_changes = 0;
      }
    else begin
      let r =
        Reopt.reoptimize_ctx kctx
          ~ls_params:
            {
              Local_search.default_params with
              Local_search.max_evals = reopt_evals;
              Local_search.seed = 0x5eed + spec.id;
            }
          ~max_weight_changes:k ~frozen_edges:spec.failed
          ~deployed_weights:deployed.weights
          ~deployed_waypoints:deployed.waypoints g demands'
      in
      {
        policy = Reweight k;
        disconnected = 0;
        mlu = r.Reopt.mlu;
        weight_changes = r.Reopt.churn.Reopt.weight_changes;
        waypoint_changes = r.Reopt.churn.Reopt.waypoint_changes;
      }
    end

let sweep_ctx (octx : Obs.Ctx.t) ?(policies = [ Static ])
    ?(reopt_evals = 400) ~deployed g demands specs =
  if Array.length deployed.weights <> Digraph.edge_count g then
    invalid_arg "Scenario.sweep: deployed weight length mismatch";
  if Array.length deployed.waypoints <> Array.length demands then
    invalid_arg "Scenario.sweep: deployed waypoint length mismatch";
  let pool = octx.Obs.Ctx.pool in
  let segs =
    Array.mapi
      (fun i d -> Segments.segment_endpoints d deployed.waypoints.(i))
      demands
  in
  let master =
    Engine.Evaluator.create ~stats:octx.Obs.Ctx.stats g
      (Weights.of_ints deployed.weights)
  in
  let nominal = Segments.expand demands deployed.waypoints in
  Engine.Evaluator.set_commodities master nominal;
  (* Warm the master on this domain, before the fan-out: every segment
     destination's DAG, then, when every segment routes, every
     destination's load contribution.  [reachable] never raises, so an
     unroutable deployment warms its DAGs and nothing else.  A
     scenario's disable + undo restores exactly this state, so every
     scenario starts from it, on whichever worker: the engine's work
     counters, like the outcomes, depend on the spec list alone. *)
  let routable =
    Array.fold_left
      (List.fold_left (fun ok (a, b) ->
           Engine.Evaluator.reachable master ~src:a ~dst:b && ok))
      true segs
  in
  let warm_loads ev =
    if routable then ignore (Engine.Evaluator.loads ev : float array)
  in
  warm_loads master;
  (* Worker 0 probes on the master itself, every other worker on its own
     copy, taken here because [copy] bumps the source's epoch. *)
  let par = max 1 (Par.Pool.parallelism pool) in
  let evs =
    Array.init par (fun w -> if w = 0 then master else Engine.Evaluator.copy master)
  in
  (* Per-worker metrics cells: the static probe of each scenario writes
     its (mlu, phi) here instead of allocating a result tuple. *)
  let cells =
    Array.init par (fun _ -> { Engine.Evaluator.mlu = 0.; phi = 0. })
  in
  (* One child context per scenario, created up front on this domain and
     grafted back in spec order: the trace and stats are a pure
     function of the spec list, never of worker scheduling. *)
  let kids = Array.map (fun _ -> Obs.Ctx.fork octx) specs in
  (* One task per spec: its static probe on the worker's own evaluator
     (failure injection, reachability, static MLU), then the
     re-optimization policies, which build their own evaluators from
     the spec's forked context. *)
  let out =
    Par.Pool.map pool ~tasks:(Array.length specs) (fun ~worker i ->
      let spec = specs.(i) in
      let kctx = kids.(i) in
      Obs.Ctx.span kctx ~attrs:[ Obs.Attr.int "spec" spec.id ] "scn:case"
      @@ fun () ->
      let ev = evs.(worker) in
      let demands' = apply_shift spec.shift demands in
      (* A shifted spec attaches its matrix for the probe and puts the
         warm nominal state back after it.  Both must happen while the
         undo trail is empty. *)
      let shifted = spec.shift <> No_shift in
      if shifted then
        Engine.Evaluator.set_commodities ev
          (Segments.expand demands' deployed.waypoints);
      List.iter (fun e -> Engine.Evaluator.disable_edge ev ~edge:e) spec.failed;
      let static_disconnected = ref 0 and topo_disconnected = ref 0 in
      Array.iteri
        (fun di (d : Network.demand) ->
          if
            not
              (List.for_all
                 (fun (a, b) -> Engine.Evaluator.reachable ev ~src:a ~dst:b)
                 segs.(di))
          then incr static_disconnected;
          if
            not
              (Engine.Evaluator.reachable ev ~src:d.Network.src
                 ~dst:d.Network.dst)
          then incr topo_disconnected)
        demands;
      let static_mlu =
        if !static_disconnected > 0 then nan
        else begin
          let c = cells.(worker) in
          Engine.Evaluator.evaluate_into ev c;
          c.Engine.Evaluator.mlu
        end
      in
      Engine.Evaluator.undo ev;
      if shifted then begin
        Engine.Evaluator.set_commodities ev nominal;
        warm_loads ev
      end;
      {
        spec;
        static_disconnected = !static_disconnected;
        topo_disconnected = !topo_disconnected;
        static_mlu;
        policies =
          List.map
            (run_policy ~kctx ~g ~deployed ~reopt_evals ~spec ~demands'
               ~static_disconnected:!static_disconnected
               ~topo_disconnected:!topo_disconnected ~static_mlu)
            policies;
      })
  in
  for w = 1 to par - 1 do
    Engine.Stats.merge ~into:octx.Obs.Ctx.stats
      (Engine.Evaluator.stats evs.(w))
  done;
  Array.iteri (fun i kid -> Obs.Ctx.join ~key:specs.(i).id ~into:octx kid) kids;
  out

(* The rebuild oracle for one spec: build the surviving subgraph, give
   it fresh ECMP state and route every demand's segments on it. *)
let rebuild_outcome ~deployed g demands spec =
  let kept =
    List.filter
      (fun e -> not (List.mem e spec.failed))
      (List.init (Digraph.edge_count g) Fun.id)
  in
  let g' =
    Digraph.of_edges ~n:(Digraph.node_count g)
      (List.map (fun e -> (Digraph.src g e, Digraph.dst g e, Digraph.cap g e)) kept)
  in
  let ev =
    Engine.Evaluator.create g'
      (Array.of_list (List.map (fun e -> float_of_int deployed.weights.(e)) kept))
  in
  let loads = Array.make (Digraph.edge_count g') 0. in
  let disconnected = ref 0 in
  Array.iteri
    (fun i (d : Network.demand) ->
      try
        List.iter
          (fun (a, b) ->
            Engine.Evaluator.add_unit ev ~src:a ~dst:b ~scale:d.Network.size
              ~into:loads)
          (Segments.segment_endpoints d deployed.waypoints.(i))
      with Engine.Evaluator.Unroutable _ -> incr disconnected)
    (apply_shift spec.shift demands);
  let mlu =
    if !disconnected > 0 then nan else Engine.Evaluator.mlu_of_loads g' loads
  in
  (mlu, !disconnected)

let static_sweep_rebuild ~deployed g demands specs =
  Array.map (rebuild_outcome ~deployed g demands) specs

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

type summary = {
  policy : policy;
  scenarios : int;
  disconnected_scenarios : int;
  worst_mlu : float;
  worst_id : int;
  mean_mlu : float;
  p50 : float;
  p95 : float;
  p99 : float;
  cvar95 : float;
  mean_weight_changes : float;
  mean_waypoint_changes : float;
  delta_worst : float;
  delta_mean : float;
}

type report = {
  topology : string;
  nominal_mlu : float;
  scenario_count : int;
  summaries : summary list;
  worst_cases : (spec * float * int) list;
}

(* Total "how bad" order on (disconnected, mlu) rows: any disconnection
   outranks any MLU, more disconnected demands outrank fewer, and among
   connected rows MLUs compare numerically with a (defensive) nan above
   every number. *)
let compare_severity (d1, m1) (d2, m2) =
  let key m = if Float.is_nan m then infinity else m in
  if d1 > 0 || d2 > 0 then compare d1 d2 else Float.compare (key m1) (key m2)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Aggregate one policy's per-scenario (disconnected, mlu, w-churn,
   wp-churn) rows, [delta] fields relative to [vs] (the static summary)
   when given. *)
let summary_of ?vs policy rows =
  let n = Array.length rows in
  let disc_scens = ref 0 and sum_w = ref 0 and sum_wp = ref 0 in
  let finite = ref [] in
  let worst = ref None in
  Array.iteri
    (fun i (d, m, wc, wpc) ->
      if d > 0 then incr disc_scens;
      sum_w := !sum_w + wc;
      sum_wp := !sum_wp + wpc;
      if (not (Float.is_nan m)) && d = 0 then finite := m :: !finite;
      match !worst with
      | Some (bk, _) when compare_severity (d, m) bk <= 0 -> ()
      | _ -> worst := Some ((d, m), i))
    rows;
  let sorted = Array.of_list (List.rev !finite) in
  Array.sort compare sorted;
  let fn = Array.length sorted in
  let mean a =
    if Array.length a = 0 then nan
    else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
  in
  let cvar95 =
    if fn = 0 then nan
    else begin
      let k = max 1 (int_of_float (ceil (0.05 *. float_of_int fn))) in
      mean (Array.sub sorted (fn - k) k)
    end
  in
  let worst_mlu = if fn = 0 then nan else sorted.(fn - 1) in
  let mean_mlu = mean sorted in
  let fdiv a = float_of_int a /. float_of_int (max 1 n) in
  let delta_worst, delta_mean =
    match vs with
    | None -> (0., 0.)
    | Some s -> (worst_mlu -. s.worst_mlu, mean_mlu -. s.mean_mlu)
  in
  {
    policy;
    scenarios = n;
    disconnected_scenarios = !disc_scens;
    worst_mlu;
    worst_id = (match !worst with Some (_, i) -> i | None -> -1);
    mean_mlu;
    p50 = percentile sorted 0.50;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
    cvar95;
    mean_weight_changes = fdiv !sum_w;
    mean_waypoint_changes = fdiv !sum_wp;
    delta_worst;
    delta_mean;
  }

let summarize ~topology ~nominal_mlu outcomes =
  let static_rows =
    Array.map (fun o -> (o.static_disconnected, o.static_mlu, 0, 0)) outcomes
  in
  let static = summary_of Static static_rows in
  (* worst_id above indexes the rows array; map back to spec ids. *)
  let fix_id s =
    { s with worst_id = (if s.worst_id < 0 then -1 else outcomes.(s.worst_id).spec.id) }
  in
  let static = fix_id static in
  let requested =
    match Array.length outcomes with
    | 0 -> []
    | _ -> List.map (fun (po : policy_outcome) -> po.policy) outcomes.(0).policies
  in
  let others =
    List.mapi
      (fun pos p ->
        match p with
        | Static -> None
        | _ ->
          let rows =
            Array.map
              (fun o ->
                let po = List.nth o.policies pos in
                (po.disconnected, po.mlu, po.weight_changes, po.waypoint_changes))
              outcomes
          in
          Some (fix_id (summary_of ~vs:static p rows)))
      requested
    |> List.filter_map Fun.id
  in
  let worst_cases =
    Array.to_list outcomes
    |> List.map (fun o -> (o.spec, o.static_mlu, o.static_disconnected))
    |> List.stable_sort (fun (_, m1, d1) (_, m2, d2) ->
           compare_severity (d2, m2) (d1, m1))
    |> List.filteri (fun i _ -> i < 5)
  in
  {
    topology;
    nominal_mlu;
    scenario_count = Array.length outcomes;
    summaries = static :: others;
    worst_cases;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

(* [Obs.Json.float] prints 17 significant digits, which round-trip any
   float, so equal reports always serialize to equal bytes (the
   bit-identity contract of the sweep); every report float is finite
   or NaN (null). *)
let report_to_json g r =
  let module J = Obs.Json in
  let int = string_of_int in
  let summary s =
    J.obj
      [ ("policy", J.str (policy_name s.policy));
        ("scenarios", int s.scenarios);
        ("disconnected_scenarios", int s.disconnected_scenarios);
        ("worst_mlu", J.float s.worst_mlu); ("worst_scenario", int s.worst_id);
        ("mean_mlu", J.float s.mean_mlu); ("p50", J.float s.p50);
        ("p95", J.float s.p95); ("p99", J.float s.p99);
        ("cvar95", J.float s.cvar95);
        ("mean_weight_changes", J.float s.mean_weight_changes);
        ("mean_waypoint_changes", J.float s.mean_waypoint_changes);
        ("delta_worst_vs_static", J.float s.delta_worst);
        ("delta_mean_vs_static", J.float s.delta_mean) ]
  in
  let worst (sp, mlu, disc) =
    J.obj
      [ ("id", int sp.id); ("label", J.str (spec_label g sp));
        ("mlu", J.float mlu); ("disconnected", int disc) ]
  in
  J.obj
    [ ("schema", J.str "robustness-report/1"); ("topology", J.str r.topology);
      ("nominal_mlu", J.float r.nominal_mlu);
      ("scenarios", int r.scenario_count);
      ("policies", J.list (List.map summary r.summaries));
      ("worst_cases", J.list (List.map worst r.worst_cases)) ]
