open Netgraph
open Te

type config = {
  deadline_ms : float;
  churn_budget : int;
  reopt_evals : int;
  resolve_evals : int;
  lp_every : int;
  prune : bool;
  timings : bool;
  seed : int;
}

let default_config =
  {
    deadline_ms = 1000.;
    churn_budget = 0;
    reopt_evals = 400;
    resolve_evals = 4000;
    lp_every = 1;
    prune = true;
    timings = true;
    seed = 0;
  }

type t = {
  ctx : Obs.Ctx.t;
  cfg : config;
  g : Digraph.t;
  m : int;
  tbl : (int * int, float) Hashtbl.t;  (* current matrix, pair-unique *)
  wps : (int * int, int list) Hashtbl.t;  (* incumbent waypoints; absent = [] *)
  down : (int, unit) Hashtbl.t;
  ev : Engine.Evaluator.t;
  cell : Engine.Evaluator.metrics;
  mutable weights : int array;  (* incumbent *)
  mutable cur_demands : Network.demand array;  (* routable, sorted *)
  mutable cur_setting : Segments.setting;  (* parallel to cur_demands *)
  mutable disconnected : int;
  lp : Mcf.session;
  mutable lp_last : float;  (* nan until first solve *)
  mutable mlu : float;
  mutable seq : int;
  mutable updates : int;
  mutable errors : int;
  mutable improved : int;
  mutable degraded : int;
  mutable deadline_hits : int;
  mutable weight_churn_total : int;
  mutable waypoint_churn_total : int;
  mutable lat : float array;
  mutable lat_n : int;
  mutable finished : bool;
}

(* ------------------------------------------------------------------ *)
(* State sync                                                           *)
(* ------------------------------------------------------------------ *)

(* The evaluator invariant between events: weights = incumbent with
   down links at infinity, commodities = the expanded routable matrix
   under the incumbent waypoints, everything committed. *)

let install_weights t =
  let wf = Weights.of_ints t.weights in
  Hashtbl.iter (fun e () -> wf.(e) <- infinity) t.down;
  Engine.Evaluator.set_weights t.ev wf;
  Engine.Evaluator.commit t.ev

(* Rebuild the routable demand view from the matrix table: demands
   sorted by (src, dst); pairs with no route at all are counted out;
   incumbent waypoints whose segments a failure broke are reset to
   direct routing (a forced waypoint change, returned as [resets]). *)
let rebuild t =
  let pairs =
    Hashtbl.fold (fun (src, dst) size acc -> { Demand.src; dst; size } :: acc)
      t.tbl []
  in
  let demands = ref [] and setting = ref [] in
  let disconnected = ref 0 and resets = ref 0 in
  List.iter
    (fun ({ Demand.src; dst; _ } as d) ->
      if not (Engine.Evaluator.reachable t.ev ~src ~dst) then incr disconnected
      else begin
        let w = Option.value (Hashtbl.find_opt t.wps (src, dst)) ~default:[] in
        let w =
          if
            w <> []
            && not
                 (List.for_all
                    (fun (a, b) -> Engine.Evaluator.reachable t.ev ~src:a ~dst:b)
                    (Segments.segment_endpoints d w))
          then begin
            Hashtbl.remove t.wps (src, dst);
            incr resets;
            []
          end
          else w
        in
        demands := d :: !demands;
        setting := w :: !setting
      end)
    (List.sort Demand.compare_pair pairs);
  t.cur_demands <- Array.of_list (List.rev !demands);
  t.cur_setting <- Array.of_list (List.rev !setting);
  t.disconnected <- !disconnected;
  !resets

let sync_commodities t =
  Engine.Evaluator.set_commodities t.ev
    (Segments.expand t.cur_demands t.cur_setting);
  if Array.length t.cur_demands = 0 then t.mlu <- 0.
  else begin
    Engine.Evaluator.evaluate_into t.ev t.cell;
    t.mlu <- t.cell.Engine.Evaluator.mlu
  end

(* ------------------------------------------------------------------ *)
(* LP lower bound                                                       *)
(* ------------------------------------------------------------------ *)

(* The min-MLU LP on the current matrix, through the daemon's warm
   [Mcf.session].  The session keys the LP by its shape, the sorted
   destination set: a delta that changes sizes, or adds or drops a pair
   under a known destination, rewrites only the supplies and re-solves
   by the primal simplex from the kept basis; a destination appearing
   or vanishing rebuilds the LP and solves it cold.  One [serve:lp]
   span carries the solve's [pivots], its [path] (cold, or primal from
   the kept basis) and whether it [rebuilt] the LP.  Skipped while
   links are down: the LP is built on the full graph, so its bound
   would not be a bound for the degraded topology. *)
let lp_bound t =
  if Hashtbl.length t.down > 0 || Array.length t.cur_demands = 0 then None
  else begin
    let tracer = t.ctx.Obs.Ctx.tracer in
    let tok = Obs.Tracer.start tracer "serve:lp" in
    let bound =
      match Mcf.solve ~probe:(Obs.Tracer.lp_probe tracer) t.lp t.cur_demands with
      | r ->
        Engine.Stats.record_lp t.ctx.Obs.Ctx.stats ~solves:1 ~pivots:r.Mcf.pivots
          ~warm:(Bool.to_int r.Mcf.warm);
        Obs.Tracer.attr tracer tok (Obs.Attr.int "pivots" r.Mcf.pivots);
        Obs.Tracer.attr tracer tok
          (Obs.Attr.str "path" (if r.Mcf.warm then "primal" else "cold"));
        Obs.Tracer.attr tracer tok (Obs.Attr.bool "rebuilt" r.Mcf.rebuilt);
        t.lp_last <- r.Mcf.value;
        Some r.Mcf.value
      | exception Failure _ -> None
    in
    Obs.Tracer.finish tracer tok;
    bound
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let create ctx cfg ~deployed_weights ~deployed_waypoints g demands =
  let m = Digraph.edge_count g in
  if Array.length deployed_weights <> m then
    invalid_arg "Daemon.create: weight vector length mismatch";
  if Array.length deployed_waypoints <> Array.length demands then
    invalid_arg "Daemon.create: waypoint setting length mismatch";
  if cfg.lp_every < 0 then invalid_arg "Daemon.create: lp_every must be >= 0";
  let tbl = Hashtbl.create 64 and wps = Hashtbl.create 64 in
  Array.iteri
    (fun i d ->
      let pair = (d.Network.src, d.Network.dst) in
      let prev = Option.value (Hashtbl.find_opt tbl pair) ~default:0. in
      Hashtbl.replace tbl pair (prev +. d.Network.size);
      if deployed_waypoints.(i) <> [] then
        Hashtbl.replace wps pair deployed_waypoints.(i))
    demands;
  let ev =
    Engine.Evaluator.create ~stats:ctx.Obs.Ctx.stats ~probe:(Obs.Ctx.probe ctx)
      g
      (Weights.of_ints deployed_weights)
  in
  let t =
    {
      ctx;
      cfg;
      g;
      m;
      tbl;
      wps;
      down = Hashtbl.create 4;
      ev;
      cell = { Engine.Evaluator.mlu = 0.; phi = 0. };
      weights = Array.copy deployed_weights;
      cur_demands = [||];
      cur_setting = [||];
      disconnected = 0;
      lp = Mcf.session g;
      lp_last = nan;
      mlu = 0.;
      seq = 0;
      updates = 0;
      errors = 0;
      improved = 0;
      degraded = 0;
      deadline_hits = 0;
      weight_churn_total = 0;
      waypoint_churn_total = 0;
      lat = Array.make 256 0.;
      lat_n = 0;
      finished = false;
    }
  in
  ignore (rebuild t : int);
  sync_commodities t;
  t

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

let num i = Sjson.Num (float_of_int i)

let fnum f = Sjson.Num f

let opt_num = function Some f -> Sjson.Num f | None -> Sjson.Null

let respond seq fields =
  Sjson.render
    (Sjson.Obj (("schema", Sjson.Str "serve/1") :: ("seq", num seq) :: fields))

let record_latency t dt =
  if t.lat_n = Array.length t.lat then begin
    let bigger = Array.make (2 * t.lat_n) 0. in
    Array.blit t.lat 0 bigger 0 t.lat_n;
    t.lat <- bigger
  end;
  t.lat.(t.lat_n) <- dt;
  t.lat_n <- t.lat_n + 1

let quantile lat q =
  let n = Array.length lat in
  if n = 0 then nan
  else begin
    let s = Array.copy lat in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let latencies t = Array.sub t.lat 0 t.lat_n

(* ------------------------------------------------------------------ *)
(* Event application                                                    *)
(* ------------------------------------------------------------------ *)

exception Reject of string

(* Mutate the matrix / link state.  Validation that can fail runs
   before any mutation, so a rejected event leaves the state intact. *)
let apply t = function
  | Event.Delta changes ->
    List.iter
      (fun c ->
        let pair = (c.Event.src, c.Event.dst) in
        if c.Event.size > 0. then Hashtbl.replace t.tbl pair c.Event.size
        else begin
          Hashtbl.remove t.tbl pair;
          Hashtbl.remove t.wps pair
        end)
      changes
  | Event.Set_matrix changes ->
    let fresh = Hashtbl.create (List.length changes) in
    List.iter
      (fun c ->
        if c.Event.size > 0. then
          Hashtbl.replace fresh (c.Event.src, c.Event.dst) c.Event.size)
      changes;
    Hashtbl.reset t.tbl;
    Hashtbl.iter (fun pair size -> Hashtbl.replace t.tbl pair size) fresh;
    (* Waypoints survive for pairs present in the new matrix; the rest
       are dropped with their demands. *)
    let stale =
      Hashtbl.fold
        (fun pair _ acc ->
          if Hashtbl.mem t.tbl pair then acc else pair :: acc)
        t.wps []
    in
    List.iter (Hashtbl.remove t.wps) stale
  | Event.Link_down edges ->
    List.iter
      (fun e ->
        if Hashtbl.mem t.down e then
          raise (Reject (Printf.sprintf "edge %d is already down" e)))
      edges;
    List.iter (fun e -> Hashtbl.replace t.down e ()) edges
  | Event.Link_up edges ->
    List.iter
      (fun e ->
        if not (Hashtbl.mem t.down e) then
          raise (Reject (Printf.sprintf "edge %d is not down" e)))
      edges;
    List.iter (Hashtbl.remove t.down) edges
  | Event.Resolve | Event.Report | Event.Quit -> ()

(* ------------------------------------------------------------------ *)
(* The update path                                                      *)
(* ------------------------------------------------------------------ *)

let update t seq ev =
  let t0 = Engine.Mono.now () in
  let deadline =
    if t.cfg.deadline_ms > 0. then Some (t0 +. (t.cfg.deadline_ms /. 1000.))
    else if t.cfg.deadline_ms = 0. then Some t0
    else None
  in
  let ctx = { t.ctx with Obs.Ctx.deadline } in
  Obs.Ctx.span ctx "serve:update" (fun () ->
      apply t ev;
      install_weights t;
      let resets = rebuild t in
      sync_commodities t;
      let mlu_before = t.mlu in
      let no_work = Array.length t.cur_demands = 0 in
      let degraded = (not no_work) && Obs.Ctx.expired ctx in
      let weight_churn = ref 0 and waypoint_churn = ref resets in
      let deadline_hit = ref false in
      if (not no_work) && not degraded then begin
        let evals =
          match ev with
          | Event.Resolve -> t.cfg.resolve_evals
          | _ -> t.cfg.reopt_evals
        in
        let budget =
          match ev with
          | Event.Resolve -> t.m
          | _ when t.cfg.churn_budget > 0 -> t.cfg.churn_budget
          | _ -> max 1 (t.m / 10)
        in
        let ls_params =
          {
            Local_search.default_params with
            Local_search.seed = t.cfg.seed + (7919 * seq);
            max_evals = evals;
          }
        in
        let frozen_edges =
          List.sort Int.compare
            (Hashtbl.fold (fun e () acc -> e :: acc) t.down [])
        in
        let prune =
          if t.cfg.prune then Some (Prune.spec Prune.default_k) else None
        in
        let r =
          Reopt.reoptimize_ctx ctx ~ls_params ~max_weight_changes:budget
            ~frozen_edges ~ev:t.ev ?prune ~deployed_weights:t.weights
            ~deployed_waypoints:t.cur_setting t.g t.cur_demands
        in
        if Obs.Ctx.expired ctx then begin
          deadline_hit := true;
          t.deadline_hits <- t.deadline_hits + 1
        end;
        weight_churn := r.Reopt.churn.Reopt.weight_changes;
        waypoint_churn := !waypoint_churn + r.Reopt.churn.Reopt.waypoint_changes;
        t.weights <- r.Reopt.weights;
        Array.iteri
          (fun i d ->
            let pair = (d.Network.src, d.Network.dst) in
            match r.Reopt.waypoints.(i) with
            | [] -> Hashtbl.remove t.wps pair
            | w -> Hashtbl.replace t.wps pair w)
          t.cur_demands;
        t.cur_setting <- r.Reopt.waypoints;
        (* Re-sync the evaluator to what we just deployed: the search
           left it at its last probe state. *)
        install_weights t;
        sync_commodities t
      end
      else if degraded then t.degraded <- t.degraded + 1;
      let mlu_after = t.mlu in
      if mlu_after < mlu_before -. 1e-12 then t.improved <- t.improved + 1;
      t.updates <- t.updates + 1;
      t.weight_churn_total <- t.weight_churn_total + !weight_churn;
      t.waypoint_churn_total <- t.waypoint_churn_total + !waypoint_churn;
      let dt = Engine.Mono.now () -. t0 in
      record_latency t dt;
      (* The LP gap readout runs off the update clock: the deadline
         governs time-to-deployable-setting, the bound is advisory.
         [lp_every] thins the cadence on topologies where even a warm
         solve dwarfs the re-optimization itself; [resolve] always
         pays for a fresh bound unless the bound is off ([lp_every = 0]). *)
      let lp_due =
        t.cfg.lp_every > 0
        &&
        match ev with
        | Event.Resolve -> true
        | _ -> (t.updates - 1) mod t.cfg.lp_every = 0
      in
      let lp = if lp_due then lp_bound t else None in
      let gap =
        match lp with
        | Some b when b > 0. -> Some (mlu_after /. b)
        | _ -> None
      in
      let base =
        [
          ("event", Sjson.Str (Event.name ev));
          ("status", Sjson.Str "ok");
          ("demands", num (Array.length t.cur_demands));
          ("disconnected", num t.disconnected);
          ("mlu_before", fnum mlu_before);
          ("mlu_after", fnum mlu_after);
          ("lp_bound", opt_num lp);
          ("gap", opt_num gap);
          ("weight_churn", num !weight_churn);
          ("waypoint_churn", num !waypoint_churn);
          ("degraded", Sjson.Bool degraded);
          ("deadline_hit", Sjson.Bool !deadline_hit);
        ]
      in
      let base =
        if t.cfg.timings then base @ [ ("latency_ms", fnum (1000. *. dt)) ]
        else base
      in
      respond seq base)

(* [report] is a read-only query: it shows the last computed bound
   (possibly from an earlier matrix) rather than paying for a fresh
   solve; [resolve] is the event that buys a fresh one. *)
let report t seq =
  let lp = if Float.is_nan t.lp_last then None else Some t.lp_last in
  let down =
    List.sort Int.compare (Hashtbl.fold (fun e () acc -> e :: acc) t.down [])
  in
  let base =
    [
      ("event", Sjson.Str "report");
      ("status", Sjson.Str "ok");
      ("demands", num (Array.length t.cur_demands));
      ("disconnected", num t.disconnected);
      ("down", Sjson.Arr (List.map num down));
      ("mlu", fnum t.mlu);
      ("lp_bound", opt_num lp);
      ("updates", num t.updates);
      ("errors", num t.errors);
      ("weight_churn_total", num t.weight_churn_total);
      ("waypoint_churn_total", num t.waypoint_churn_total);
    ]
  in
  let base =
    if t.cfg.timings && t.lat_n > 0 then
      let lat = latencies t in
      base
      @ [
          ("p50_ms", fnum (1000. *. quantile lat 0.5));
          ("p99_ms", fnum (1000. *. quantile lat 0.99));
        ]
    else base
  in
  respond seq base

let handle_line t line =
  if t.finished then None
  else begin
    let line = String.trim line in
    if line = "" then None
    else begin
      let seq = t.seq in
      t.seq <- seq + 1;
      match Event.parse t.g line with
      | Result.Error msg ->
        t.errors <- t.errors + 1;
        Some
          (respond seq
             [ ("status", Sjson.Str "error"); ("error", Sjson.Str msg) ])
      | Ok Event.Quit ->
        t.finished <- true;
        Some
          (respond seq
             [
               ("event", Sjson.Str "quit");
               ("status", Sjson.Str "ok");
               ("updates", num t.updates);
               ("errors", num t.errors);
             ])
      | Ok Event.Report -> Some (report t seq)
      | Ok ev -> (
        match update t seq ev with
        | resp -> Some resp
        | exception Reject msg ->
          t.errors <- t.errors + 1;
          Some
            (respond seq
               [ ("status", Sjson.Str "error"); ("error", Sjson.Str msg) ]))
    end
  end

let finished t = t.finished

let run t ic oc =
  (try
     while not t.finished do
       let line = input_line ic in
       match handle_line t line with
       | Some resp ->
         output_string oc resp;
         output_char oc '\n';
         flush oc
       | None -> ()
     done
   with End_of_file -> ());
  flush oc

type summary = {
  events : int;
  updates : int;
  errors : int;
  improved : int;
  degraded : int;
  deadline_hits : int;
  weight_churn_total : int;
  waypoint_churn_total : int;
  disconnected : int;
  mlu : float;
  lp_bound : float;
  latencies : float array;
}

let summary t =
  {
    events = t.seq;
    updates = t.updates;
    errors = t.errors;
    improved = t.improved;
    degraded = t.degraded;
    deadline_hits = t.deadline_hits;
    weight_churn_total = t.weight_churn_total;
    waypoint_churn_total = t.waypoint_churn_total;
    disconnected = t.disconnected;
    mlu = t.mlu;
    lp_bound = t.lp_last;
    latencies = latencies t;
  }

let mlu (t : t) = t.mlu

let state (t : t) = (Array.copy t.weights, t.cur_demands, t.cur_setting)
