type t = {
  mutable evaluations : int;
  mutable full_spf : int;
  mutable incr_spf : int;
  mutable spf_nodes_touched : int;
  mutable dag_hits : int;
  mutable dag_misses : int;
  mutable unit_hits : int;
  mutable unit_misses : int;
  mutable weight_updates : int;
  mutable dirty_dests : int;
  mutable clean_dests : int;
  mutable commits : int;
  mutable undos : int;
  mutable scenarios : int;
  mutable edges_disabled : int;
  mutable par_regions : int;
  mutable par_tasks : int;
  mutable par_jobs : int;
  mutable par_wall : float;
  mutable par_busy : float;
  mutable worker_evals : int array;
  mutable candidates_pruned : int;
  mutable candidates_kept : int;
  mutable clone_syncs : int;
  mutable clone_copies : int;
  mutable milp_nodes : int;
  mutable lp_solves : int;
  mutable lp_pivots : int;
  mutable lp_warm_solves : int;
  mutable lp_cycle_limits : int;
  timer_tbl : (string, float) Hashtbl.t;
  hot : float array; (* flat accumulators for the hot phases below *)
}

(* Hot-phase timer slots.  The evaluator's inner loops must not allocate,
   and accumulating a duration into the hashtable boxes the float on
   every store; a float-array slot does not.  [timers] / [pp] / [to_json]
   fold these back under their phase names, so consumers see one
   namespace. *)
let hot_spf_full = 0
let hot_spf_incr = 1
let hot_units = 2
let hot_loads = 3
let hot_phases = [| "spf_full"; "spf_incr"; "units"; "loads" |]

let create () =
  {
    evaluations = 0;
    full_spf = 0;
    incr_spf = 0;
    spf_nodes_touched = 0;
    dag_hits = 0;
    dag_misses = 0;
    unit_hits = 0;
    unit_misses = 0;
    weight_updates = 0;
    dirty_dests = 0;
    clean_dests = 0;
    commits = 0;
    undos = 0;
    scenarios = 0;
    edges_disabled = 0;
    par_regions = 0;
    par_tasks = 0;
    par_jobs = 0;
    par_wall = 0.;
    par_busy = 0.;
    worker_evals = [||];
    candidates_pruned = 0;
    candidates_kept = 0;
    clone_syncs = 0;
    clone_copies = 0;
    milp_nodes = 0;
    lp_solves = 0;
    lp_pivots = 0;
    lp_warm_solves = 0;
    lp_cycle_limits = 0;
    timer_tbl = Hashtbl.create 8;
    hot = Array.make (Array.length hot_phases) 0.;
  }

let hot_times s = s.hot

let reset s =
  s.evaluations <- 0;
  s.full_spf <- 0;
  s.incr_spf <- 0;
  s.spf_nodes_touched <- 0;
  s.dag_hits <- 0;
  s.dag_misses <- 0;
  s.unit_hits <- 0;
  s.unit_misses <- 0;
  s.weight_updates <- 0;
  s.dirty_dests <- 0;
  s.clean_dests <- 0;
  s.commits <- 0;
  s.undos <- 0;
  s.scenarios <- 0;
  s.edges_disabled <- 0;
  s.par_regions <- 0;
  s.par_tasks <- 0;
  s.par_jobs <- 0;
  s.par_wall <- 0.;
  s.par_busy <- 0.;
  s.worker_evals <- [||];
  s.candidates_pruned <- 0;
  s.candidates_kept <- 0;
  s.clone_syncs <- 0;
  s.clone_copies <- 0;
  s.milp_nodes <- 0;
  s.lp_solves <- 0;
  s.lp_pivots <- 0;
  s.lp_warm_solves <- 0;
  s.lp_cycle_limits <- 0;
  Hashtbl.reset s.timer_tbl;
  Array.fill s.hot 0 (Array.length s.hot) 0.

let add_time s phase dt =
  let prev = try Hashtbl.find s.timer_tbl phase with Not_found -> 0. in
  Hashtbl.replace s.timer_tbl phase (prev +. dt)

let record_parallel s ~jobs ~tasks ~wall ~busy =
  s.par_regions <- s.par_regions + 1;
  s.par_tasks <- s.par_tasks + tasks;
  if jobs > s.par_jobs then s.par_jobs <- jobs;
  s.par_wall <- s.par_wall +. wall;
  s.par_busy <- s.par_busy +. busy

let record_scenario s = s.scenarios <- s.scenarios + 1

let record_milp s ~nodes ~lp_solves ~lp_pivots ~warm_solves ~cycle_limits =
  s.milp_nodes <- s.milp_nodes + nodes;
  s.lp_solves <- s.lp_solves + lp_solves;
  s.lp_pivots <- s.lp_pivots + lp_pivots;
  s.lp_warm_solves <- s.lp_warm_solves + warm_solves;
  s.lp_cycle_limits <- s.lp_cycle_limits + cycle_limits

let record_lp_solve s ~pivots =
  s.lp_solves <- s.lp_solves + 1;
  s.lp_pivots <- s.lp_pivots + pivots

let record_pruning s ~pruned ~kept =
  if pruned < 0 || kept < 0 then
    invalid_arg "Stats.record_pruning: negative count";
  s.candidates_pruned <- s.candidates_pruned + pruned;
  s.candidates_kept <- s.candidates_kept + kept

let record_worker_evals s ~worker n =
  if worker < 0 then invalid_arg "Stats.record_worker_evals: negative worker";
  if worker >= Array.length s.worker_evals then begin
    let grown = Array.make (worker + 1) 0 in
    Array.blit s.worker_evals 0 grown 0 (Array.length s.worker_evals);
    s.worker_evals <- grown
  end;
  s.worker_evals.(worker) <- s.worker_evals.(worker) + n

let parallel_efficiency s =
  if s.par_regions = 0 || s.par_jobs = 0 || s.par_wall <= 0. then nan
  else s.par_busy /. (s.par_wall *. float_of_int s.par_jobs)

let merge ~into s =
  into.evaluations <- into.evaluations + s.evaluations;
  into.full_spf <- into.full_spf + s.full_spf;
  into.incr_spf <- into.incr_spf + s.incr_spf;
  into.spf_nodes_touched <- into.spf_nodes_touched + s.spf_nodes_touched;
  into.dag_hits <- into.dag_hits + s.dag_hits;
  into.dag_misses <- into.dag_misses + s.dag_misses;
  into.unit_hits <- into.unit_hits + s.unit_hits;
  into.unit_misses <- into.unit_misses + s.unit_misses;
  into.weight_updates <- into.weight_updates + s.weight_updates;
  into.dirty_dests <- into.dirty_dests + s.dirty_dests;
  into.clean_dests <- into.clean_dests + s.clean_dests;
  into.commits <- into.commits + s.commits;
  into.undos <- into.undos + s.undos;
  into.scenarios <- into.scenarios + s.scenarios;
  into.edges_disabled <- into.edges_disabled + s.edges_disabled;
  into.par_regions <- into.par_regions + s.par_regions;
  into.par_tasks <- into.par_tasks + s.par_tasks;
  if s.par_jobs > into.par_jobs then into.par_jobs <- s.par_jobs;
  into.par_wall <- into.par_wall +. s.par_wall;
  into.par_busy <- into.par_busy +. s.par_busy;
  into.candidates_pruned <- into.candidates_pruned + s.candidates_pruned;
  into.candidates_kept <- into.candidates_kept + s.candidates_kept;
  into.clone_syncs <- into.clone_syncs + s.clone_syncs;
  into.clone_copies <- into.clone_copies + s.clone_copies;
  into.milp_nodes <- into.milp_nodes + s.milp_nodes;
  into.lp_solves <- into.lp_solves + s.lp_solves;
  into.lp_pivots <- into.lp_pivots + s.lp_pivots;
  into.lp_warm_solves <- into.lp_warm_solves + s.lp_warm_solves;
  into.lp_cycle_limits <- into.lp_cycle_limits + s.lp_cycle_limits;
  Array.iteri (fun w n -> if n <> 0 then record_worker_evals into ~worker:w n)
    s.worker_evals;
  Hashtbl.iter (fun phase dt -> add_time into phase dt) s.timer_tbl;
  for i = 0 to Array.length s.hot - 1 do
    into.hot.(i) <- into.hot.(i) +. s.hot.(i)
  done

let time s phase f =
  let t0 = Mono.now () in
  let finally () = add_time s phase (Mono.now () -. t0) in
  match f () with
  | v ->
    finally ();
    v
  | exception e ->
    finally ();
    raise e

let timers s =
  let acc = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.timer_tbl [] in
  (* Fold the flat hot-phase slots under their names (summing with any
     hashtable entry of the same name, e.g. after a cross-version merge). *)
  let acc =
    Array.to_list
      (Array.mapi
         (fun i name ->
           (name, s.hot.(i) +. (List.assoc_opt name acc |> Option.value ~default:0.)))
         hot_phases)
    @ List.filter (fun (k, _) -> not (Array.mem k hot_phases)) acc
  in
  List.filter (fun (_, dt) -> dt <> 0.) acc
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let full_rebuild_fraction s =
  let total = s.full_spf + s.incr_spf in
  if total = 0 then nan else float_of_int s.full_spf /. float_of_int total

let counters s =
  [ ("evaluations", s.evaluations); ("full_spf", s.full_spf);
    ("incr_spf", s.incr_spf); ("spf_nodes_touched", s.spf_nodes_touched);
    ("dag_hits", s.dag_hits); ("dag_misses", s.dag_misses);
    ("unit_hits", s.unit_hits); ("unit_misses", s.unit_misses);
    ("weight_updates", s.weight_updates); ("dirty_dests", s.dirty_dests);
    ("clean_dests", s.clean_dests); ("commits", s.commits);
    ("undos", s.undos); ("scenarios", s.scenarios);
    ("edges_disabled", s.edges_disabled); ("par_regions", s.par_regions);
    ("par_tasks", s.par_tasks); ("par_jobs", s.par_jobs);
    ("candidates_pruned", s.candidates_pruned);
    ("candidates_kept", s.candidates_kept);
    ("clone_syncs", s.clone_syncs); ("clone_copies", s.clone_copies);
    ("milp_nodes", s.milp_nodes); ("lp_solves", s.lp_solves);
    ("lp_pivots", s.lp_pivots); ("lp_warm_solves", s.lp_warm_solves);
    ("lp_cycle_limits", s.lp_cycle_limits) ]

let pp ppf s =
  Format.fprintf ppf "@[<v>engine stats:@,";
  List.iter
    (fun (k, v) -> Format.fprintf ppf "  %-18s %d@," k v)
    (counters s);
  if s.par_regions > 0 then begin
    Format.fprintf ppf "  %-18s %.6f s@," "par_wall" s.par_wall;
    Format.fprintf ppf "  %-18s %.6f s@," "par_busy" s.par_busy;
    Format.fprintf ppf "  %-18s %.3f@," "par_efficiency" (parallel_efficiency s);
    Array.iteri
      (fun w n -> Format.fprintf ppf "  evals[worker %2d]   %d@," w n)
      s.worker_evals
  end;
  List.iter
    (fun (phase, dt) -> Format.fprintf ppf "  %-18s %.6f s@," ("t:" ^ phase) dt)
    (timers s);
  Format.fprintf ppf "@]"

let to_json s =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ", " in
  List.iter
    (fun (k, v) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "%S: %d" k v))
    (counters s);
  if s.par_regions > 0 then begin
    sep ();
    Buffer.add_string b (Printf.sprintf "\"par_wall\": %.6f" s.par_wall);
    sep ();
    Buffer.add_string b (Printf.sprintf "\"par_busy\": %.6f" s.par_busy);
    sep ();
    Buffer.add_string b
      (Printf.sprintf "\"par_efficiency\": %.4f" (parallel_efficiency s));
    sep ();
    Buffer.add_string b "\"worker_evals\": [";
    Array.iteri
      (fun w n ->
        if w > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (string_of_int n))
      s.worker_evals;
    Buffer.add_char b ']'
  end;
  List.iter
    (fun (phase, dt) ->
      sep ();
      Buffer.add_string b (Printf.sprintf "%S: %.6f" ("seconds_" ^ phase) dt))
    (timers s);
  Buffer.add_char b '}';
  Buffer.contents b
