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
  mutable probes_cut : int;
  mutable dests_skipped : int;
  mutable commits : int;
  mutable undos : int;
  mutable edges_disabled : int;
  mutable candidates_pruned : int;
  mutable candidates_kept : int;
  mutable clone_syncs : int;
  mutable clone_copies : int;
  mutable lp_solves : int;
  mutable lp_pivots : int;
  mutable lp_warm_solves : int;
  mutable ls_rounds : int;
  mutable ls_accepted : int;
  mutable ls_sideways : int;
  mutable ls_perturbations : int;
  mutable wpo_scanned : int;
  mutable milp_nodes : int;
  mutable milp_cycle_limits : int;
  hot : float array; (* per-phase seconds, indexed by the slots below *)
}

(* Hot-phase timer slots, in name order so [timers] needs no sort.  A
   float-array store never boxes, so the evaluator's inner loops can
   accumulate durations without allocating. *)
let hot_loads = 0
let hot_spf_full = 1
let hot_spf_incr = 2
let hot_units = 3
let hot_phases = [| "loads"; "spf_full"; "spf_incr"; "units" |]

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
    probes_cut = 0;
    dests_skipped = 0;
    commits = 0;
    undos = 0;
    edges_disabled = 0;
    candidates_pruned = 0;
    candidates_kept = 0;
    clone_syncs = 0;
    clone_copies = 0;
    lp_solves = 0;
    lp_pivots = 0;
    lp_warm_solves = 0;
    ls_rounds = 0;
    ls_accepted = 0;
    ls_sideways = 0;
    ls_perturbations = 0;
    wpo_scanned = 0;
    milp_nodes = 0;
    milp_cycle_limits = 0;
    hot = Array.make (Array.length hot_phases) 0.;
  }

let hot_times s = s.hot

(* One row per counter: its exported name, a reader and a writer.
   [reset], [merge] and [counters] iterate over this table, so a counter
   listed here is reset, merged and exported without a second mention. *)
let table : (string * (t -> int) * (t -> int -> unit)) array =
  [|
    ( "engine.evaluations", (fun s -> s.evaluations),
      fun s v -> s.evaluations <- v );
    ("engine.full_spf", (fun s -> s.full_spf), fun s v -> s.full_spf <- v);
    ("engine.incr_spf", (fun s -> s.incr_spf), fun s v -> s.incr_spf <- v);
    ( "engine.spf_nodes_touched", (fun s -> s.spf_nodes_touched),
      fun s v -> s.spf_nodes_touched <- v );
    ("engine.dag_hits", (fun s -> s.dag_hits), fun s v -> s.dag_hits <- v);
    ( "engine.dag_misses", (fun s -> s.dag_misses),
      fun s v -> s.dag_misses <- v );
    ("engine.unit_hits", (fun s -> s.unit_hits), fun s v -> s.unit_hits <- v);
    ( "engine.unit_misses", (fun s -> s.unit_misses),
      fun s v -> s.unit_misses <- v );
    ( "engine.weight_updates", (fun s -> s.weight_updates),
      fun s v -> s.weight_updates <- v );
    ( "engine.dirty_dests", (fun s -> s.dirty_dests),
      fun s v -> s.dirty_dests <- v );
    ( "engine.clean_dests", (fun s -> s.clean_dests),
      fun s v -> s.clean_dests <- v );
    ( "engine.probes_cut", (fun s -> s.probes_cut),
      fun s v -> s.probes_cut <- v );
    ( "engine.dests_skipped", (fun s -> s.dests_skipped),
      fun s v -> s.dests_skipped <- v );
    ("engine.commits", (fun s -> s.commits), fun s v -> s.commits <- v);
    ("engine.undos", (fun s -> s.undos), fun s v -> s.undos <- v);
    ( "engine.edges_disabled", (fun s -> s.edges_disabled),
      fun s v -> s.edges_disabled <- v );
    ( "engine.candidates_pruned", (fun s -> s.candidates_pruned),
      fun s v -> s.candidates_pruned <- v );
    ( "engine.candidates_kept", (fun s -> s.candidates_kept),
      fun s v -> s.candidates_kept <- v );
    ( "engine.clone_syncs", (fun s -> s.clone_syncs),
      fun s v -> s.clone_syncs <- v );
    ( "engine.clone_copies", (fun s -> s.clone_copies),
      fun s v -> s.clone_copies <- v );
    ("engine.lp_solves", (fun s -> s.lp_solves), fun s v -> s.lp_solves <- v);
    ("engine.lp_pivots", (fun s -> s.lp_pivots), fun s v -> s.lp_pivots <- v);
    ( "engine.lp_warm_solves", (fun s -> s.lp_warm_solves),
      fun s v -> s.lp_warm_solves <- v );
    ("ls.rounds", (fun s -> s.ls_rounds), fun s v -> s.ls_rounds <- v);
    ("ls.accepted", (fun s -> s.ls_accepted), fun s v -> s.ls_accepted <- v);
    ("ls.sideways", (fun s -> s.ls_sideways), fun s v -> s.ls_sideways <- v);
    ( "ls.perturbations", (fun s -> s.ls_perturbations),
      fun s v -> s.ls_perturbations <- v );
    ("wpo.scanned", (fun s -> s.wpo_scanned), fun s v -> s.wpo_scanned <- v);
    ("milp.nodes", (fun s -> s.milp_nodes), fun s v -> s.milp_nodes <- v);
    ( "milp.cycle_limits", (fun s -> s.milp_cycle_limits),
      fun s v -> s.milp_cycle_limits <- v );
  |]

let reset s =
  Array.iter (fun (_, _, set) -> set s 0) table;
  Array.fill s.hot 0 (Array.length s.hot) 0.

let record_lp s ~solves ~pivots ~warm =
  s.lp_solves <- s.lp_solves + solves;
  s.lp_pivots <- s.lp_pivots + pivots;
  s.lp_warm_solves <- s.lp_warm_solves + warm

let record_pruning s ~pruned ~kept =
  if pruned < 0 || kept < 0 then
    invalid_arg "Stats.record_pruning: negative count";
  s.candidates_pruned <- s.candidates_pruned + pruned;
  s.candidates_kept <- s.candidates_kept + kept

let merge ~into s =
  Array.iter (fun (_, get, set) -> set into (get into + get s)) table;
  for i = 0 to Array.length s.hot - 1 do
    into.hot.(i) <- into.hot.(i) +. s.hot.(i)
  done

let timers s =
  List.filter
    (fun (_, dt) -> dt <> 0.)
    (Array.to_list (Array.mapi (fun i name -> (name, s.hot.(i))) hot_phases))

let counters s =
  Array.to_list (Array.map (fun (name, get, _) -> (name, get s)) table)
