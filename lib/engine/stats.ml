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
  s.probes_cut <- 0;
  s.dests_skipped <- 0;
  s.commits <- 0;
  s.undos <- 0;
  s.edges_disabled <- 0;
  s.candidates_pruned <- 0;
  s.candidates_kept <- 0;
  s.clone_syncs <- 0;
  s.clone_copies <- 0;
  s.lp_solves <- 0;
  s.lp_pivots <- 0;
  s.lp_warm_solves <- 0;
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
  into.probes_cut <- into.probes_cut + s.probes_cut;
  into.dests_skipped <- into.dests_skipped + s.dests_skipped;
  into.commits <- into.commits + s.commits;
  into.undos <- into.undos + s.undos;
  into.edges_disabled <- into.edges_disabled + s.edges_disabled;
  into.candidates_pruned <- into.candidates_pruned + s.candidates_pruned;
  into.candidates_kept <- into.candidates_kept + s.candidates_kept;
  into.clone_syncs <- into.clone_syncs + s.clone_syncs;
  into.clone_copies <- into.clone_copies + s.clone_copies;
  into.lp_solves <- into.lp_solves + s.lp_solves;
  into.lp_pivots <- into.lp_pivots + s.lp_pivots;
  into.lp_warm_solves <- into.lp_warm_solves + s.lp_warm_solves;
  for i = 0 to Array.length s.hot - 1 do
    into.hot.(i) <- into.hot.(i) +. s.hot.(i)
  done

let timers s =
  List.filter
    (fun (_, dt) -> dt <> 0.)
    (Array.to_list (Array.mapi (fun i name -> (name, s.hot.(i))) hot_phases))

let counters s =
  [ ("evaluations", s.evaluations); ("full_spf", s.full_spf);
    ("incr_spf", s.incr_spf); ("spf_nodes_touched", s.spf_nodes_touched);
    ("dag_hits", s.dag_hits); ("dag_misses", s.dag_misses);
    ("unit_hits", s.unit_hits); ("unit_misses", s.unit_misses);
    ("weight_updates", s.weight_updates); ("dirty_dests", s.dirty_dests);
    ("clean_dests", s.clean_dests); ("probes_cut", s.probes_cut);
    ("dests_skipped", s.dests_skipped); ("commits", s.commits);
    ("undos", s.undos); ("edges_disabled", s.edges_disabled);
    ("candidates_pruned", s.candidates_pruned);
    ("candidates_kept", s.candidates_kept);
    ("clone_syncs", s.clone_syncs); ("clone_copies", s.clone_copies);
    ("lp_solves", s.lp_solves); ("lp_pivots", s.lp_pivots);
    ("lp_warm_solves", s.lp_warm_solves) ]
