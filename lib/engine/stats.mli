(** The run's counters: instrumentation for the shared evaluation
    engine and the solvers driving it.

    A [Stats.t] is a passive record of typed counters and hot-phase
    timers that an {!Evaluator} and the heuristics driving it increment
    as they work; the evaluator's inner loops update it without
    allocating.  One instance is threaded through a whole optimization
    run (it is the run context's only counter record) to account for
    every shortest-path rebuild, cache hit, local-search round, scored
    waypoint candidate and branch-and-bound node; [merge] folds
    per-stage instances into a run total.  {!counters} names each
    counter under the one name it is exported and printed as. *)

type t = {
  mutable evaluations : int;
      (** candidate weight settings evaluated (mlu/phi queries) *)
  mutable full_spf : int;
      (** single-destination shortest-path DAGs built from scratch *)
  mutable incr_spf : int;
      (** DAGs repaired through the restricted Dijkstra *)
  mutable spf_nodes_touched : int;
      (** nodes re-settled by incremental repairs *)
  mutable dag_hits : int;  (** destination DAG served from cache *)
  mutable dag_misses : int;  (** destination DAG had to be (re)built *)
  mutable unit_hits : int;
      (** segment lookup ({!Evaluator.add_unit}, {!Evaluator.unit_load})
          served from the memoized unit-flow row *)
  mutable unit_misses : int;
      (** segment lookup that had to compute its unit-flow row; the
          commodity load sweep never builds unit rows, so neither
          counter moves on the probe path *)
  mutable weight_updates : int;  (** single-weight [set_weight] calls *)
  mutable dirty_dests : int;
      (** destinations invalidated by weight updates *)
  mutable clean_dests : int;
      (** built destinations proven untouched by a weight update *)
  mutable probes_cut : int;
      (** {!Evaluator.probe_mlu} calls a partial load sum stopped *)
  mutable dests_skipped : int;
      (** dirty destinations a probe left unrepaired *)
  mutable commits : int;
  mutable undos : int;
  mutable edges_disabled : int;
      (** links failed through {!Evaluator.disable_edge} *)
  mutable candidates_pruned : int;
      (** waypoint candidates removed before the scan by a candidate
          preprocessing pass (pool restriction, per-commodity filters,
          or the exact residual-MLU scan skip) *)
  mutable candidates_kept : int;
      (** waypoint candidates actually handed to the scan by a pruning
          pass; [kept / (kept + pruned)] is the surviving fraction.
          Both stay 0 when pruning is off *)
  mutable clone_syncs : int;
      (** always 0: nothing syncs a worker clone any more.  Kept only
          for the benchmark's [engine.clone_sync_ratio] reading *)
  mutable clone_copies : int;
      (** always 0: a scenario sweep's per-worker copies are not
          counted, so a run's counters do not depend on its pool size.
          Kept only for the benchmark's [engine.clone_sync_ratio]
          reading, like [clone_syncs] *)
  mutable lp_solves : int;  (** LP (relaxation) solves *)
  mutable lp_pivots : int;  (** total simplex iterations *)
  mutable lp_warm_solves : int;
      (** LP solves warm-started from a previous basis *)
  mutable ls_rounds : int;
      (** local-search rounds that probed at least one weight *)
  mutable ls_accepted : int;  (** strictly improving moves taken *)
  mutable ls_sideways : int;  (** equal-objective moves taken *)
  mutable ls_perturbations : int;  (** random kicks after a stall *)
  mutable wpo_scanned : int;
      (** waypoint candidates GreedyWPO scored (routable ones only) *)
  mutable milp_nodes : int;  (** branch-and-bound nodes explored *)
  mutable milp_cycle_limits : int;
      (** branch-and-bound nodes dropped on a simplex cycle limit *)
  hot : float array;
      (** monotonic-clock seconds per hot phase, indexed by
          {!hot_spf_full} and friends; named by {!timers} *)
}

(** {1 Hot-phase timer slots}

    The evaluator's allocation-free inner loops accumulate durations
    straight into [hot]:
    {[ let ht = Stats.hot_times s in
       ht.(Stats.hot_units) <- ht.(Stats.hot_units) +. dt ]}
    (a float-array store never boxes).  The four phases never overlap:
    [loads] counts only the re-sum of the cached per-destination
    contributions, not the [units] sweeps that refill them, and a
    [units] sweep or unit-row build excludes any [spf_full] build it
    triggers, so the timers add up to the engine's time. *)

val hot_spf_full : int
val hot_spf_incr : int
val hot_units : int
val hot_loads : int

val hot_times : t -> float array
(** The [hot] array itself (borrowed). *)

val create : unit -> t

val reset : t -> unit

val merge : into:t -> t -> unit
(** Adds every counter and timer of the second argument into [into]. *)

val record_pruning : t -> pruned:int -> kept:int -> unit
(** Accounts one pruned candidate-list construction: [pruned] candidates
    removed before the scan, [kept] handed to it.
    @raise Invalid_argument on a negative count. *)

val record_lp : t -> solves:int -> pivots:int -> warm:int -> unit
(** Accounts LP effort: [solves] LP solves taking [pivots] simplex
    iterations in total, [warm] of them warm-started from a previous
    basis.  A branch and bound forwards its [Milp.effort]. *)

val timers : t -> (string * float) list
(** The nonzero hot-phase seconds by phase name, sorted by name. *)

val counters : t -> (string * int) list
(** Every integer counter by its exported name, in declaration order:
    [engine.*] for the evaluator and LP counters ([engine.evaluations],
    ...), [ls.*], [wpo.scanned] and [milp.*] for the solvers'. *)
