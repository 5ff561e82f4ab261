(** Streaming robustness sweeps: failures x demand shifts x policies.

    The paper evaluates joint weight/waypoint settings on a fixed demand
    matrix; its closing section asks how such settings behave "under
    shifts in the traffic demand" and network changes (§8).  This
    subsystem answers the measurement half of that question: given a
    {e deployed} setting, enumerate a deterministic grid of what-if
    scenarios — link failures (single, SRLG, sampled dual), demand
    perturbations (uniform scale, lognormal jitter, hot spots, diurnal
    phases) or both — evaluate every scenario under one or more reaction
    policies, and distill the results into a robustness report.

    Evaluation streams through the incremental engine.  Each sweep
    warms one master evaluator on the calling domain: every segment
    destination's shortest-path DAG and, when every segment routes,
    every destination's load contribution.  Scenarios then fan out over
    a {!Par.Pool}, one task per scenario, worker 0 probing the master
    and every other worker its own {!Engine.Evaluator.copy} of it.  A
    failed link is an {!Engine.Evaluator.disable_edge} (infinite
    weight) probed and undone through the move protocol, so every
    scenario shares every DAG and load contribution of the warm master
    that the failure did not touch — no per-scenario graph rebuild.

    Determinism: every scenario's outcome is a pure function of its
    {!spec} (all randomness is fixed into the spec at generation time),
    and specs are evaluated independently, so sweep results are
    bit-identical for every pool size.  The undo restores the warm
    state, and a demand shift puts the nominal matrix back after its
    probe, so every scenario also starts from the same evaluator state:
    the engine's work counters do not depend on the pool size or the
    schedule either.  Reports contain no timings. *)

(** {1 Scenario grammar} *)

type shift =
  | No_shift
  | Uniform of float  (** every demand scaled by the factor *)
  | Jitter of { seed : int; sigma : float }
      (** i.i.d. lognormal factor [exp(sigma * N(0,1))] per demand *)
  | Hotspot of { seed : int; pairs : int; factor : float }
      (** [pairs] random demands scaled by [factor] *)
  | Diurnal of { level : float }
      (** time-of-day [level] in [0,1): each demand scaled by a sinus of
          the level plus a source-dependent phase (cities peak at
          different hours), factors within [0.4, 1.2] *)

type spec = {
  id : int;  (** index in the generated array; the report's scenario id *)
  failed : int list;  (** failed edge ids (original graph), may be [] *)
  shift : shift;
}
(** One scenario.  Self-contained: seeds are baked in at generation
    time, so a spec evaluates to the same outcome no matter when, where
    or in which order it is run. *)

type config = {
  seed : int;  (** master seed; dual sampling and per-shift seeds derive from it *)
  fail_pairs : bool;  (** fail a link together with its reverse twin *)
  include_baseline : bool;  (** include the (no failure, nominal) scenario *)
  dual_failures : int;  (** sampled distinct pairs of single-failure cases *)
  srlgs : int list list;  (** shared-risk link groups failing together *)
  scales : float list;  (** uniform demand scale factors (> 0) *)
  jitters : int;  (** lognormal jitter draws, sigma 0.25 *)
  hotspots : int;  (** hot-spot burst draws: 3 pairs at 3x their size *)
  diurnal : int;  (** diurnal levels, evenly spaced over the day *)
  cross : bool;
      (** if set, take the full failure x shift product; otherwise each
          failure runs on nominal demands and each shift on the intact
          topology *)
}

val default_config : config
(** Seed 1; paired single failures plus the baseline; no duals, SRLGs or
    demand shifts; no cross product. *)

val generate : config -> Netgraph.Digraph.t -> spec array
(** The deterministic scenario grid for this configuration, ids
    [0 .. n-1].  Baseline first, then failure cases (every single-link
    failure in edge-id order, then SRLGs, then sampled duals), then
    demand shifts; with [cross] the product is emitted failure-major.
    @raise Invalid_argument on a non-positive scale, a negative count,
    or an SRLG edge outside the graph. *)

(** {1 Serving replays} *)

type replay = {
  replay_seed : int;  (** drives flash-crowd windows and pair picks *)
  steps : int;  (** diurnal steps; at most one [delta] event each *)
  days : float;  (** diurnal periods the steps sweep through *)
  flash_crowds : int;  (** independent flash-crowd bursts *)
  flash_pairs : int;  (** demands scaled per burst *)
  flash_factor : float;  (** burst multiplier *)
  flash_len : int;  (** steps a burst stays active *)
  report_every : int;  (** a [report] event every k steps; 0 = never *)
  quit : bool;  (** end the trace with a [quit] event *)
}

val default_replay : replay
(** Seed 1, 100 steps over one day, two 8-step flash crowds scaling 3
    pairs by 3x, no reports, trailing [quit]. *)

val replay_events : replay -> Te.Network.demand array -> string list
(** Renders the diurnal + flash-crowd drift of the (aggregated) base
    matrix into [serve/1] event JSONL lines for [te-tool serve]: one
    [{"ev":"delta","changes":[...]}] line per step carrying the entries
    whose absolute size changed since the previous step (steps where
    nothing moves emit no line), interleaved [report]s, and a final
    [quit] when requested.  The daemon must be booted on the same base
    matrix for step 0's delta to mean what it says.  Deterministic:
    same replay record + same demands = byte-identical lines.
    @raise Invalid_argument on non-positive [steps] or flash factor, or
    negative counts. *)

(** {1 Policies} *)

type policy =
  | Static  (** keep the deployed setting, let ECMP reconverge *)
  | Repair
      (** keep the weights, re-run GreedyWPO on the surviving topology;
          deployed only when it beats the static outcome *)
  | Reweight of int
      (** re-optimize at most [k] link weights around the deployed
          setting ({!Te.Reopt.reoptimize}), then re-pick waypoints *)

val policy_name : policy -> string
(** ["static"], ["repair"], ["reweight:k"]. *)

val policies_of_string : string -> policy list
(** Parses a comma-separated list, e.g. ["static,repair,reweight:3"].
    @raise Invalid_argument on an unknown policy or malformed budget. *)

type deployed = {
  weights : int array;  (** the deployed integer link weights *)
  waypoints : Te.Segments.setting;  (** the deployed waypoint setting *)
}

(** {1 Sweep} *)

type policy_outcome = {
  policy : policy;
  disconnected : int;
      (** demands this policy cannot route in the scenario *)
  mlu : float;  (** [nan] iff [disconnected > 0] *)
  weight_changes : int;  (** links re-weighted by the policy *)
  waypoint_changes : int;  (** demands whose waypoints the policy changed *)
}

type outcome = {
  spec : spec;
  static_disconnected : int;
      (** demands whose deployed segment path is broken *)
  topo_disconnected : int;
      (** demands disconnected at the topology level — no policy can
          route these ([topo_disconnected <= static_disconnected]) *)
  static_mlu : float;  (** [nan] iff [static_disconnected > 0] *)
  policies : policy_outcome list;  (** one entry per requested policy *)
}

val sweep_ctx :
  Obs.Ctx.t ->
  ?policies:policy list ->
  ?reopt_evals:int ->
  deployed:deployed ->
  Netgraph.Digraph.t ->
  Te.Network.demand array ->
  spec array ->
  outcome array
(** The context-taking entry point: evaluates every spec, in id order.
    [policies] defaults to [[Static]]; the static fields of each
    outcome are computed regardless; results are bit-identical for
    every pool size.  [reopt_evals]
    (default 400) is the per-scenario search budget of [Reweight]; its
    local-search seed derives from the spec id, never from scheduling.

    Each scenario runs under its own forked child context: one
    ["scn:case"] span (with a ["spec"] attribute) containing one
    ["scn:policy:<name>"] span per requested policy (in turn containing
    the reacting optimizer's own spans) and fresh stats.  Children
    graft back in spec-id order, so the trace and the stats counters
    are bit-identical for every pool size too.

    Policy semantics on disconnection: [Static] reports the deployed
    segments' disconnections; [Repair] re-routes everything the
    surviving topology allows (its count is [topo_disconnected]);
    [Reweight] keeps the deployed waypoints and is skipped (reported
    disconnected) when the deployed segments are broken.  The context's
    stats accumulate engine counters from all workers. *)

val static_sweep_rebuild :
  deployed:deployed ->
  Netgraph.Digraph.t ->
  Te.Network.demand array ->
  spec array ->
  (float * int) array
(** The rebuild oracle: [(static_mlu, static_disconnected)] of every
    spec, computed on a freshly built surviving subgraph with fresh ECMP
    state per scenario.  Must agree with the static fields of
    {!sweep_ctx}; kept as the test oracle and the baseline the
    robustness bench measures the engine path against. *)

(** {1 Report} *)

type summary = {
  policy : policy;
  scenarios : int;
  disconnected_scenarios : int;
  worst_mlu : float;  (** worst finite MLU; [nan] if none *)
  worst_id : int;
      (** spec id of the most severe scenario (disconnections outrank
          any MLU, more disconnected demands outrank fewer, a connected
          [nan] MLU outranks every number; ties keep the lowest id);
          [-1] if no scenarios *)
  mean_mlu : float;
  p50 : float;
  p95 : float;
  p99 : float;  (** nearest-rank percentiles over finite MLUs *)
  cvar95 : float;  (** mean of the worst 5% of finite MLUs *)
  mean_weight_changes : float;
  mean_waypoint_changes : float;
  delta_worst : float;  (** worst_mlu - static worst_mlu (0 for static) *)
  delta_mean : float;
}

type report = {
  topology : string;
  nominal_mlu : float;  (** deployed setting on nominal demands *)
  scenario_count : int;
  summaries : summary list;  (** static first, then requested order *)
  worst_cases : (spec * float * int) list;
      (** up to five most severe static outcomes (same order as
          [worst_id]): spec, MLU, disconnected *)
}

val summarize :
  topology:string -> nominal_mlu:float -> outcome array -> report

val report_to_json : Netgraph.Digraph.t -> report -> string
(** Serializes the report (schema ["robustness-report/1"]).  [nan]
    becomes [null]; floats print with 17 significant digits, so equal
    reports serialize to equal bytes.  The graph is only used to label
    the worst-case scenarios. *)
