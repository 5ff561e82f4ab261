(** The TE-as-a-service event loop.

    A daemon holds one persistent optimization state — the incumbent
    weight vector and waypoint setting, a warm {!Engine.Evaluator}
    synced to them, the current demand matrix, the set of failed links
    and the last min-MLU LP basis — and processes a stream of
    {!Event.t} lines.  Every state-changing event (demand delta,
    matrix swap, link down/up, [resolve]) is answered with a
    churn-budgeted incremental re-optimization
    ({!Te.Reopt.reoptimize_ctx} fed the warm evaluator) under a
    per-update deadline, plus a warm-basis LP lower bound for the
    optimality-gap readout; one [serve/1] JSON response line is emitted
    per event.

    Degradation policy: if the deadline budget is zero, or already
    spent by the time the event is applied and the incumbent
    re-evaluated, re-optimization is skipped entirely and the incumbent
    is kept ([degraded] is true in the response and the churn is 0).
    If the deadline fires inside the re-optimization, the budgeted
    search stops early and returns the best candidate found — never
    worse than the incumbent ([deadline_hit] is true).  Because
    deadline expiry depends on the wall clock, byte-identical response
    streams across [--jobs] (or across runs) are guaranteed only when
    the deadline never fires — run determinism checks with a generous
    (or negative = infinite) deadline and [timings = false].

    The reader is channel-agnostic: {!handle_line} maps one request
    line to at most one response line with no I/O of its own, so the
    stdin loop in {!run} can be swapped for a unix-socket accept loop
    without touching the state machine. *)

type config = {
  deadline_ms : float;
      (** per-update latency budget; [0.] degrades every update to the
          incumbent (useful as a floor test), negative disables the
          deadline entirely *)
  churn_budget : int;
      (** max links whose weight may differ from the incumbent per
          update; [<= 0] uses the {!Te.Reopt} default of [|E| / 10] *)
  reopt_evals : int;  (** local-search evaluation budget per update *)
  resolve_evals : int;  (** evaluation budget for [resolve] events *)
  lp_every : int;
      (** cadence of the warm-basis LP lower bound: solve on the first
          and every k-th state-changing update, and on every [resolve];
          updates in between report a null bound.  [0] never solves,
          [resolve] included.  The bound is skipped while any link is
          down (the LP is built on the full topology).  [report] never
          solves — it shows the last computed bound. *)
  prune : bool;  (** candidate pruning for the waypoint re-pick *)
  timings : bool;
      (** include [latency_ms] (and report-percentiles) in responses;
          disable for byte-identical streams *)
  seed : int;  (** base seed; update [k] reseeds with [seed + 7919 k] *)
}

val default_config : config
(** 1 s deadline, Reopt-default churn budget, 400/4000 evals,
    LP bound on every update, pruning on, timings on, seed 0. *)

type t

val create :
  Obs.Ctx.t ->
  config ->
  deployed_weights:int array ->
  deployed_waypoints:Te.Segments.setting ->
  Netgraph.Digraph.t ->
  Te.Network.demand array ->
  t
(** Boots the daemon on an already-deployed setting: the initial matrix
    is [demands] (waypoints parallel to it), the evaluator is built
    warm on the deployed weights.  No LP solve happens here — the first
    update pays the one cold solve whose basis every later update
    re-uses.
    @raise Invalid_argument on a length mismatch or a negative
    [lp_every]. *)

val handle_line : t -> string -> string option
(** Processes one request line; returns the response line (no trailing
    newline), or [None] for blank lines and lines after [quit].
    Never raises on malformed input — bad lines consume a sequence
    number and yield a [status:"error"] response. *)

val finished : t -> bool
(** True once a [quit] event was processed. *)

val run : t -> in_channel -> out_channel -> unit
(** The stdin/stdout loop: reads lines until EOF or [quit], writes one
    response line per event, flushing after each so a driving process
    can pipeline. *)

type summary = {
  events : int;  (** lines consumed (incl. errors) *)
  updates : int;  (** state-changing events processed *)
  errors : int;
  improved : int;  (** updates that beat the incumbent *)
  degraded : int;  (** updates skipped by the deadline floor *)
  deadline_hits : int;  (** re-optimizations cut short mid-search *)
  weight_churn_total : int;
  waypoint_churn_total : int;
  disconnected : int;  (** demands currently unroutable *)
  mlu : float;  (** incumbent MLU on the current matrix *)
  lp_bound : float;  (** last LP lower bound; [nan] if never computed *)
  latencies : float array;  (** per-update seconds, event order *)
}

val summary : t -> summary

val quantile : float array -> float -> float
(** Exact empirical quantile (nearest-rank on a sorted copy); [nan] on
    an empty array.  The helper bench and the report responses share. *)

val mlu : t -> float
(** Incumbent MLU on the current matrix (0 when the matrix is empty). *)

val state : t -> int array * Te.Network.demand array * Te.Segments.setting
(** The incumbent: weight vector (copy), the current demand matrix
    sorted by (src, dst), and the waypoint setting parallel to it. *)
