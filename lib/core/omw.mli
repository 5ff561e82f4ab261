(** "One More Weight" (OMW): a second weight per link, with traffic
    split per demand across the two induced shortest-path systems
    (arXiv 1011.5015).

    A single OSPF weight setting forces every demand onto one ECMP
    pattern; OMW keeps that setting as system 1 and adds an independent
    second weight vector whose shortest paths form system 2, then
    routes a per-demand fraction [alpha] on system 1 and [1 - alpha] on
    system 2.  Both systems are evaluated through the shared
    {!Engine.Evaluator} (one evaluator per weight vector), so the SPF
    and unit-flow machinery — caches, incremental repair, stats — is
    exactly the single-weight engine, used twice.

    The search is a deterministic coordinate descent: sweeps visit
    demands in index order and move each demand's split on a fixed
    [alpha] grid whenever that strictly lowers the MLU; when a sweep
    finds nothing, the second weight of the most utilized link is
    doubled (sending system 2 around the bottleneck) and the sweeps
    resume.  Everything runs on the orchestrating domain and consumes
    no randomness, so results are byte-identical for every [--jobs]
    value. *)

type params = {
  wmax : int;  (** ceiling for second-weight escalations (default 64) *)
  sweeps : int;  (** maximum alpha coordinate-descent sweeps (default 12) *)
  levels : int;
      (** alpha grid resolution: splits are [k / levels] for
          [k = 0..levels] (default 4) *)
  max_bumps : int;
      (** congestion-driven second-weight escalations allowed when a
          sweep stalls (default 12) *)
  second : bool;
      (** [false] disables the second system entirely: every split is
          pinned to [1.] and the result is byte-identical to evaluating
          the first weight setting alone (the {!Ecmp.mlu_of}
          one-shot) — the degenerate-mode equivalence the test suite
          asserts (default [true]) *)
}

val default_params : params

type result = {
  weights : int array;  (** system 1, exactly the input setting *)
  weights2 : int array;  (** system 2 after any congestion bumps *)
  splits : float array;
      (** per-demand fraction routed on system 1, parallel to
          [demands] *)
  demands : Network.demand array;
      (** the aggregated demand list the splits index *)
  mlu : float;  (** canonical engine MLU of the returned configuration *)
  initial_mlu : float;  (** MLU with every split at [1.] (system 1 only) *)
  evals : int;  (** candidate split evaluations performed *)
  sweeps_run : int;
  moves : int;  (** accepted split moves *)
  bumps : int;  (** second-weight escalations taken *)
}

val optimize_ctx :
  Obs.Ctx.t ->
  ?params:params ->
  Netgraph.Digraph.t ->
  int array ->
  Network.demand array ->
  result
(** [optimize_ctx ctx g w1 demands] optimizes splits and the second
    weight system on top of the fixed first setting [w1] (typically a
    {!Local_search} solution; OMW never moves it, so the result is
    never worse than [w1] alone — if the descent cannot beat the
    all-on-system-1 start it returns that start).  The second system
    starts at unit weights, the hop-count SPF.  The
    context's tracer records one ["omw:descent"] span with
    ["omw:sweep"] and ["omw:bump"] events inside; the deadline is
    honored at sweep granularity.  Demands are aggregated first; the
    returned [splits] is parallel to the returned [demands].
    @raise Engine.Evaluator.Unroutable if some demand is unroutable. *)
