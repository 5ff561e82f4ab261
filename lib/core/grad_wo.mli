(** Gradient link-weight optimization against LP necessary capacities,
    in the style of PEFT's gradient-descent weight fitting.

    The min-MLU LP ({!Mcf.opt_mlu_lp}) yields, besides the
    optimal MLU, the per-edge flow the optimum places on every link —
    the link's {e necessary capacity}.  The search then descends on
    real-valued weights: links carrying less ECMP flow than their
    necessary capacity get cheaper (attracting traffic), links carrying
    more get dearer, with the step size scaled by the largest necessary
    capacity.  Every [checkpoint_every] steps the real vector is
    deterministically rounded onto the integer grid [[1, wmax]] and
    evaluated through the shared engine; the best rounded setting seen
    (the rounded starting point included) is returned, so the result is
    never worse than its inverse-capacity start.

    The whole loop is sequential and consumes no randomness, so results
    are trivially byte-identical for every [--jobs] value. *)

type params = {
  wmax : int;  (** integer grid for the rounded settings (default 64) *)
  rounds : int;  (** gradient steps (default 300) *)
  checkpoint_every : int;  (** rounding/evaluation cadence (default 10) *)
  step : float;  (** step-size multiplier on 1 / max necessary cap (default 1) *)
  decay : float;
      (** harmonic step decay: step at round [k] is
          [step / (1 + decay k)] (default 0.03) — ECMP flows respond
          discontinuously to weights, so an undamped step orbits the
          optimum instead of settling on it *)
  min_weight : float;  (** positivity floor for the real weights (default 1e-3) *)
  tol : float;
      (** stop once [sum_e |necessary_e - flow_e|] falls below
          [tol * sum_e necessary_e] (default 5e-3) *)
}

val default_params : params

type result = {
  weights : int array;  (** best rounded setting seen *)
  mlu : float;  (** engine MLU of [weights] *)
  initial_mlu : float;  (** engine MLU of the rounded starting point *)
  lp_bound : float;  (** the LP optimum the gradient descends towards *)
  evals : int;  (** engine evaluations (flow recomputations + checkpoints) *)
  rounds_run : int;  (** gradient steps actually taken *)
  trail : (int * float) list;
      (** engine-evaluated MLU after each checkpoint, as
          [(gradient step, mlu)]; position 0 is the rounded start *)
}

val optimize_ctx :
  Obs.Ctx.t ->
  ?params:params ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  result
(** The descent starts from {!Weights.inverse_capacity}.  The
    necessary-capacity LP is solved cold and lands in the context's
    stats via [Engine.Stats.record_lp].  The context's tracer
    records one ["grad:descent"] span with per-checkpoint
    ["grad:checkpoint"] events; the deadline is honored at checkpoint
    granularity.  @raise Failure if some demand is not routable (the LP
    is infeasible). *)
