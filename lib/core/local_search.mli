(** HeurOSPF: link-weight local search in the style of Fortz and
    Thorup [11], used as the LWO subroutine of Algorithm 2.

    The search walks integer weight vectors in [1, wmax]^E, repeatedly
    re-weighting one link (biased towards the most utilized one) and
    keeping improving moves; random perturbations escape plateaus.  The
    guiding objective is either the Fortz–Thorup piecewise-linear cost
    [Phi] (default; smoother than MLU and the choice of [11]) or the MLU
    itself — the returned solution is always the best-MLU one seen. *)

type params = {
  wmax : int;  (** weight grid [1, wmax] (default 16) *)
  max_evals : int;  (** evaluation budget (default 1500) *)
  seed : int;
  use_phi : bool;  (** guide by Phi instead of MLU (default true) *)
  stall_limit : int;  (** non-improving moves before a perturbation *)
}

val default_params : params

type result = {
  weights : int array;
  mlu : float;
  phi : float;
  evals : int;  (** evaluations actually performed *)
}

val optimize_ctx :
  Obs.Ctx.t ->
  ?restarts:int ->
  ?params:params ->
  ?init:int array ->
  Netgraph.Digraph.t ->
  Network.demand array ->
  result
(** The context-taking entry point.  [init] defaults to the
    inverse-capacity setting rounded onto the weight grid; [params]
    defaults to {!default_params} reseeded with the context's seed
    (when non-zero).  The search evaluates candidates through one
    shared {!Engine.Evaluator}: each single-weight move is probed as an
    incremental update and undone (or committed) through the engine's
    move protocol.  The context's stats collect the engine's evaluation
    and SPF-rebuild counters; its tracer records one ["ls:walk"] span
    per walk with an ["ls:round"] span per probing round (attr
    ["probes"]) and ["ls:perturb"] events nested inside (restart walks
    graft back in restart order, so traces are schedule-independent).  A context deadline is honored
    at round granularity: the walk stops early but still returns its
    best solution.

    A walk probes its neighborhood in order on its own evaluator.  With
    [restarts > 1] whole independent walks (restart [r] reseeded to
    [seed + 7919 r], so [restarts = 1] is the historical single walk)
    run as tasks on the context's pool; a single walk leaves the pool
    idle.  The result is bit-identical for every pool size: the
    best-MLU restart (ties: lowest restart index), with its own walk's
    [evals] count. *)
