(** A common face for the TE solvers, for table-driven dispatch.

    Every optimizer in this library ultimately maps (graph, demands) to
    a weight setting and/or a waypoint setting with an MLU.  A solver
    {!t} fixes that shape behind the {!Obs.Ctx.t} run-context API, and
    {!all} lists every solver in one immutable table, so front ends
    (te-tool, benches, sweeps) resolve ["--alg NAME"] through {!find}
    instead of per-algorithm match arms — one place to build the
    context, time the phases, export the trace. *)

type result = {
  solver : string;  (** the solver's [name] *)
  mlu : float;  (** MLU of the returned setting *)
  initial_mlu : float;
      (** MLU of the solver's starting point (inverse-capacity weights
          for the weight searches, the direct routing for waypoint
          optimization); [nan] when the notion does not apply *)
  evals : int;  (** engine evaluations reported by the solver; 0 if n/a *)
  weights : int array option;  (** integer weight setting, when produced *)
  weights2 : int array option;
      (** the second weight system, when the solver produces one (OMW) *)
  splits : float array option;
      (** per-demand fraction routed on the first weight system,
          parallel to the solver's aggregated (and, for waypointed
          variants, segment-expanded) demand list; produced by the OMW
          family *)
  waypoints : Segments.setting option;  (** waypoint setting, when produced *)
  stages : (string * float) list;
      (** per-stage MLU trail, ending at the returned setting *)
}

type config = {
  seed : int;  (** forwarded to the stochastic stages (default 1) *)
  evals : int;  (** local-search evaluation budget (default 1500) *)
  restarts : int;
      (** parallel reseeded walks for the local-search stages
          (default 1) *)
  passes : int;  (** greedy waypoint passes (default 1) *)
  full_pipeline : bool;  (** joint: run Algorithm 2 steps 3–4 (default false) *)
  prune : Prune.spec option;  (** waypoint candidate pruning (default off) *)
  weights : Netgraph.Digraph.t -> Weights.t;
      (** base weight setting for pure waypoint optimization
          (default {!Weights.inverse_capacity}) *)
}
(** The knobs every front end already exposes, in one record: each
    solver reads only the fields its algorithm uses. *)

val default_config : config

type t = {
  name : string;
  doc : string;  (** one line for [te-tool list-algs] *)
  solve :
    config -> Obs.Ctx.t -> Netgraph.Digraph.t -> Network.demand array -> result;
}

val all : t list
(** Every solver, in presentation order:
    - ["lwo"]: {!Local_search.optimize_ctx} (HeurOSPF); [initial_mlu]
      is the inverse-capacity MLU (the front ends' historical baseline).
    - ["wpo"]: {!Greedy_wpo.optimize_ctx} (Algorithm 3) under
      [config.weights].
    - ["joint"]: {!Joint.optimize_ctx} (Algorithm 2); [stages] is the
      pipeline's stage trail.
    - ["grad"]: {!Grad_wo.optimize_ctx}, gradient descent on real
      weights against the LP necessary capacities, rounded back to the
      integer grid; [stages] leads with the LP lower bound
      (["LP-bound"]) the descent tracks.
    - ["omw"]: HeurOSPF provides the first weight system, then
      {!Omw.optimize_ctx} splits traffic between it and an optimized
      second system — never worse than the HeurOSPF stage.
    - ["grad+wpo"]: greedy waypoints under the gradient weights.
    - ["omw+wpo"]: HeurOSPF weights, greedy waypoints under them, then
      the one-more-weight descent on the segment-expanded demand list,
      so each segment's traffic may split across the two systems.

    The waypoint stages take [passes] and [prune]; the local-search
    stages take [evals], [seed] and [restarts]. *)

val find : string -> t option
