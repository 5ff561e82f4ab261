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

type stage
(** One step of a solver: it advances the stages' result so far. *)

type t = { name : string; doc : string; stages : stage list }
(** [doc] is one line for [te-tool list-algs]; [stages] run in order. *)

val all : t list
(** Every solver, in presentation order; a composed entry extends its
    base entry's chain, so the two share that prefix:
    - ["lwo"]: HeurOSPF ({!Local_search.optimize_ctx}); [initial_mlu]
      is the inverse-capacity MLU (the front ends' historical baseline).
    - ["wpo"]: GreedyWPO ({!Greedy_wpo.optimize_ctx}, Algorithm 3) under
      [config.weights].
    - ["joint"]: ["lwo"] + GreedyWPO under its weights (Algorithm 2),
      + {!Joint.split_reopt} under [full_pipeline].
    - ["grad"]: {!Grad_wo.optimize_ctx}, gradient descent on real
      weights against the LP necessary capacities, rounded back to the
      integer grid; [stages] leads with the LP lower bound
      (["LP-bound"]) the descent tracks.
    - ["omw"]: ["lwo"] + {!Omw.optimize_ctx}, which splits traffic
      between the HeurOSPF weights and an optimized second system —
      never worse than the HeurOSPF stage.
    - ["grad+wpo"]: ["grad"] + GreedyWPO under the gradient weights.
    - ["omw+wpo"]: ["lwo"] + GreedyWPO + OMW on the segment-expanded
      demand list, so each segment's traffic may split across the two
      systems.

    GreedyWPO reads [passes] and [prune]; the local-search stages read
    [evals], [seed] and [restarts].  A result reports its chain's first
    starting MLU and the sum of its stages' evaluations. *)

val solve_many :
  config -> Obs.Ctx.t -> Netgraph.Digraph.t -> Network.demand array ->
  t list -> (result * float) list
(** The entries' results, in order, with every shared chain prefix run
    once; each equals the entry solved alone and comes with its
    standalone cost, the sum of its stages' wall seconds.  Each stage
    run is a span named after the first entry that needs it. *)

val solve :
  t -> config -> Obs.Ctx.t -> Netgraph.Digraph.t -> Network.demand array ->
  result
(** [solve s] is {!solve_many} on [[s]]. *)

val find : string -> t option
