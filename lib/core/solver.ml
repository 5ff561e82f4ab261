type result = {
  solver : string;
  mlu : float;
  initial_mlu : float;
  evals : int;
  weights : int array option;
  weights2 : int array option;
  splits : float array option;
  waypoints : Segments.setting option;
  stages : (string * float) list;
}

type config = {
  seed : int;
  evals : int;
  restarts : int;
  passes : int;
  full_pipeline : bool;
  prune : Prune.spec option;
  weights : Netgraph.Digraph.t -> Weights.t;
}

let default_config =
  {
    seed = 1;
    evals = 1500;
    restarts = 1;
    passes = 1;
    full_pipeline = false;
    prune = None;
    weights = Weights.inverse_capacity;
  }

type t = {
  name : string;
  doc : string;
  solve :
    config -> Obs.Ctx.t -> Netgraph.Digraph.t -> Network.demand array -> result;
}

let single solver ~mlu ~initial_mlu ~evals ?weights ?waypoints stages =
  {
    solver;
    mlu;
    initial_mlu;
    evals;
    weights;
    weights2 = None;
    splits = None;
    waypoints;
    stages;
  }

let ls_params_of c =
  { Local_search.default_params with Local_search.max_evals = c.evals;
    seed = c.seed }

let heur_ospf ctx c g demands =
  let initial_mlu = Ecmp.mlu_of g (Weights.inverse_capacity g) demands in
  ( initial_mlu,
    Local_search.optimize_ctx ctx ~restarts:c.restarts
      ~params:(ls_params_of c) g demands )

let greedy ctx c g w demands =
  let r = Greedy_wpo.optimize_ctx ctx ~passes:c.passes ?prune:c.prune g w demands in
  (r, Segments.of_single r.Greedy_wpo.waypoints)

(* HeurOSPF, optionally greedy waypoints under its weights, then the
   one-more-weight descent.  With waypoints the descent runs on the
   segment-expanded list, so each segment's traffic may split across
   the two systems. *)
let omw ~wpo name c ctx g demands =
  let initial_mlu, ls = heur_ospf ctx c g demands in
  let w1 = ls.Local_search.weights in
  let waypoints, wpo_stage, demands =
    if not wpo then (None, [], demands)
    else
      let rw, setting = greedy ctx c g (Weights.of_ints w1) demands in
      ( Some setting,
        [ ("GreedyWPO", rw.Greedy_wpo.mlu) ],
        Segments.expand demands setting )
  in
  let r = Omw.optimize_ctx ctx g w1 demands in
  {
    (single name ~mlu:r.Omw.mlu ~initial_mlu
       ~evals:(ls.Local_search.evals + r.Omw.evals) ~weights:r.Omw.weights
       ?waypoints
       ((("HeurOSPF", ls.Local_search.mlu) :: wpo_stage)
       @ [ ("OMW", r.Omw.mlu) ]))
    with
    weights2 = Some r.Omw.weights2;
    splits = Some r.Omw.splits;
  }

(* Presentation order: the base solvers first, then the composed
   variants. *)
let all =
  [
    {
      name = "lwo";
      doc = "link-weight optimization (HeurOSPF local search)";
      solve =
        (fun c ctx g demands ->
          let initial_mlu, r = heur_ospf ctx c g demands in
          single "lwo" ~mlu:r.Local_search.mlu ~initial_mlu
            ~evals:r.Local_search.evals ~weights:r.Local_search.weights
            [ ("HeurOSPF", r.Local_search.mlu) ]);
    };
    {
      name = "wpo";
      doc = "waypoint optimization (Algorithm 3, GreedyWPO)";
      solve =
        (fun c ctx g demands ->
          let r, setting = greedy ctx c g (c.weights g) demands in
          single "wpo" ~mlu:r.Greedy_wpo.mlu
            ~initial_mlu:r.Greedy_wpo.initial_mlu ~evals:0 ~waypoints:setting
            [ ("GreedyWPO", r.Greedy_wpo.mlu) ]);
    };
    {
      name = "joint";
      doc = "joint weight + waypoint pipeline (Algorithm 2)";
      solve =
        (fun c ctx g demands ->
          let r =
            Joint.optimize_ctx ctx ~restarts:c.restarts
              ~ls_params:(ls_params_of c) ~full_pipeline:c.full_pipeline
              ?prune:c.prune g demands
          in
          single "joint" ~mlu:r.Joint.mlu ~initial_mlu:nan ~evals:0
            ~weights:r.Joint.int_weights ~waypoints:r.Joint.waypoints
            r.Joint.stage_mlu);
    };
    {
      name = "grad";
      doc = "gradient weight descent against LP necessary capacities";
      solve =
        (fun _ ctx g demands ->
          let r = Grad_wo.optimize_ctx ctx g demands in
          single "grad" ~mlu:r.Grad_wo.mlu ~initial_mlu:r.Grad_wo.initial_mlu
            ~evals:r.Grad_wo.evals ~weights:r.Grad_wo.weights
            [ ("LP-bound", r.Grad_wo.lp_bound); ("GradWO", r.Grad_wo.mlu) ]);
    };
    {
      name = "omw";
      doc = "one-more-weight: HeurOSPF + a second weight system";
      solve = omw ~wpo:false "omw";
    };
    {
      name = "grad+wpo";
      doc = "greedy waypoints under gradient-descended weights";
      solve =
        (fun c ctx g demands ->
          let rg = Grad_wo.optimize_ctx ctx g demands in
          let rw, setting =
            greedy ctx c g (Weights.of_ints rg.Grad_wo.weights) demands
          in
          single "grad+wpo" ~mlu:rw.Greedy_wpo.mlu
            ~initial_mlu:rg.Grad_wo.initial_mlu ~evals:rg.Grad_wo.evals
            ~weights:rg.Grad_wo.weights ~waypoints:setting
            [ ("LP-bound", rg.Grad_wo.lp_bound); ("GradWO", rg.Grad_wo.mlu);
              ("GreedyWPO", rw.Greedy_wpo.mlu) ]);
    };
    {
      name = "omw+wpo";
      doc = "greedy waypoints, then one-more-weight on the segments";
      solve = omw ~wpo:true "omw+wpo";
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
