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

(* Chains share stages physically: [solve_many] spots a shared prefix
   by [==]. *)
type stage =
  config -> Obs.Ctx.t -> Netgraph.Digraph.t -> Network.demand array -> result ->
  result

type t = { name : string; doc : string; stages : stage list }

let empty =
  { solver = ""; mlu = nan; initial_mlu = nan; evals = 0; weights = None;
    weights2 = None; splits = None; waypoints = None; stages = [] }

(* One stage's outcome: the chain's first stage sets its starting MLU. *)
let advance (st : result) ~start ~evals label mlu =
  let initial_mlu =
    if Float.is_nan st.initial_mlu then start else st.initial_mlu
  in
  { st with mlu; initial_mlu; evals = st.evals + evals;
    stages = st.stages @ [ (label, mlu) ] }

let ls_params_of c =
  { Local_search.default_params with Local_search.max_evals = c.evals;
    seed = c.seed }

let heur_ospf c ctx g demands (st : result) =
  let start = Ecmp.mlu_of g (Weights.inverse_capacity g) demands in
  let r =
    Local_search.optimize_ctx ctx ~restarts:c.restarts ~params:(ls_params_of c)
      g demands
  in
  advance { st with weights = Some r.Local_search.weights } ~start
    ~evals:r.Local_search.evals "HeurOSPF" r.Local_search.mlu

(* Greedy waypoints under the chain's weights so far, else under
   [c.weights]. *)
let greedy_wpo c ctx g demands (st : result) =
  let w =
    match st.weights with Some w -> Weights.of_ints w | None -> c.weights g
  in
  let r =
    Greedy_wpo.optimize_ctx ctx ~passes:c.passes ?prune:c.prune g w demands
  in
  advance
    { st with waypoints = Some (Segments.of_single r.Greedy_wpo.waypoints) }
    ~start:r.Greedy_wpo.initial_mlu ~evals:0 "GreedyWPO" r.Greedy_wpo.mlu

(* Algorithm 2 steps 3–4, under [full_pipeline] only. *)
let split_reopt c ctx g demands (st : result) =
  match (c.full_pipeline, st.weights, st.waypoints) with
  | true, Some w, Some waypoints ->
    let evals, r =
      Joint.split_reopt ctx ~restarts:c.restarts ~ls_params:(ls_params_of c) g
        demands
        { Joint.weights = Weights.of_ints w; int_weights = w; waypoints;
          mlu = st.mlu; stage_mlu = st.stages }
    in
    { st with evals = st.evals + evals; weights = Some r.Joint.int_weights;
      mlu = r.Joint.mlu; stages = r.Joint.stage_mlu }
  | _ -> st

let grad_wo _ ctx g demands (st : result) =
  let r = Grad_wo.optimize_ctx ctx g demands in
  advance
    { st with weights = Some r.Grad_wo.weights;
      stages = st.stages @ [ ("LP-bound", r.Grad_wo.lp_bound) ] }
    ~start:r.Grad_wo.initial_mlu ~evals:r.Grad_wo.evals "GradWO" r.Grad_wo.mlu

(* The one-more-weight descent on top of the chain's weights; after
   waypoints it runs on the segment-expanded list, so each segment's
   traffic may split across the two systems. *)
let omw _ ctx g demands (st : result) =
  let demands =
    match st.waypoints with
    | Some setting -> Segments.expand demands setting
    | None -> demands
  in
  let r = Omw.optimize_ctx ctx g (Option.get st.weights) demands in
  advance
    { st with weights = Some r.Omw.weights; weights2 = Some r.Omw.weights2;
      splits = Some r.Omw.splits }
    ~start:r.Omw.initial_mlu ~evals:r.Omw.evals "OMW" r.Omw.mlu

let solve_many c ctx g demands entries =
  let out = Array.make (List.length entries) None in
  (* Every (index, entry, stages left, seconds so far) in [todo] has
     reached [st]; the entries whose next stage is the same run it once,
     as a span named after the first of them. *)
  let rec go st = function
    | [] -> ()
    | (i, e, [], secs) :: rest ->
      out.(i) <- Some ({ st with solver = e.name }, secs);
      go st rest
    | (_, e, stage :: _, _) :: _ as todo ->
      let shares (_, _, ss, _) =
        match ss with s :: _ -> s == stage | [] -> false
      in
      let next, rest = List.partition shares todo in
      let t0 = Engine.Mono.now () in
      let st' = Obs.Ctx.span ctx e.name (fun () -> stage c ctx g demands st) in
      let dt = Engine.Mono.now () -. t0 in
      go st' (List.map (fun (i, e, ss, t) -> (i, e, List.tl ss, t +. dt)) next);
      go st rest
  in
  go empty (List.mapi (fun i e -> (i, e, e.stages, 0.)) entries);
  Array.to_list (Array.map Option.get out)

let solve s c ctx g demands = fst (List.hd (solve_many c ctx g demands [ s ]))

(* Presentation order: the base solvers first, then the composed
   variants, each extending its base's chain. *)
let all =
  let entry name doc stages = { name; doc; stages } in
  [ entry "lwo" "link-weight optimization (HeurOSPF local search)"
      [ heur_ospf ];
    entry "wpo" "waypoint optimization (Algorithm 3, GreedyWPO)" [ greedy_wpo ];
    entry "joint" "joint weight + waypoint pipeline (Algorithm 2)"
      [ heur_ospf; greedy_wpo; split_reopt ];
    entry "grad" "gradient weight descent against LP necessary capacities"
      [ grad_wo ];
    entry "omw" "one-more-weight: HeurOSPF + a second weight system"
      [ heur_ospf; omw ];
    entry "grad+wpo" "greedy waypoints under gradient-descended weights"
      [ grad_wo; greedy_wpo ];
    entry "omw+wpo" "greedy waypoints, then one-more-weight on the segments"
      [ heur_ospf; greedy_wpo; omw ] ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
