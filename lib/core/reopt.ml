open Netgraph

type churn = { weight_changes : int; waypoint_changes : int }

let churn_between ~deployed_weights ~deployed_waypoints weights waypoints =
  if Array.length deployed_weights <> Array.length weights then
    invalid_arg "Reopt.churn_between: weight vectors differ in length";
  if Array.length deployed_waypoints <> Array.length waypoints then
    invalid_arg "Reopt.churn_between: waypoint settings differ in length";
  let weight_changes = ref 0 in
  Array.iteri
    (fun e w -> if w <> deployed_weights.(e) then incr weight_changes)
    weights;
  let waypoint_changes = ref 0 in
  Array.iteri
    (fun i wps -> if wps <> deployed_waypoints.(i) then incr waypoint_changes)
    waypoints;
  { weight_changes = !weight_changes; waypoint_changes = !waypoint_changes }

type result = {
  weights : int array;
  waypoints : Segments.setting;
  mlu : float;
  churn : churn;
}

let reoptimize_ctx (ctx : Obs.Ctx.t) ?(ls_params = Local_search.default_params)
    ?max_weight_changes ?(frozen_edges = []) ?ev ?prune ~deployed_weights
    ~deployed_waypoints g demands =
  let stats = ctx.Obs.Ctx.stats in
  let m = Digraph.edge_count g in
  if Array.length deployed_weights <> m then
    invalid_arg "Reopt.reoptimize: deployed weight length mismatch";
  let frozen = Hashtbl.create 4 in
  List.iter
    (fun e ->
      if e < 0 || e >= m then
        invalid_arg "Reopt.reoptimize: frozen edge outside the graph";
      Hashtbl.replace frozen e ())
    frozen_edges;
  let budget =
    match max_weight_changes with Some b -> b | None -> max 1 (m / 10)
  in
  let st = Random.State.make [| ls_params.Local_search.seed; 0x4e09 |] in
  let wmax = ls_params.Local_search.wmax in
  (* One evaluator carries the whole budgeted search: the deployed
     waypoints are fixed, so the commodity list (one per segment) never
     changes, and every candidate weight is probed as an incremental
     single-weight move against it.  A caller-supplied warm evaluator
     (the serving loop keeps one alive across updates) is re-synced
     incrementally instead of rebuilt. *)
  let ev =
    match ev with
    | Some ev ->
      if Engine.Evaluator.graph ev != g then
        invalid_arg "Reopt.reoptimize: warm evaluator built on another graph";
      Engine.Evaluator.set_weights ev (Weights.of_ints deployed_weights);
      Engine.Evaluator.commit ev;
      ev
    | None ->
      Engine.Evaluator.create ~stats ~probe:(Obs.Ctx.probe ctx) g
        (Weights.of_ints deployed_weights)
  in
  (* Failed links are frozen at infinite weight: absent from every DAG,
     never a move candidate, committed so no undo restores them. *)
  Hashtbl.iter (fun e () -> Engine.Evaluator.disable_edge ev ~edge:e) frozen;
  Engine.Evaluator.commit ev;
  Engine.Evaluator.set_commodities ev
    (Segments.expand demands deployed_waypoints);
  let current = Array.copy deployed_weights in
  (* Probe results land in one reused metrics cell — the budgeted probe
     loop below allocates nothing per candidate. *)
  let cell = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  let caps = Digraph.caps g in
  Engine.Evaluator.evaluate_into ev cell;
  let cur_mlu = ref cell.Engine.Evaluator.mlu in
  let deployed_mlu = !cur_mlu in
  let changed = Hashtbl.create 8 in
  let changes () = Hashtbl.length changed in
  let best_w = ref (Array.copy current) and best_mlu = ref !cur_mlu in
  let evals = ref 0 in
  (* Budgeted local search: a move on edge e is admissible if it keeps
     |{e : w_e <> deployed}| within the budget (reverting frees it). *)
  Obs.Ctx.span ctx "reopt:weights" (fun () ->
  while !evals < ls_params.Local_search.max_evals && not (Obs.Ctx.expired ctx)
  do
    let e =
      if Random.State.float st 1. < 0.6 then begin
        (* Most utilized edge under the current weights — the engine's
           load vector is already up to date for them. *)
        let loads = Engine.Evaluator.loads ev in
        let arg = ref 0 and best = ref neg_infinity in
        for e = 0 to m - 1 do
          let u = loads.(e) /. caps.(e) in
          if u > !best && not (Hashtbl.mem frozen e) then begin
            best := u;
            arg := e
          end
        done;
        !arg
      end
      else Random.State.int st m
    in
    let admissible =
      (not (Hashtbl.mem frozen e))
      && (Hashtbl.mem changed e || changes () < budget)
    in
    if admissible then begin
      let old = current.(e) in
      let candidates =
        List.sort_uniq compare
          (List.filter
             (fun w -> w >= 1 && w <= wmax && w <> old)
             [ old + 1; old + 2; wmax; old - 1; 1; deployed_weights.(e);
               1 + Random.State.int st wmax ])
      in
      (* A candidate wins only below the best so far and the acceptance
         bar; a probe that provably cannot stops early, so the first
         minimum and the accepted move are those of full probes. *)
      let best_cand = ref None in
      List.iter
        (fun wv ->
          if !evals < ls_params.Local_search.max_evals then begin
            incr evals;
            let bar = !cur_mlu -. 1e-12 in
            let above =
              match !best_cand with Some (bm, _) when bm < bar -> bm | _ -> bar
            in
            Engine.Evaluator.probe_mlu ev ~edge:e (float_of_int wv) ~above cell;
            let mlu = cell.Engine.Evaluator.mlu in
            match !best_cand with
            | Some (bm, _) when bm <= mlu -> ()
            | _ -> best_cand := Some (mlu, wv)
          end)
        candidates;
      match !best_cand with
      | Some (mlu, wv) when mlu < !cur_mlu -. 1e-12 ->
        current.(e) <- wv;
        Engine.Evaluator.set_weight ev ~edge:e (float_of_int wv);
        Engine.Evaluator.commit ev;
        cur_mlu := mlu;
        if wv = deployed_weights.(e) then Hashtbl.remove changed e
        else Hashtbl.replace changed e ();
        if mlu < !best_mlu -. 1e-12 then begin
          best_mlu := mlu;
          best_w := Array.copy current
        end
      | _ -> ()
    end
    else incr evals
  done);
  (* Waypoint step: re-pick greedily under the new weights (not
     budgeted; segment-stack changes are local to ingresses). *)
  let best_w_float = Weights.of_ints !best_w in
  Hashtbl.iter (fun e () -> best_w_float.(e) <- infinity) frozen;
  let wpo =
    Obs.Ctx.span ctx "reopt:waypoints" (fun () ->
        Greedy_wpo.optimize_ctx ctx ?prune g best_w_float demands)
  in
  (* Candidates, cheapest-churn first so ties keep the network stable. *)
  let candidates =
    [ (Array.copy deployed_weights, deployed_waypoints, deployed_mlu);
      (!best_w, deployed_waypoints, !best_mlu);
      ( !best_w,
        Segments.of_single wpo.Greedy_wpo.waypoints,
        wpo.Greedy_wpo.mlu ) ]
  in
  let weights, waypoints, mlu =
    List.fold_left
      (fun (bw, bs, bm) (w, s, v) -> if v < bm -. 1e-12 then (w, s, v) else (bw, bs, bm))
      (List.hd candidates) (List.tl candidates)
  in
  { weights; waypoints; mlu;
    churn = churn_between ~deployed_weights ~deployed_waypoints weights waypoints }
