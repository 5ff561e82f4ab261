(* A full-probe reference for [Reopt.reoptimize_ctx]'s budgeted weight
   search, for differential tests.

   It runs the same search, move for move and draw for draw, but probes
   every candidate weight the straightforward way: [set_weight], then
   [evaluate_into], then [undo], each to its exact MLU, and keeps the
   first of the minima.  It shares no probe code with [Reopt] (no
   [probe_mlu], no threshold), so a bit-equal result checks that cutting
   a probe once its MLU provably cannot win changes no decision.  The
   waypoint re-pick and the final choice among the deployed, re-weighted
   and re-pointed settings are [Reopt]'s, on the oracle's weights. *)

open Netgraph
open Te
module Ev = Engine.Evaluator

let reoptimize ?(ls_params = Local_search.default_params) ?max_weight_changes
    ?(frozen_edges = []) ~deployed_weights ~deployed_waypoints g demands =
  let m = Digraph.edge_count g in
  let frozen = Hashtbl.create 4 in
  List.iter (fun e -> Hashtbl.replace frozen e ()) frozen_edges;
  let budget =
    match max_weight_changes with Some b -> b | None -> max 1 (m / 10)
  in
  let st = Random.State.make [| ls_params.Local_search.seed; 0x4e09 |] in
  let wmax = ls_params.Local_search.wmax in
  let ev = Ev.create g (Weights.of_ints deployed_weights) in
  Hashtbl.iter (fun e () -> Ev.disable_edge ev ~edge:e) frozen;
  Ev.commit ev;
  Ev.set_commodities ev (Segments.expand demands deployed_waypoints);
  let current = Array.copy deployed_weights in
  let cell = { Ev.mlu = 0.; phi = 0. } in
  let eval_mlu () =
    Ev.evaluate_into ev cell;
    cell.Ev.mlu
  in
  let caps = Digraph.caps g in
  let cur_mlu = ref (eval_mlu ()) in
  let deployed_mlu = !cur_mlu in
  let changed = Hashtbl.create 8 in
  let best_w = ref (Array.copy current) and best_mlu = ref !cur_mlu in
  let evals = ref 0 in
  while !evals < ls_params.Local_search.max_evals do
    let e =
      if Random.State.float st 1. < 0.6 then begin
        let loads = Ev.loads ev in
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
      && (Hashtbl.mem changed e || Hashtbl.length changed < budget)
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
      let best_cand = ref None in
      List.iter
        (fun wv ->
          if !evals < ls_params.Local_search.max_evals then begin
            incr evals;
            Ev.set_weight ev ~edge:e (float_of_int wv);
            let mlu = eval_mlu () in
            Ev.undo ev;
            match !best_cand with
            | Some (bm, _) when bm <= mlu -> ()
            | _ -> best_cand := Some (mlu, wv)
          end)
        candidates;
      match !best_cand with
      | Some (mlu, wv) when mlu < !cur_mlu -. 1e-12 ->
        current.(e) <- wv;
        Ev.set_weight ev ~edge:e (float_of_int wv);
        Ev.commit ev;
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
  done;
  let best_w_float = Weights.of_ints !best_w in
  Hashtbl.iter (fun e () -> best_w_float.(e) <- infinity) frozen;
  let wpo = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g best_w_float demands in
  let candidates =
    [ (Array.copy deployed_weights, deployed_waypoints, deployed_mlu);
      (!best_w, deployed_waypoints, !best_mlu);
      ( !best_w,
        Segments.of_single wpo.Greedy_wpo.waypoints,
        wpo.Greedy_wpo.mlu ) ]
  in
  let weights, waypoints, mlu =
    List.fold_left
      (fun (bw, bs, bm) (w, s, v) ->
        if v < bm -. 1e-12 then (w, s, v) else (bw, bs, bm))
      (List.hd candidates) (List.tl candidates)
  in
  { Reopt.weights; waypoints; mlu;
    churn =
      Reopt.churn_between ~deployed_weights ~deployed_waypoints weights
        waypoints }
