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

(* The weight search's probe memo: for each (edge, weight) probed since
   the last commit, its MLU, or [infinity] with the threshold [above] it
   was cut at.  Open addressing over flat arrays (float arrays are
   unboxed), so a lookup or a store allocates nothing; [used] lists the
   filled slots, so a commit clears only those.  It doubles once half
   full, so its size stays bounded by the distinct probes since the last
   commit. *)
module Memo = struct
  type t = {
    mutable bits : int;
    mutable keys : int array;  (* -1 = empty slot *)
    mutable mlu : float array;
    mutable cut_at : float array;
    mutable used : int array;
    mutable len : int;
  }

  let create bits =
    let cap = 1 lsl bits in
    { bits; keys = Array.make cap (-1); mlu = Array.make cap 0.;
      cut_at = Array.make cap 0.; used = Array.make cap 0; len = 0 }

  (* The slot holding [key], or the empty slot it would go in. *)
  let slot t key =
    let mask = Array.length t.keys - 1 in
    let i = ref ((key * 0x1e3779b97f4a7c15) lsr (63 - t.bits)) in
    while t.keys.(!i) <> key && t.keys.(!i) <> -1 do
      i := (!i + 1) land mask
    done;
    !i

  let clear t =
    for j = 0 to t.len - 1 do
      t.keys.(t.used.(j)) <- -1
    done;
    t.len <- 0

  let grow t =
    let keys = t.keys and mlu = t.mlu and cut_at = t.cut_at
    and used = t.used and len = t.len in
    let cap = 2 * Array.length keys in
    t.bits <- t.bits + 1;
    t.keys <- Array.make cap (-1);
    t.mlu <- Array.make cap 0.;
    t.cut_at <- Array.make cap 0.;
    t.used <- Array.make cap 0;
    t.len <- 0;
    for j = 0 to len - 1 do
      let o = used.(j) in
      let i = slot t keys.(o) in
      t.keys.(i) <- keys.(o);
      t.mlu.(i) <- mlu.(o);
      t.cut_at.(i) <- cut_at.(o);
      t.used.(t.len) <- i;
      t.len <- t.len + 1
    done

  (* Claims empty slot [i] for [key]; the caller has written its
     [mlu]/[cut_at] already. *)
  let add t i key =
    t.keys.(i) <- key;
    t.used.(t.len) <- i;
    t.len <- t.len + 1;
    if 2 * t.len > Array.length t.keys then grow t
end

let reoptimize_ctx (ctx : Obs.Ctx.t) ?(ls_params = Local_search.default_params)
    ?max_weight_changes ?(frozen_edges = []) ?ev ?prune ~deployed_weights
    ~deployed_waypoints g demands =
  let stats = ctx.Obs.Ctx.stats in
  let m = Digraph.edge_count g in
  if Array.length deployed_weights <> m then
    invalid_arg "Reopt.reoptimize: deployed weight length mismatch";
  let frozen = Array.make m false in
  List.iter
    (fun e ->
      if e < 0 || e >= m then
        invalid_arg "Reopt.reoptimize: frozen edge outside the graph";
      frozen.(e) <- true)
    frozen_edges;
  let budget =
    match max_weight_changes with Some b -> b | None -> max 1 (m / 10)
  in
  let st = Random.State.make [| ls_params.Local_search.seed; 0x4e09 |] in
  let wmax = ls_params.Local_search.wmax in
  let max_evals = ls_params.Local_search.max_evals in
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
  Array.iteri
    (fun e f -> if f then Engine.Evaluator.disable_edge ev ~edge:e)
    frozen;
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
  let changed = Array.make m false and changes = ref 0 in
  let best_w = ref (Array.copy current) and best_mlu = ref !cur_mlu in
  let evals = ref 0 and probes = ref 0 and reused = ref 0 in
  let memo = Memo.create 6 in
  (* The candidate weights of one move, ascending and unique. *)
  let cand = Array.make 7 0 and ncand = ref 0 in
  let add_cand old w =
    if w >= 1 && w <= wmax && w <> old then begin
      let i = ref !ncand in
      while !i > 0 && cand.(!i - 1) > w do
        decr i
      done;
      if !i = 0 || cand.(!i - 1) <> w then begin
        Array.blit cand !i cand (!i + 1) (!ncand - !i);
        cand.(!i) <- w;
        incr ncand
      end
    end
  in
  (* Budgeted local search: a move on edge e is admissible if it keeps
     |{e : w_e <> deployed}| within the budget (reverting frees it). *)
  let tracer = ctx.Obs.Ctx.tracer in
  let tok = Obs.Tracer.start tracer "reopt:weights" in
  (try
  while !evals < max_evals && not (Obs.Ctx.expired ctx) do
    let e =
      if Random.State.float st 1. < 0.6 then begin
        (* Most utilized edge under the current weights — the engine's
           load vector is already up to date for them. *)
        let loads = Engine.Evaluator.loads ev in
        let arg = ref 0 and best = ref neg_infinity in
        for e = 0 to m - 1 do
          let u = loads.(e) /. caps.(e) in
          if u > !best && not frozen.(e) then begin
            best := u;
            arg := e
          end
        done;
        !arg
      end
      else Random.State.int st m
    in
    if (not frozen.(e)) && (changed.(e) || !changes < budget) then begin
      let old = current.(e) in
      ncand := 0;
      add_cand old (old + 1);
      add_cand old (old + 2);
      add_cand old wmax;
      add_cand old (old - 1);
      add_cand old 1;
      add_cand old deployed_weights.(e);
      add_cand old (1 + Random.State.int st wmax);
      (* A candidate wins only below the best so far and the acceptance
         bar; a probe that provably cannot stops early, so the first
         minimum and the accepted move are those of full probes.  A
         memoized exact MLU stands at any threshold; a memoized cut only
         at a threshold no higher than the one it was cut at — a value
         above the threshold can never be the accepted move. *)
      let best_cand = ref 0 and best_cand_mlu = ref infinity in
      for i = 0 to !ncand - 1 do
        if !evals < max_evals then begin
          incr evals;
          let wv = cand.(i) in
          let bar = !cur_mlu -. 1e-12 in
          let above =
            if !best_cand > 0 && !best_cand_mlu < bar then !best_cand_mlu
            else bar
          in
          let key = (e * (wmax + 1)) + wv in
          let s = Memo.slot memo key in
          if memo.Memo.keys.(s) = key
             && (memo.Memo.mlu.(s) < infinity || above <= memo.Memo.cut_at.(s))
          then begin
            incr reused;
            cell.Engine.Evaluator.mlu <- memo.Memo.mlu.(s)
          end
          else begin
            incr probes;
            Engine.Evaluator.probe_mlu ev ~edge:e (float_of_int wv) ~above cell;
            memo.Memo.mlu.(s) <- cell.Engine.Evaluator.mlu;
            memo.Memo.cut_at.(s) <- above;
            if memo.Memo.keys.(s) <> key then Memo.add memo s key
          end;
          let mlu = cell.Engine.Evaluator.mlu in
          if !best_cand = 0 || mlu < !best_cand_mlu then begin
            best_cand := wv;
            best_cand_mlu := mlu
          end
        end
      done;
      let mlu = !best_cand_mlu and wv = !best_cand in
      if wv > 0 && mlu < !cur_mlu -. 1e-12 then begin
        current.(e) <- wv;
        Engine.Evaluator.set_weight ev ~edge:e (float_of_int wv);
        Engine.Evaluator.commit ev;
        Memo.clear memo;
        cur_mlu := mlu;
        let now_changed = wv <> deployed_weights.(e) in
        if now_changed <> changed.(e) then begin
          changed.(e) <- now_changed;
          if now_changed then incr changes else decr changes
        end;
        if mlu < !best_mlu -. 1e-12 then begin
          best_mlu := mlu;
          best_w := Array.copy current
        end
      end
    end
    else incr evals
  done
  with ex ->
    Obs.Tracer.finish tracer tok;
    raise ex);
  if tok >= 0 then begin
    Obs.Tracer.attr tracer tok (Obs.Attr.int "evals" !evals);
    Obs.Tracer.attr tracer tok (Obs.Attr.int "probes" !probes);
    Obs.Tracer.attr tracer tok (Obs.Attr.int "reused" !reused)
  end;
  Obs.Tracer.finish tracer tok;
  (* Waypoint step: re-pick greedily under the new weights (not
     budgeted; segment-stack changes are local to ingresses). *)
  let best_w_float = Weights.of_ints !best_w in
  Array.iteri (fun e f -> if f then best_w_float.(e) <- infinity) frozen;
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
