type result = {
  weights : Weights.t;
  int_weights : int array;
  waypoints : Segments.setting;
  mlu : float;
  stage_mlu : (string * float) list;
}

let optimize_iterated_ctx (ctx : Obs.Ctx.t) ?restarts
    ?(ls_params = Local_search.default_params) ?(iterations = 3) ?prune g
    demands =
  if iterations < 1 then invalid_arg "Joint.optimize_iterated: iterations >= 1";
  let best = ref None in
  let consider stage int_w setting mlu stages =
    (match !best with
    | Some (_, _, _, bm, _) when bm <= mlu +. 1e-12 -> ()
    | _ -> best := Some (Weights.of_ints int_w, int_w, setting, mlu, ()));
    (stage, mlu) :: stages
  in
  let stages = ref [] in
  let int_w = ref None in
  let setting = ref (Segments.none demands) in
  for it = 1 to iterations do
    (* Weight step: optimize for the demand list split at the current
       waypoints, warm-starting from the previous weights. *)
    let split = Segments.expand demands !setting in
    let ls =
      Obs.Ctx.span ctx
        ~attrs:[ Obs.Attr.int "iteration" it ]
        "joint:weights"
        (fun () ->
          Local_search.optimize_ctx ctx ?restarts
            ~params:
              { ls_params with
                Local_search.seed = ls_params.Local_search.seed + it }
            ?init:!int_w g split)
    in
    int_w := Some ls.Local_search.weights;
    let w = Weights.of_ints ls.Local_search.weights in
    let mlu_w =
      Ecmp.mlu_of ~stats:ctx.Obs.Ctx.stats ~waypoints:!setting g w demands
    in
    stages :=
      consider
        (Printf.sprintf "weights#%d" it)
        ls.Local_search.weights !setting mlu_w !stages;
    (* Waypoint step: re-pick waypoints from scratch under the new
       weights (the greedy is cheap; re-picking avoids lock-in). *)
    let wpo =
      Obs.Ctx.span ctx
        ~attrs:[ Obs.Attr.int "iteration" it ]
        "joint:waypoints"
        (fun () ->
          Greedy_wpo.optimize_multi_ctx ctx ?prune ~rounds:1 g w demands)
    in
    setting := wpo.Greedy_wpo.setting;
    stages :=
      consider
        (Printf.sprintf "waypoints#%d" it)
        ls.Local_search.weights !setting wpo.Greedy_wpo.mlu !stages
  done;
  match !best with
  | Some (weights, int_weights, waypoints, mlu, ()) ->
    { weights; int_weights; waypoints; mlu; stage_mlu = List.rev !stages }
  | None -> assert false (* iterations >= 1 always records a candidate *)

let optimize_ctx (ctx : Obs.Ctx.t) ?restarts
    ?(ls_params = Local_search.default_params) ?(full_pipeline = false) ?prune g
    demands =
  (* Step 1: link-weight optimization. *)
  let ls =
    Obs.Ctx.span ctx "joint:weights" (fun () ->
        Local_search.optimize_ctx ctx ?restarts ~params:ls_params g demands)
  in
  let w1 = Weights.of_ints ls.Local_search.weights in
  (* Step 2: greedy waypoints under those weights. *)
  let wpo =
    Obs.Ctx.span ctx "joint:waypoints" (fun () ->
        Greedy_wpo.optimize_ctx ctx ?prune g w1 demands)
  in
  let setting = Segments.of_single wpo.Greedy_wpo.waypoints in
  let stage2 = wpo.Greedy_wpo.mlu in
  let stages =
    [ ("HeurOSPF", ls.Local_search.mlu); ("GreedyWPO", stage2) ]
  in
  if not full_pipeline then
    { weights = w1; int_weights = ls.Local_search.weights; waypoints = setting;
      mlu = stage2; stage_mlu = stages }
  else begin
    (* Steps 3–4: split demands at their waypoints and re-optimize the
       weights for the split list. *)
    let split = Segments.expand demands setting in
    let ls2 =
      Obs.Ctx.span ctx "joint:split-reopt" (fun () ->
          Local_search.optimize_ctx ctx ?restarts ~params:ls_params
            ~init:ls.Local_search.weights g split)
    in
    let w2 = Weights.of_ints ls2.Local_search.weights in
    (* Evaluate the original demands + waypoints under the new weights:
       re-running the greedy under w2 also re-validates the waypoints. *)
    let mlu2 =
      Ecmp.mlu_of ~stats:ctx.Obs.Ctx.stats ~waypoints:setting g w2 demands
    in
    let stages = stages @ [ ("HeurOSPF2", mlu2) ] in
    if mlu2 < stage2 -. 1e-12 then
      { weights = w2; int_weights = ls2.Local_search.weights;
        waypoints = setting; mlu = mlu2; stage_mlu = stages }
    else
      { weights = w1; int_weights = ls.Local_search.weights;
        waypoints = setting; mlu = stage2; stage_mlu = stages }
  end
