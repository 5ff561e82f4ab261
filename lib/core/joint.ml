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

(* Steps 3–4: split the demands at their waypoints and re-optimize the
   weights for the split list, warm-started from [r]'s weights; keeps
   the new weights if the original demands + waypoints route better
   under them. *)
let split_reopt (ctx : Obs.Ctx.t) ?restarts ~ls_params g demands r =
  let ls =
    Obs.Ctx.span ctx "joint:split-reopt" (fun () ->
        Local_search.optimize_ctx ctx ?restarts ~params:ls_params
          ~init:r.int_weights g (Segments.expand demands r.waypoints))
  in
  let weights = Weights.of_ints ls.Local_search.weights in
  let mlu =
    Ecmp.mlu_of ~stats:ctx.Obs.Ctx.stats ~waypoints:r.waypoints g weights
      demands
  in
  let stage_mlu = r.stage_mlu @ [ ("HeurOSPF2", mlu) ] in
  ( ls.Local_search.evals,
    if mlu < r.mlu -. 1e-12 then
      { r with weights; int_weights = ls.Local_search.weights; mlu; stage_mlu }
    else { r with stage_mlu } )

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
  let r =
    { weights = w1; int_weights = ls.Local_search.weights;
      waypoints = Segments.of_single wpo.Greedy_wpo.waypoints;
      mlu = wpo.Greedy_wpo.mlu;
      stage_mlu = [ ("HeurOSPF", ls.Local_search.mlu);
                    ("GreedyWPO", wpo.Greedy_wpo.mlu) ] }
  in
  if full_pipeline then snd (split_reopt ctx ?restarts ~ls_params g demands r)
  else r
