open Netgraph

type params = {
  wmax : int;
  rounds : int;
  checkpoint_every : int;
  step : float;
  decay : float;
  min_weight : float;
  tol : float;
}

let default_params =
  { wmax = 64; rounds = 300; checkpoint_every = 5; step = 1.; decay = 0.03;
    min_weight = 1e-3; tol = 5e-3 }

type result = {
  weights : int array;
  mlu : float;
  initial_mlu : float;
  lp_bound : float;
  evals : int;
  rounds_run : int;
  trail : (int * float) list;
}

let optimize_ctx (ctx : Obs.Ctx.t) ?(params = default_params) g demands =
  if params.wmax < 2 then invalid_arg "Grad_wo.optimize: wmax < 2";
  if params.rounds < 0 then invalid_arg "Grad_wo.optimize: rounds < 0";
  if params.checkpoint_every < 1 then
    invalid_arg "Grad_wo.optimize: checkpoint_every < 1";
  let tracer = ctx.Obs.Ctx.tracer in
  let m = Digraph.edge_count g in
  let demands = Demand.aggregate demands in
  (* The descent target: the per-edge flows of the min-MLU optimum. *)
  let lp =
    Obs.Ctx.span ctx "grad:lp" (fun () -> Mcf.opt_mlu_lp g demands)
  in
  Engine.Stats.record_lp ctx.Obs.Ctx.stats ~solves:1 ~pivots:lp.Mcf.pivots
    ~warm:0;
  let necessary = lp.Mcf.edge_flows in
  let nc_max = Array.fold_left max 0. necessary in
  let nc_sum = Array.fold_left ( +. ) 0. necessary in
  (* PEFT scales the step by the largest necessary capacity, so one step
     moves weights by at most [params.step]. *)
  let step = if nc_max > 0. then params.step /. nc_max else 0. in
  let w = Weights.inverse_capacity g in
  (* [ev_real] tracks the ECMP flows of the live real-valued vector;
     [ev_int] evaluates the rounded checkpoints.  Both share the
     context's stats, so SPF and evaluation effort is accounted once. *)
  let ev_real =
    Engine.Evaluator.create ~stats:ctx.Obs.Ctx.stats ~probe:(Obs.Ctx.probe ctx)
      g w
  in
  Engine.Evaluator.set_commodities ev_real demands;
  let rounded = Weights.round_to_range ~wmax:params.wmax w in
  let ev_int =
    Engine.Evaluator.create ~stats:ctx.Obs.Ctx.stats
      (Engine.Evaluator.graph ev_real)
      (Weights.of_ints rounded)
  in
  Engine.Evaluator.set_commodities ev_int demands;
  let evals = ref 0 in
  let eval_rounded ints =
    incr evals;
    Engine.Evaluator.set_weights ev_int (Weights.of_ints ints);
    Engine.Evaluator.commit ev_int;
    Engine.Evaluator.mlu ev_int
  in
  let initial_mlu = eval_rounded rounded in
  let best_w = ref rounded and best_mlu = ref initial_mlu in
  let trail = ref [ (0, initial_mlu) ] in
  let tok = Obs.Tracer.start tracer "grad:descent" in
  Obs.Tracer.attr tracer tok (Obs.Attr.float "lp_bound" lp.Mcf.value);
  let round = ref 0 and converged = ref false in
  let checkpoint () =
    let ints = Weights.round_to_range ~wmax:params.wmax w in
    let mlu = eval_rounded ints in
    Obs.Tracer.instant tracer
      ~attrs:[ Obs.Attr.int "round" !round; Obs.Attr.float "mlu" mlu ]
      "grad:checkpoint";
    trail := (!round, mlu) :: !trail;
    if mlu < !best_mlu -. 1e-12 then begin
      best_mlu := mlu;
      best_w := ints
    end
  in
  while
    !round < params.rounds && not !converged && not (Obs.Ctx.expired ctx)
  do
    (* Current ECMP flows under the live real weights. *)
    incr evals;
    let flows = Engine.Evaluator.loads ev_real in
    let delta = ref 0. in
    for e = 0 to m - 1 do
      delta := !delta +. Float.abs (necessary.(e) -. flows.(e))
    done;
    if !delta <= params.tol *. nc_sum then converged := true
    else begin
      (* w_e <- w_e - step_k (necessary_e - flow_e): links the optimum
         needs more of get cheaper, overloaded ones dearer.  ECMP flows
         respond discontinuously to weights, so a fixed step oscillates
         around the optimum forever; the harmonic decay damps the orbit
         onto it. *)
      let step_k = step /. (1. +. (params.decay *. float_of_int !round)) in
      for e = 0 to m - 1 do
        let nw = w.(e) -. (step_k *. (necessary.(e) -. flows.(e))) in
        w.(e) <- (if nw > params.min_weight then nw else params.min_weight)
      done;
      Engine.Evaluator.set_weights ev_real w;
      Engine.Evaluator.commit ev_real;
      incr round;
      if !round mod params.checkpoint_every = 0 then checkpoint ()
    end
  done;
  if !round mod params.checkpoint_every <> 0 || (!converged && !round > 0)
  then checkpoint ();
  Obs.Tracer.attr tracer tok (Obs.Attr.int "rounds" !round);
  Obs.Tracer.attr tracer tok (Obs.Attr.float "mlu" !best_mlu);
  Obs.Tracer.finish tracer tok;
  { weights = !best_w; mlu = !best_mlu; initial_mlu; lp_bound = lp.Mcf.value;
    evals = !evals; rounds_run = !round; trail = List.rev !trail }
