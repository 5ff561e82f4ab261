open Netgraph

type params = {
  wmax : int;
  max_evals : int;
  seed : int;
  use_phi : bool;
  stall_limit : int;
}

let default_params =
  { wmax = 16; max_evals = 1500; seed = 1; use_phi = true; stall_limit = 60 }

type result = { weights : int array; mlu : float; phi : float; evals : int }

(* Memo keys: whole integer weight vectors.  The polymorphic
   [Hashtbl.hash] reads only the first 10 elements, so settings that
   differ only further on share a bucket and a lookup degrades to a
   list scan.  This hash mixes every element (an FNV-1a-style
   xor-multiply per element, then a fold of the high bits into the low
   ones the table indexes by); equality is the structural one, so hits
   and misses are unchanged. *)
module Setting_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  let hash (a : int array) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x100000001b3
    done;
    let h = !h in
    (h lxor (h lsr 29)) land max_int
end)

(* One seeded walk.  [demands] is already aggregated. *)
let run_single (ctx : Obs.Ctx.t) ~params ?init g demands =
  if params.wmax < 2 then invalid_arg "Local_search.optimize: wmax < 2";
  let tracer = ctx.Obs.Ctx.tracer and stats = ctx.Obs.Ctx.stats in
  let m = Digraph.edge_count g in
  let st = Random.State.make [| params.seed; 0x05f |] in
  let init =
    match init with
    | Some w ->
      if Array.length w <> m then
        invalid_arg "Local_search.optimize: init length mismatch";
      Array.copy w
    | None -> Weights.round_to_range ~wmax:params.wmax (Weights.inverse_capacity g)
  in
  (* One evaluator serves the whole walk; candidate moves are probed
     as incremental single-weight updates and rolled back via the undo
     trail rather than rebuilding the ECMP state per candidate. *)
  let ev =
    Engine.Evaluator.create ~stats ~probe:(Obs.Ctx.probe ctx) g
      (Weights.of_ints init)
  in
  Engine.Evaluator.set_commodities ev demands;
  let evals = ref 0 in
  (* Fortz–Thorup keep a hash table of already-evaluated settings; memo
     hits do not consume the evaluation budget. *)
  let memo : (float * float * float array) Setting_tbl.t =
    Setting_tbl.create 1024
  in
  (* Evaluates the engine's current weight vector, which the caller has
     already moved to [w] (the memo key).  Results land in a reused
     metrics cell; only the memoized tuple and loads copy allocate. *)
  let mcell = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  let eval_engine w =
    incr evals;
    Engine.Evaluator.evaluate_into ev mcell;
    let loads = Array.copy (Engine.Evaluator.loads ev) in
    let r = (mcell.Engine.Evaluator.mlu, mcell.Engine.Evaluator.phi, loads) in
    if Setting_tbl.length memo < 200_000 then
      Setting_tbl.replace memo (Array.copy w) r;
    r
  in
  let lookup w =
    match Setting_tbl.find_opt memo w with
    | Some r -> r
    | None -> eval_engine w
  in
  let objective (mlu, phi) = if params.use_phi then phi else mlu in
  let current = init in
  let cur_mlu, cur_phi, cur_loads = lookup current in
  let cur_obj = ref (objective (cur_mlu, cur_phi)) in
  let cur_loads = ref cur_loads in
  let best_w = ref (Array.copy current) in
  let best_mlu = ref cur_mlu and best_phi = ref cur_phi in
  let track mlu phi =
    if mlu < !best_mlu -. 1e-12 then begin
      best_mlu := mlu;
      best_phi := phi;
      best_w := Array.copy current
    end
  in
  let stall = ref 0 in
  let caps = Digraph.caps g in
  let pick_edge () =
    (* Bias towards congested links: the argmax-utilization link with
       probability ~0.55, one of five random samples' most utilized with
       0.25, uniform otherwise. *)
    let r = Random.State.float st 1. in
    if r < 0.55 then begin
      let arg = ref 0 and best = ref neg_infinity in
      for e = 0 to m - 1 do
        let u = !cur_loads.(e) /. caps.(e) in
        if u > !best then begin
          best := u;
          arg := e
        end
      done;
      !arg
    end
    else if r < 0.8 then begin
      let arg = ref (Random.State.int st m) and best = ref neg_infinity in
      for _ = 1 to 5 do
        let e = Random.State.int st m in
        let u = !cur_loads.(e) /. caps.(e) in
        if u > !best then begin
          best := u;
          arg := e
        end
      done;
      !arg
    end
    else Random.State.int st m
  in
  let candidates cur =
    let cs =
      [ cur + 1; cur + 2; cur + 4; params.wmax; cur - 1; cur - 2; 1;
        1 + Random.State.int st params.wmax ]
    in
    List.sort_uniq compare
      (List.filter (fun w -> w >= 1 && w <= params.wmax && w <> cur) cs)
  in
  (* The memo means an iteration may consume no budget; the iteration
     cap prevents spinning once a tiny search space is fully explored.
     The deadline is advisory and checked only here, at round
     granularity: runs without one stay deterministic. *)
  let walk_tok = Obs.Tracer.start tracer "ls:walk" in
  Obs.Tracer.attr tracer walk_tok (Obs.Attr.int "seed" params.seed);
  let iterations = ref 0 in
  let max_iterations = 20 * params.max_evals in
  while
    !evals < params.max_evals
    && !iterations < max_iterations
    && not (Obs.Ctx.expired ctx)
  do
    incr iterations;
    let e = pick_edge () in
    let old = current.(e) in
    (* Candidates in order while budget remains: a memo hit is free, a
       miss is probed through the engine's set / evaluate / undo move
       protocol and costs one budget unit.  The misses of a round share
       one ["ls:round"] span. *)
    let probes = ref 0 and round_tok = ref (-1) in
    let best_cand = ref None in
    List.iter
      (fun wv ->
        if !evals < params.max_evals then begin
          current.(e) <- wv;
          let mlu, phi, loads =
            match Setting_tbl.find_opt memo current with
            | Some r -> r
            | None ->
              if !probes = 0 then
                round_tok := Obs.Tracer.start tracer "ls:round";
              incr probes;
              Engine.Evaluator.set_weight ev ~edge:e (float_of_int wv);
              let r = eval_engine current in
              Engine.Evaluator.undo ev;
              r
          in
          track mlu phi;
          let obj = objective (mlu, phi) in
          match !best_cand with
          | Some (o, _, _) when o <= obj -> ()
          | _ -> best_cand := Some (obj, wv, loads)
        end)
      (candidates old);
    current.(e) <- old;
    if !probes > 0 then begin
      Obs.Tracer.attr tracer !round_tok (Obs.Attr.int "probes" !probes);
      Obs.Tracer.finish tracer !round_tok;
      stats.Engine.Stats.ls_rounds <- stats.ls_rounds + 1
    end;
    let accept wv obj loads =
      current.(e) <- wv;
      Engine.Evaluator.set_weight ev ~edge:e (float_of_int wv);
      Engine.Evaluator.commit ev;
      cur_obj := obj;
      cur_loads := loads
    in
    (match !best_cand with
    | Some (obj, wv, loads) when obj < !cur_obj -. 1e-12 ->
      accept wv obj loads;
      stats.ls_accepted <- stats.ls_accepted + 1;
      stall := 0
    | Some (obj, wv, loads)
      when obj <= !cur_obj +. 1e-12 && Random.State.float st 1. < 0.3 ->
      (* Sideways move to escape plateaus. *)
      accept wv obj loads;
      stats.ls_sideways <- stats.ls_sideways + 1
    | _ -> incr stall);
    if !stall >= params.stall_limit && !evals < params.max_evals then begin
      (* Perturbation: restart the walk from the best solution with a
         random kick on ~10% of the links. *)
      Obs.Tracer.instant tracer "ls:perturb";
      stats.ls_perturbations <- stats.ls_perturbations + 1;
      Array.blit !best_w 0 current 0 m;
      let kicks = max 1 (m / 10) in
      for _ = 1 to kicks do
        current.(Random.State.int st m) <- 1 + Random.State.int st params.wmax
      done;
      Engine.Evaluator.set_weights ev (Weights.of_ints current);
      Engine.Evaluator.commit ev;
      let mlu, phi, loads = lookup current in
      track mlu phi;
      cur_obj := objective (mlu, phi);
      cur_loads := loads;
      stall := 0
    end
  done;
  Obs.Tracer.attr tracer walk_tok (Obs.Attr.int "evals" !evals);
  Obs.Tracer.attr tracer walk_tok (Obs.Attr.float "mlu" !best_mlu);
  Obs.Tracer.finish tracer walk_tok;
  { weights = !best_w; mlu = !best_mlu; phi = !best_phi; evals = !evals }

(* Restart [r] perturbs the seed by a fixed prime stride, so restart 0
   reproduces the single-walk result exactly. *)
let restart_seed params r = { params with seed = params.seed + (7919 * r) }

let optimize_ctx (ctx : Obs.Ctx.t) ?(restarts = 1) ?params ?init g demands =
  if restarts < 1 then invalid_arg "Local_search.optimize: restarts >= 1";
  let params = Option.value params ~default:default_params in
  let demands = Demand.aggregate demands in
  if restarts = 1 then run_single ctx ~params ?init g demands
  else begin
    let pool = ctx.Obs.Ctx.pool in
    (* Each restart gets a forked context: a private Stats.t (a shared
       one would race across domains) and a detached span buffer; both
       merge back in restart order, so stats totals and the exported
       trace are schedule-independent. *)
    let kids = Array.init restarts (fun _ -> Obs.Ctx.fork ctx) in
    let runs =
      Par.Pool.map pool ~tasks:restarts (fun ~worker:_ r ->
          run_single kids.(r) ~params:(restart_seed params r) ?init g demands)
    in
    for r = 0 to restarts - 1 do
      Obs.Ctx.join ~key:r ~into:ctx kids.(r)
    done;
    (* Best MLU wins; ties keep the lowest restart index. *)
    let best = ref None in
    Array.iter
      (fun res ->
        match !best with
        | Some b when b.mlu <= res.mlu -> ()
        | _ -> best := Some res)
      runs;
    match !best with Some r -> r | None -> assert false (* restarts >= 1 *)
  end
