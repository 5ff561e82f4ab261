open Netgraph

type params = {
  wmax : int;
  sweeps : int;
  levels : int;
  max_bumps : int;
  second : bool;
}

let default_params =
  { wmax = 64; sweeps = 12; levels = 4; max_bumps = 12; second = true }

type result = {
  weights : int array;
  weights2 : int array;
  splits : float array;
  demands : Network.demand array;
  mlu : float;
  initial_mlu : float;
  evals : int;
  sweeps_run : int;
  moves : int;
  bumps : int;
}

let optimize_ctx (ctx : Obs.Ctx.t) ?(params = default_params) g w1 demands =
  if params.wmax < 2 then invalid_arg "Omw.optimize: wmax < 2";
  if params.levels < 1 then invalid_arg "Omw.optimize: levels < 1";
  let m = Digraph.edge_count g in
  if Array.length w1 <> m then invalid_arg "Omw.optimize: weights length mismatch";
  let demands = Demand.aggregate demands in
  let nd = Array.length demands in
  let w2 = Array.make m 1 in
  let tracer = ctx.Obs.Ctx.tracer in
  let stats = ctx.Obs.Ctx.stats in
  let ev1 =
    Engine.Evaluator.create ~stats ~probe:(Obs.Ctx.probe ctx) g
      (Weights.of_ints w1)
  in
  let ev2 = Engine.Evaluator.create ~stats g (Weights.of_ints w2) in
  let alpha = Array.make nd 1. in
  let scratch = Array.make m 0. in
  (* Canonical evaluation of the current (alpha, w2) configuration:
     each system's share goes through [set_commodities] on its own
     evaluator exactly like a single-weight run, and the totals add up
     edge-wise.  With every split at 1 the second commodity list is
     empty and the value is the plain system-1 engine MLU — bit-equal
     to {!Ecmp.mlu_of} on [w1], which is the degenerate-mode
     equivalence the tests pin down. *)
  let canonical () =
    let c1 = ref [] and c2 = ref [] in
    for i = nd - 1 downto 0 do
      let d = demands.(i) in
      let a = alpha.(i) in
      if a > 0. then c1 := { d with size = a *. d.size } :: !c1;
      if a < 1. then c2 := { d with size = (1. -. a) *. d.size } :: !c2
    done;
    Engine.Evaluator.set_commodities ev1 (Array.of_list !c1);
    match !c2 with
    | [] -> Engine.Evaluator.mlu ev1
    | c2 ->
      let l1 = Engine.Evaluator.loads ev1 in
      Array.blit l1 0 scratch 0 m;
      Engine.Evaluator.set_commodities ev2 (Array.of_list c2);
      let l2 = Engine.Evaluator.loads ev2 in
      for e = 0 to m - 1 do
        scratch.(e) <- scratch.(e) +. l2.(e)
      done;
      Engine.Evaluator.mlu_of_loads g scratch
  in
  (* Descent state: the aggregate load vector under the current splits,
     maintained incrementally from the cached unit flows and rebuilt
     after any second-weight change. *)
  let loads = Array.make m 0. in
  let buf1 = Array.make m 0. and buf2 = Array.make m 0. in
  let recompute_loads () =
    Array.fill loads 0 m 0.;
    for i = 0 to nd - 1 do
      let d = demands.(i) in
      let a = alpha.(i) in
      if a > 0. then
        Engine.Evaluator.add_unit ev1 ~src:d.Network.src ~dst:d.Network.dst
          ~scale:(a *. d.Network.size) ~into:loads;
      if a < 1. then
        Engine.Evaluator.add_unit ev2 ~src:d.Network.src ~dst:d.Network.dst
          ~scale:((1. -. a) *. d.Network.size) ~into:loads
    done
  in
  let mlu_of_loads_buf () =
    let worst = ref 0. in
    for e = 0 to m - 1 do
      let u = loads.(e) /. Digraph.cap g e in
      if u > !worst then worst := u
    done;
    !worst
  in
  let evals = ref 0 and moves = ref 0 and bumps = ref 0 in
  let cur_mlu = ref 0. in
  let grid =
    Array.init (params.levels + 1) (fun k ->
        float_of_int k /. float_of_int params.levels)
  in
  (* One coordinate-descent sweep: demands in index order, candidate
     splits on the grid, strict improvements applied immediately.  The
     candidate MLU comes from one O(m) scan over
     [loads + (a' - a) (unit1 - unit2)] — no engine re-evaluation. *)
  let sweep () =
    let improved = ref false in
    for i = 0 to nd - 1 do
      let d = demands.(i) in
      let a = alpha.(i) in
      Array.fill buf1 0 m 0.;
      Array.fill buf2 0 m 0.;
      Engine.Evaluator.add_unit ev1 ~src:d.Network.src ~dst:d.Network.dst
        ~scale:d.Network.size ~into:buf1;
      Engine.Evaluator.add_unit ev2 ~src:d.Network.src ~dst:d.Network.dst
        ~scale:d.Network.size ~into:buf2;
      let best_a = ref a and best = ref !cur_mlu in
      Array.iter
        (fun a' ->
          if a' <> a then begin
            incr evals;
            let da = a' -. a in
            let worst = ref 0. in
            for e = 0 to m - 1 do
              let u =
                (loads.(e) +. (da *. (buf1.(e) -. buf2.(e))))
                /. Digraph.cap g e
              in
              if u > !worst then worst := u
            done;
            if !worst < !best -. 1e-12 then begin
              best := !worst;
              best_a := a'
            end
          end)
        grid;
      if !best_a <> a then begin
        let da = !best_a -. a in
        for e = 0 to m - 1 do
          loads.(e) <- loads.(e) +. (da *. (buf1.(e) -. buf2.(e)))
        done;
        alpha.(i) <- !best_a;
        cur_mlu := mlu_of_loads_buf ();
        incr moves;
        improved := true
      end
    done;
    !improved
  in
  (* Stalled: double the second weight of the most utilized link
     (lowest edge id on ties) so system 2 detours around the
     bottleneck, then let the sweeps re-split.  Returns false once the
     weight is already at the ceiling. *)
  let bump () =
    let e_star = ref 0 and worst = ref (-1.) in
    for e = 0 to m - 1 do
      let u = loads.(e) /. Digraph.cap g e in
      if u > !worst then begin
        worst := u;
        e_star := e
      end
    done;
    let cur = w2.(!e_star) in
    let nw = min params.wmax (cur * 2) in
    if nw = cur then false
    else begin
      w2.(!e_star) <- nw;
      Engine.Evaluator.set_weight ev2 ~edge:!e_star (float_of_int nw);
      Engine.Evaluator.commit ev2;
      recompute_loads ();
      cur_mlu := mlu_of_loads_buf ();
      incr bumps;
      Obs.Tracer.instant tracer
        ~attrs:[ Obs.Attr.int "edge" !e_star; Obs.Attr.int "w2" nw ]
        "omw:bump";
      true
    end
  in
  let initial_mlu = canonical () in
  let sweeps_run = ref 0 in
  let tok = Obs.Tracer.start tracer "omw:descent" in
  Obs.Tracer.attr tracer tok (Obs.Attr.float "initial_mlu" initial_mlu);
  let best_alpha = Array.copy alpha and best_w2 = Array.copy w2 in
  if params.second && params.sweeps > 0 && nd > 0 then begin
    recompute_loads ();
    cur_mlu := mlu_of_loads_buf ();
    (* Within a sweep the internal MLU only decreases, so the
       end-of-sweep state is the sweep's best; a bump may worsen it
       temporarily, hence the snapshot of the best configuration. *)
    let best_mlu = ref !cur_mlu in
    let snapshot () =
      if !cur_mlu < !best_mlu -. 1e-12 then begin
        best_mlu := !cur_mlu;
        Array.blit alpha 0 best_alpha 0 nd;
        Array.blit w2 0 best_w2 0 m
      end
    in
    let stop = ref false in
    while !sweeps_run < params.sweeps && not !stop && not (Obs.Ctx.expired ctx)
    do
      incr sweeps_run;
      let improved = sweep () in
      snapshot ();
      Obs.Tracer.instant tracer
        ~attrs:
          [ Obs.Attr.int "sweep" !sweeps_run; Obs.Attr.float "mlu" !cur_mlu ]
        "omw:sweep";
      if not improved then
        if !bumps < params.max_bumps then begin
          if not (bump ()) then stop := true
        end
        else stop := true
    done;
    Array.blit best_alpha 0 alpha 0 nd;
    Array.blit best_w2 0 w2 0 m;
    (* An unchanged vector diffs to nothing inside [set_weights]. *)
    Engine.Evaluator.set_weights ev2 (Weights.of_ints w2);
    Engine.Evaluator.commit ev2
  end;
  let final_mlu = canonical () in
  (* Safety net: the internal O(m) scans and the canonical engine
     evaluation can disagree in the last bits, so re-check against the
     pure system-1 start and fall back to it if the descent did not
     actually win. *)
  let mlu, splits, weights2 =
    if final_mlu <= initial_mlu then (final_mlu, alpha, w2)
    else
      ( initial_mlu,
        Array.make nd 1.,
        Array.make m 1 )
  in
  Obs.Tracer.attr tracer tok (Obs.Attr.float "mlu" mlu);
  Obs.Tracer.attr tracer tok (Obs.Attr.int "sweeps" !sweeps_run);
  Obs.Tracer.finish tracer tok;
  {
    weights = Array.copy w1;
    weights2;
    splits;
    demands;
    mlu;
    initial_mlu;
    evals = !evals;
    sweeps_run = !sweeps_run;
    moves = !moves;
    bumps = !bumps;
  }
