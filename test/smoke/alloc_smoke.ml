(* Allocation-discipline smoke: proves the engine's documented
   zero-allocation contracts with [Gc.minor_words] bracketing on real
   topologies, larger and longer than the tier-1 unit variants.  Four
   invariants:

   - the probe loop (set_weight / evaluate_into / undo) allocates no
     minor words per iteration once warm, and neither does the bounded
     probe ([probe_mlu]), cut or exact;
   - a whole-topology failure sweep (disable_edge / reachable /
     evaluate_into / undo) allocates no minor words per sweep once warm;
   - a GreedyWPO candidate sweep for one demand (segment_peak over the
     direct route and every waypoint) allocates no minor words once the
     unit rows are cached;
   - [mlu_of_loads] allocates at most its boxed result per call, never
     a word per edge;
   - a warm [Reopt.reoptimize_ctx] (400 evaluations, the serving
     daemon's budget) stays under a ceiling of minor words per budget
     unit: its probe memo and candidate buffer allocate nothing per
     probe or hit.

   Run with `dune build @alloc-smoke' (part of the `@smoke' umbrella).
   Exits 0 in bytecode without measuring: outside native code every
   float operation boxes, so the invariant only holds natively. *)

open Netgraph
open Te

let gc_buf = Array.make 2 0.

let minor_delta f =
  gc_buf.(0) <- Gc.minor_words ();
  f ();
  gc_buf.(1) <- Gc.minor_words ();
  gc_buf.(1) -. gc_buf.(0)

let rec routable_from ev demands i =
  i >= Array.length demands
  ||
  let { Demand.src = s; dst = d; _ } = demands.(i) in
  Engine.Evaluator.reachable ev ~src:s ~dst:d
  && routable_from ev demands (i + 1)

let demands_of g ~count ~seed =
  let n = Digraph.node_count g in
  let st = Random.State.make [| seed |] in
  Array.init count (fun _ ->
      let s = Random.State.int st n in
      let d = (s + 1 + Random.State.int st (n - 1)) mod n in
      { Demand.src = s; dst = d; size = float_of_int (1 + Random.State.int st 6) })

let check_probe_loop name g =
  let w = Weights.inverse_capacity g in
  let m = Digraph.edge_count g in
  let demands = demands_of g ~count:60 ~seed:0x41c in
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev demands;
  let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  (* materialize the base-weight state first: destinations first built
     under probed weights are unknown to the undo trail and dropped on
     undo, so without this the warm state never forms *)
  Engine.Evaluator.evaluate_into ev mx;
  let moves = Array.init m (fun e -> (e, (w.(e) *. 1.5) +. 1.)) in
  let pass () =
    for i = 0 to m - 1 do
      let e, pw = moves.(i) in
      Engine.Evaluator.set_weight ev ~edge:e pw;
      Engine.Evaluator.evaluate_into ev mx;
      Engine.Evaluator.undo ev
    done
  in
  for _ = 1 to 3 do
    pass ()
  done;
  let words = minor_delta pass in
  Printf.printf "%-12s probe loop   %4d edges  %8.0f minor words/pass\n" name m
    words;
  if words <> 0. then (
    Printf.eprintf "FAIL: %s warm probe pass allocated %.0f minor words\n" name
      words;
    exit 1)

(* Bounded probes against half the committed MLU (most get cut) and
   against infinity (each runs to its exact MLU); the threshold sits boxed
   in the move tuple, like the weight. *)
let check_probe_mlu_loop name g =
  let w = Weights.inverse_capacity g in
  let m = Digraph.edge_count g in
  let demands = demands_of g ~count:60 ~seed:0x41c in
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev demands;
  let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  Engine.Evaluator.evaluate_into ev mx;
  let base = mx.Engine.Evaluator.mlu in
  let moves =
    Array.init m (fun e ->
        (e, (w.(e) *. 1.5) +. 1., if e mod 2 = 0 then base *. 0.5 else infinity))
  in
  let pass () =
    for i = 0 to m - 1 do
      let e, pw, above = moves.(i) in
      Engine.Evaluator.probe_mlu ev ~edge:e pw ~above mx
    done
  in
  for _ = 1 to 3 do
    pass ()
  done;
  let st = Engine.Evaluator.stats ev in
  let cut0 = st.Engine.Stats.probes_cut in
  let words = minor_delta pass in
  Printf.printf "%-12s probe_mlu    %4d edges  %8.0f minor words/pass (%d cut)\n"
    name m words (st.Engine.Stats.probes_cut - cut0);
  if words <> 0. then (
    Printf.eprintf "FAIL: %s warm probe_mlu pass allocated %.0f minor words\n"
      name words;
    exit 1)

let check_failure_sweep name g =
  let w = Weights.inverse_capacity g in
  let m = Digraph.edge_count g in
  let demands = demands_of g ~count:40 ~seed:0x9a7 in
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev demands;
  let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  Engine.Evaluator.evaluate_into ev mx;
  let sweep () =
    for e = 0 to m - 1 do
      Engine.Evaluator.disable_edge ev ~edge:e;
      if routable_from ev demands 0 then Engine.Evaluator.evaluate_into ev mx;
      Engine.Evaluator.undo ev
    done
  in
  for _ = 1 to 3 do
    sweep ()
  done;
  let words = minor_delta sweep in
  Printf.printf "%-12s fail sweep   %4d edges  %8.0f minor words/sweep\n" name
    m words;
  if words <> 0. then (
    Printf.eprintf "FAIL: %s warm failure sweep allocated %.0f minor words\n"
      name words;
    exit 1)

let check_candidate_sweep name g =
  let w = Weights.inverse_capacity g in
  let n = Digraph.node_count g in
  let demands = demands_of g ~count:40 ~seed:0x5e9 in
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev demands;
  let base = Engine.Evaluator.loads ev in
  let { Demand.src; dst; size } = demands.(0) in
  let vias =
    Array.of_list
      (-1 :: List.filter (fun v -> v <> src && v <> dst) (List.init n Fun.id))
  in
  let out = [| 0. |] and best = [| infinity |] in
  let sweep () =
    best.(0) <- infinity;
    for j = 0 to Array.length vias - 1 do
      Engine.Evaluator.segment_peak ev ~src ~via:vias.(j) ~dst ~scale:size ~base
        ~out;
      if out.(0) < best.(0) then best.(0) <- out.(0)
    done
  in
  sweep ();
  let words = minor_delta sweep in
  Printf.printf "%-12s wpo scan     %4d cands  %8.0f minor words/sweep\n" name
    (Array.length vias) words;
  if words <> 0. then (
    Printf.eprintf "FAIL: %s warm candidate sweep allocated %.0f minor words\n"
      name words;
    exit 1)

let check_mlu_of_loads name g =
  let ev = Engine.Evaluator.create g (Weights.inverse_capacity g) in
  Engine.Evaluator.set_commodities ev (demands_of g ~count:40 ~seed:0x3b1);
  let loads = Engine.Evaluator.loads ev in
  let calls = 100 and out = [| 0. |] in
  let loop () =
    for _ = 1 to calls do
      out.(0) <- Engine.Evaluator.mlu_of_loads g loads
    done
  in
  loop ();
  let per_call = minor_delta loop /. float_of_int calls in
  Printf.printf "%-12s mlu_of_loads %4d edges  %8.1f minor words/call\n" name
    (Digraph.edge_count g) per_call;
  if per_call > 2. then (
    Printf.eprintf "FAIL: %s mlu_of_loads allocated %.1f minor words per call\n"
      name per_call;
    exit 1)

(* The whole call is bracketed, waypoint re-pick included, on a warm
   evaluator as the serving daemon passes one: about 155 words per unit,
   of which the greedy waypoint re-pick is some 100 and the engine's
   probe repairs some 30.  Probing every repeated (edge, weight) pair
   instead of reading the memo reads about 176; a memo of boxed keys or
   values adds words on every probe and hit. *)
let reopt_words_per_unit_max = 165.

let check_reopt name g =
  let m = Digraph.edge_count g in
  let st = Random.State.make [| 0x7e0 |] in
  let deployed = Array.init m (fun _ -> 1 + Random.State.int st 16) in
  let demands = demands_of g ~count:60 ~seed:0x7e1 in
  let ev = Engine.Evaluator.create g (Weights.of_ints deployed) in
  let ls_params = { Local_search.default_params with max_evals = 400 } in
  let run () =
    ignore
      (Reopt.reoptimize_ctx (Obs.Ctx.make ()) ~ls_params ~ev
         ~deployed_weights:deployed ~deployed_waypoints:(Segments.none demands)
         g demands)
  in
  run ();
  let per_unit =
    minor_delta run /. float_of_int ls_params.Local_search.max_evals
  in
  Printf.printf "%-12s reopt        %4d evals  %8.1f minor words/unit\n" name
    ls_params.Local_search.max_evals per_unit;
  if per_unit > reopt_words_per_unit_max then (
    Printf.eprintf "FAIL: %s warm reopt allocated %.1f minor words per unit\n"
      name per_unit;
    exit 1)

let () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ ->
      print_endline "alloc smoke: skipped (requires native code)"
  | Sys.Native ->
      List.iter
        (fun name ->
          let g = Topology.Datasets.load name in
          check_probe_loop name g;
          check_failure_sweep name g)
        [ "Abilene"; "Germany50"; "GtsCe" ];
      List.iter
        (fun name ->
          let g = Topology.Datasets.load name in
          check_probe_mlu_loop name g;
          check_candidate_sweep name g;
          check_mlu_of_loads name g)
        [ "Germany50"; "GtsCe" ];
      check_reopt "Germany50" (Topology.Datasets.load "Germany50");
      print_endline "alloc smoke OK"
