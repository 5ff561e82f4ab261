(* Tests for lib/engine: the incremental evaluator must be observably
   equivalent to from-scratch evaluation under arbitrary single-weight
   perturbation sequences, the undo/commit protocol must restore exact
   state, and the instrumentation must prove that local search does
   strictly fewer full SPF rebuilds than candidate evaluations. *)

open Netgraph
open Te

let checkf = Alcotest.(check (float 1e-9))

(* [(mlu, phi)] of the evaluator's current weights. *)
let evaluate ev =
  let r = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  Engine.Evaluator.evaluate_into ev r;
  (r.Engine.Evaluator.mlu, r.Engine.Evaluator.phi)

(* Deterministic random instances: a strongly connected synthetic
   topology, integer weights (so distances are exact floats and the
   incremental and from-scratch DAGs must agree bit for bit), and a few
   integer-size demands. *)
let instance seed =
  let nodes = 8 + ((seed mod 5) * 3) in
  let links = nodes + 4 + (seed mod 7) in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "prop%d" seed) ~nodes
      ~links ()
  in
  let st = Random.State.make [| 0xe46; seed |] in
  let m = Digraph.edge_count g in
  let w = Array.init m (fun _ -> float_of_int (1 + Random.State.int st 10)) in
  let ndem = 4 + Random.State.int st 6 in
  let demands =
    Array.init ndem (fun _ ->
        let s = Random.State.int st nodes in
        let t = (s + 1 + Random.State.int st (nodes - 1)) mod nodes in
        { Demand.src = s; dst = t; size = float_of_int (1 + Random.State.int st 5) })
  in
  (g, w, demands, st)

(* Demand records from [(src, dst, size)] literals; sizes may be 0. *)
let dms = Array.map (fun (src, dst, size) -> { Demand.src; dst; size })

let oracle_loads ?waypoints g w demands =
  Ecmp_oracle.loads ?waypoints (Ecmp_oracle.make g w) demands

let check_loads msg expected actual =
  Array.iteri
    (fun e x -> checkf (Printf.sprintf "%s: load edge %d" msg e) x actual.(e))
    expected

let check_matches_scratch ~msg g ev expected_w demands =
  Alcotest.(check bool)
    (msg ^ ": weights in sync") true
    (Engine.Evaluator.weights ev = expected_w);
  let incr = Engine.Evaluator.loads ev in
  let scratch = oracle_loads g expected_w demands in
  check_loads msg scratch incr;
  checkf (msg ^ ": mlu")
    (Engine.Evaluator.mlu_of_loads g scratch)
    (fst (evaluate ev))

(* The tentpole property: after any sequence of committed updates,
   probed-and-undone updates and bulk rewrites, the evaluator reports
   the same loads and MLU as the naive oracle (within 1e-9). *)
let test_equivalence_under_perturbations () =
  for seed = 1 to 6 do
    let g, w0, demands, st = instance seed in
    let m = Digraph.edge_count g in
    let ev = Engine.Evaluator.create g w0 in
    Engine.Evaluator.set_commodities ev demands;
    let current = Array.copy w0 in
    for step = 1 to 25 do
      let msg = Printf.sprintf "seed %d step %d" seed step in
      (match Random.State.int st 4 with
      | 0 ->
        (* accepted single-weight move *)
        let e = Random.State.int st m in
        let wv = float_of_int (1 + Random.State.int st 12) in
        Engine.Evaluator.set_weight ev ~edge:e wv;
        Engine.Evaluator.commit ev;
        current.(e) <- wv
      | 1 ->
        (* probed and rejected single-weight move *)
        let e = Random.State.int st m in
        let wv = float_of_int (1 + Random.State.int st 12) in
        Engine.Evaluator.set_weight ev ~edge:e wv;
        ignore (evaluate ev);
        Engine.Evaluator.undo ev
      | 2 ->
        (* small bulk diff, kept *)
        let w = Array.copy current in
        for _ = 1 to 1 + Random.State.int st 3 do
          w.(Random.State.int st m) <-
            float_of_int (1 + Random.State.int st 12)
        done;
        Engine.Evaluator.set_weights ev w;
        Engine.Evaluator.commit ev;
        Array.blit w 0 current 0 m
      | _ ->
        (* large bulk rewrite (cache flush), rejected *)
        let w =
          Array.init m (fun _ -> float_of_int (1 + Random.State.int st 12))
        in
        Engine.Evaluator.set_weights ev w;
        ignore (evaluate ev);
        Engine.Evaluator.undo ev);
      if step mod 5 = 0 then check_matches_scratch ~msg g ev current demands
    done;
    check_matches_scratch
      ~msg:(Printf.sprintf "seed %d final" seed)
      g ev current demands
  done

(* Dense reference for [Evaluator.loads], built only from the public DAG
   views: for each destination with commodities, ascending, a dense
   m-vector filled by the decreasing-distance ECMP sweep (sizes seeded
   at their sources in arrival order), then added into the aggregate
   entry by entry.  [Error (s, d)] for the first unroutable source, as
   [loads] raises it. *)
let dense_loads ev commodities =
  let g = Engine.Evaluator.graph ev in
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let buf = Array.make m 0. in
  let rec sweep d =
    if d = n then Ok buf
    else begin
      let mine =
        List.filter
          (fun { Demand.src; dst; _ } -> dst = d && src <> d)
          (Array.to_list commodities)
      in
      if mine = [] then sweep (d + 1)
      else begin
        let dag = Engine.Evaluator.dag ev ~target:d in
        match
          List.find_opt
            (fun c -> dag.Engine.Evaluator.dist.(c.Demand.src) = infinity)
            mine
        with
        | Some c -> Error (c.Demand.src, d)
        | None ->
          let nf = Array.make n 0. and v = Array.make m 0. in
          List.iter
            (fun { Demand.src; size; _ } -> nf.(src) <- nf.(src) +. size)
            mine;
          Array.iter
            (fun u ->
              let f = nf.(u) in
              if f > 0. then begin
                nf.(u) <- 0.;
                if u <> d then begin
                  let out = dag.Engine.Evaluator.out_sp.(u) in
                  let share = f /. float_of_int (Array.length out) in
                  Array.iter
                    (fun e ->
                      v.(e) <- share;
                      let x = Digraph.dst g e in
                      nf.(x) <- nf.(x) +. share)
                    out
                end
              end)
            dag.Engine.Evaluator.order;
          for e = 0 to m - 1 do
            buf.(e) <- buf.(e) +. v.(e)
          done;
          sweep (d + 1)
      end
    end
  in
  sweep 0

let check_loads_bits msg ev commodities =
  let actual =
    match Engine.Evaluator.loads ev with
    | l -> Ok (Array.copy l)
    | exception Engine.Evaluator.Unroutable (s, d) -> Error (s, d)
  in
  match (dense_loads ev commodities, actual) with
  | Ok expected, Ok actual ->
    Array.iteri
      (fun e x ->
        if Int64.bits_of_float x <> Int64.bits_of_float actual.(e) then
          Alcotest.failf "%s: edge %d load %h, dense reference %h" msg e
            actual.(e) x)
      expected
  | Error (s, d), Error (s', d') ->
    Alcotest.(check (pair int int)) (msg ^ ": unroutable pair") (s, d) (s', d')
  | Ok _, Error (s, d) ->
    Alcotest.failf "%s: loads raised Unroutable (%d, %d), reference routes"
      msg s d
  | Error (s, d), Ok _ ->
    Alcotest.failf "%s: reference finds (%d, %d) unroutable, loads did not"
      msg s d

(* The sparse load contributions against the dense reference, bit for
   bit, after every step of a random walk over the whole mutation API:
   probes, evaluations, undo, commit, link failure and repair, commodity
   swaps, and a clone refreshed by [copy] and probed on its own. *)
let test_loads_bit_identical () =
  List.iteri
    (fun ti name ->
      let g = Topology.Datasets.load name in
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      let st = Random.State.make [| 0x10ad; ti |] in
      let random_commodities () =
        Array.init (2 * n) (fun _ ->
            let s = Random.State.int st n in
            let d = (s + 1 + Random.State.int st (n - 1)) mod n in
            { Demand.src = s; dst = d; size = Random.State.float st 10. })
      in
      let ev = Engine.Evaluator.create g (Weights.inverse_capacity g) in
      let comms = ref (random_commodities ()) in
      Engine.Evaluator.set_commodities ev !comms;
      let cl = ref (Engine.Evaluator.copy ev) and cl_comms = ref !comms in
      let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
      let evaluate e =
        try Engine.Evaluator.evaluate_into e mx
        with Engine.Evaluator.Unroutable _ -> ()
      in
      let weight () = float_of_int (1 + Random.State.int st 20) in
      for step = 1 to 120 do
        let op = Random.State.int st 8 in
        (match op with
        | 0 ->
          Engine.Evaluator.set_weight ev ~edge:(Random.State.int st m)
            (weight ())
        | 1 -> evaluate ev
        | 2 -> Engine.Evaluator.undo ev
        | 3 -> Engine.Evaluator.commit ev
        | 4 ->
          let e = Random.State.int st m in
          if (Engine.Evaluator.weights ev).(e) = infinity then
            Engine.Evaluator.set_weight ev ~edge:e (weight ())
          else Engine.Evaluator.disable_edge ev ~edge:e
        | 5 ->
          comms := random_commodities ();
          Engine.Evaluator.set_commodities ev !comms
        | 6 ->
          cl := Engine.Evaluator.copy ev;
          cl_comms := !comms
        | _ ->
          (* a probe on the clone, leaving the source's caches shared *)
          Engine.Evaluator.set_weight !cl ~edge:(Random.State.int st m)
            (weight ());
          evaluate !cl;
          Engine.Evaluator.undo !cl);
        let msg = Printf.sprintf "%s step %d (op %d)" name step op in
        check_loads_bits msg ev !comms;
        check_loads_bits (msg ^ " clone") !cl !cl_comms
      done)
    [ "Abilene"; "Germany50"; "GtsCe" ]

(* A bounded probe against the full probe path it replaces:
   [probe_mlu] from a committed state must give exactly the MLU of
   set_weight + evaluate_into + undo whenever that MLU is below the
   threshold and a value at or above the threshold otherwise, and leave
   the loads (bit for bit), every DAG and the trail as it found them.
   Random walks of committed integer weight changes in [1, 16] and
   probes, over waypointed commodities (each segment its own commodity)
   with one link disabled; thresholds sit on the exact MLU, one ulp
   either side of it, at 0, at infinity and at random. *)
let test_probe_mlu_differential () =
  let scaled name f =
    let g = Topology.Datasets.load name in
    (name ^ " scaled", Digraph.with_capacities g (Array.map f (Digraph.caps g)))
  in
  List.iteri
    (fun ti (name, g) ->
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      let st = Random.State.make [| 0x9b0e; ti |] in
      let w =
        Array.init m (fun _ -> float_of_int (1 + Random.State.int st 16))
      in
      let ev = Engine.Evaluator.create g w in
      let reach = Engine.Evaluator.create g w in
      let comms =
        Array.concat
          (List.init (2 * n) (fun _ ->
               let s = Random.State.int st n in
               let d = (s + 1 + Random.State.int st (n - 1)) mod n in
               let size = Random.State.float st 10. in
               let via = Random.State.int st n in
               if Random.State.bool st && via <> s && via <> d then
                 [| { Demand.src = s; dst = via; size };
                    { Demand.src = via; dst = d; size } |]
               else [| { Demand.src = s; dst = d; size } |]))
      in
      (* fail one link whose loss keeps every commodity routable *)
      let rec fail_one () =
        let e = Random.State.int st m in
        Engine.Evaluator.disable_edge reach ~edge:e;
        if
          Array.for_all
            (fun { Demand.src; dst; _ } ->
              Engine.Evaluator.reachable reach ~src ~dst)
            comms
        then e
        else begin
          Engine.Evaluator.undo reach;
          fail_one ()
        end
      in
      let failed = fail_one () in
      Engine.Evaluator.disable_edge ev ~edge:failed;
      Engine.Evaluator.commit ev;
      Engine.Evaluator.set_commodities ev comms;
      let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
      let bits = Int64.bits_of_float in
      let dags () =
        Array.init n (fun target -> Engine.Evaluator.dag ev ~target)
      in
      for step = 1 to 40 do
        let e = Random.State.int st m in
        let pw = float_of_int (1 + Random.State.int st 16) in
        if Random.State.int st 4 = 0 && e <> failed then begin
          Engine.Evaluator.set_weight ev ~edge:e pw;
          Engine.Evaluator.commit ev
        end
        else begin
          Engine.Evaluator.set_weight ev ~edge:e pw;
          Engine.Evaluator.evaluate_into ev mx;
          let exact = mx.Engine.Evaluator.mlu in
          Engine.Evaluator.undo ev;
          let loads0 = Array.map bits (Engine.Evaluator.loads ev) in
          let w0 = Array.copy (Engine.Evaluator.weights ev) in
          let dags0 = dags () in
          List.iter
            (fun above ->
              let msg =
                Printf.sprintf "%s step %d edge %d above %h (exact %h)" name
                  step e above exact
              in
              Engine.Evaluator.probe_mlu ev ~edge:e pw ~above mx;
              let got = mx.Engine.Evaluator.mlu in
              if exact < above then
                Alcotest.(check int64) (msg ^ ": exact bits") (bits exact)
                  (bits got)
              else
                Alcotest.(check bool) (msg ^ ": at or above") true
                  (got >= above);
              Alcotest.(check bool) (msg ^ ": weights") true
                (Engine.Evaluator.weights ev = w0);
              Alcotest.(check bool) (msg ^ ": loads bits") true
                (Array.map bits (Engine.Evaluator.loads ev) = loads0);
              Alcotest.(check bool) (msg ^ ": dags") true (dags () = dags0))
            [ exact; Float.pred exact; Float.succ exact; 0.; infinity;
              Random.State.float st (2. *. exact) ]
        end
      done)
    [ ("Abilene", Topology.Datasets.load "Abilene");
      ("Cost266", Topology.Datasets.load "Cost266");
      ("GtsCe", Topology.Datasets.load "GtsCe");
      scaled "Abilene" (fun c -> c *. 1e-9) ]

let test_probe_mlu_rejects () =
  let g, w, demands, _ = instance 2 in
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev demands;
  let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  Engine.Evaluator.set_weight ev ~edge:0 (w.(0) +. 1.);
  Alcotest.check_raises "pending trail"
    (Invalid_argument
       "Evaluator.probe_mlu: pending trail or non-positive weight")
    (fun () -> Engine.Evaluator.probe_mlu ev ~edge:1 2. ~above:infinity mx);
  Engine.Evaluator.commit ev;
  Alcotest.check_raises "non-positive weight"
    (Invalid_argument
       "Evaluator.probe_mlu: pending trail or non-positive weight")
    (fun () -> Engine.Evaluator.probe_mlu ev ~edge:1 0. ~above:infinity mx)

(* The destination DAG rebuilt without the engine: distances from
   [Paths.dijkstra_to], shortest-path out-edges as the exactly tight
   ones (integer weights keep every distance exact), and the order as
   the finite nodes sorted by (distance descending, id ascending). *)
let check_dag_canonical msg ev target =
  let g = Engine.Evaluator.graph ev and w = Engine.Evaluator.weights ev in
  let n = Digraph.node_count g in
  let dist = Paths.dijkstra_to g ~weights:w ~target in
  let dag = Engine.Evaluator.dag ev ~target in
  Array.iteri
    (fun v d ->
      if Int64.bits_of_float d <> Int64.bits_of_float dag.dist.(v) then
        Alcotest.failf "%s: dest %d node %d dist %h, reference %h" msg target
          v dag.dist.(v) d)
    dist;
  for v = 0 to n - 1 do
    let tight =
      if dist.(v) = infinity then [||]
      else
        Array.of_list
          (List.filter
             (fun e ->
               let u = Digraph.dst g e in
               dist.(u) < infinity && w.(e) +. dist.(u) = dist.(v))
             (List.sort compare (Array.to_list (Digraph.out_edges g v))))
    in
    if tight <> dag.out_sp.(v) then
      Alcotest.failf "%s: dest %d node %d out_sp differs from the tight edges"
        msg target v
  done;
  let order =
    List.init n Fun.id
    |> List.filter (fun v -> dist.(v) < infinity)
    |> List.sort (fun a b ->
           match compare dist.(b) dist.(a) with 0 -> compare a b | c -> c)
  in
  Alcotest.(check (list int))
    (Printf.sprintf "%s: dest %d order" msg target)
    order
    (Array.to_list dag.order)

(* Every destination's DAG against the canonical reference after each
   step of a random walk with weights in [1, 4], so equal distances —
   the ties the order must break by id — are common: probes, undo,
   commit, link failure and repair, and a clone refreshed by [copy] and
   probed on its own. *)
let test_dag_canonical_order () =
  List.iteri
    (fun ti (name, g) ->
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      let st = Random.State.make [| 0x0dea; ti |] in
      let weight () = float_of_int (1 + Random.State.int st 4) in
      let ev = Engine.Evaluator.create g (Array.init m (fun _ -> weight ())) in
      let cl = ref (Engine.Evaluator.copy ev) in
      for step = 1 to 150 do
        let op = Random.State.int st 7 in
        (match op with
        | 0 | 1 ->
          Engine.Evaluator.set_weight ev ~edge:(Random.State.int st m)
            (weight ())
        | 2 -> Engine.Evaluator.undo ev
        | 3 -> Engine.Evaluator.commit ev
        | 4 ->
          let e = Random.State.int st m in
          if (Engine.Evaluator.weights ev).(e) = infinity then
            Engine.Evaluator.set_weight ev ~edge:e (weight ())
          else Engine.Evaluator.disable_edge ev ~edge:e
        | 5 -> cl := Engine.Evaluator.copy ev
        | _ ->
          Engine.Evaluator.set_weight !cl ~edge:(Random.State.int st m)
            (weight ());
          if Random.State.bool st then Engine.Evaluator.undo !cl);
        let msg = Printf.sprintf "%s step %d (op %d)" name step op in
        for d = 0 to n - 1 do
          check_dag_canonical msg ev d;
          check_dag_canonical (msg ^ " clone") !cl d
        done
      done)
    [
      ("Abilene", Topology.Datasets.load "Abilene");
      ("Germany50", Topology.Datasets.load "Germany50");
      ("synthetic",
       Topology.Gen.synthetic ~seed:7 ~name:"ties" ~nodes:30 ~links:60 ());
    ]

(* --------------------------------------------------------------- *)
(* copy ≡ create                                                     *)
(* --------------------------------------------------------------- *)

let eval_obs ev =
  match evaluate ev with
  | v -> Ok v
  | exception Engine.Evaluator.Unroutable (s, t) -> Error (s, t)

(* The copy contract: a [copy] taken mid-walk is observably
   bit-identical to a fresh [create] at the same weights and
   commodities — same weights, same evaluation results, same
   routability verdicts — whatever the source went through first
   (committed moves, bulk rewrites, commodity swaps, failed links, a
   pending probe, which the copy takes as committed state). *)
let test_copy_equiv_create () =
  for seed = 1 to 200 do
    let g, w0, demands, st = instance (1 + (seed mod 17)) in
    let m = Digraph.edge_count g in
    let src = Engine.Evaluator.create g w0 in
    let comms = ref demands in
    Engine.Evaluator.set_commodities src !comms;
    ignore (eval_obs src);
    for _ = 1 to 2 + Random.State.int st 6 do
      match Random.State.int st 5 with
      | 0 ->
        Engine.Evaluator.set_weight src ~edge:(Random.State.int st m)
          (float_of_int (1 + Random.State.int st 12));
        Engine.Evaluator.commit src
      | 1 ->
        (* bulk rewrite past the incremental threshold *)
        let w =
          Array.init m (fun _ -> float_of_int (1 + Random.State.int st 12))
        in
        Engine.Evaluator.set_weights src w;
        Engine.Evaluator.commit src
      | 2 ->
        comms :=
          Array.sub demands 0 (1 + Random.State.int st (Array.length demands));
        Engine.Evaluator.set_commodities src !comms
      | 3 ->
        let e = Random.State.int st m in
        if (Engine.Evaluator.weights src).(e) < infinity then begin
          Engine.Evaluator.disable_edge src ~edge:e;
          Engine.Evaluator.commit src
        end
      | _ -> ignore (eval_obs src)
    done;
    if Random.State.bool st then
      Engine.Evaluator.set_weight src ~edge:(Random.State.int st m) 9.;
    let cl = Engine.Evaluator.copy src in
    let fresh = Engine.Evaluator.create g (Engine.Evaluator.weights src) in
    Engine.Evaluator.set_commodities fresh !comms;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: weights" seed)
      true
      (Engine.Evaluator.weights cl = Engine.Evaluator.weights fresh);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: evaluation" seed)
      true
      (eval_obs cl = eval_obs fresh)
  done

(* Undo must restore the previous state exactly (bit-equal loads), also
   when one edge changes twice on the same trail and when the very
   first update precedes any evaluation (no DAGs built yet). *)
let test_undo_restores_exact_state () =
  let g, w0, demands, _ = instance 3 in
  let ev = Engine.Evaluator.create g w0 in
  Engine.Evaluator.set_commodities ev demands;
  let before = Array.copy (Engine.Evaluator.loads ev) in
  Engine.Evaluator.set_weight ev ~edge:0 97.;
  Engine.Evaluator.set_weight ev ~edge:0 3.;
  Engine.Evaluator.set_weight ev ~edge:5 11.;
  ignore (evaluate ev);
  Engine.Evaluator.undo ev;
  Alcotest.(check bool) "weights restored" true
    (Engine.Evaluator.weights ev = w0);
  Alcotest.(check bool) "loads bit-equal" true
    (Engine.Evaluator.loads ev = before);
  (* update before any evaluation: every destination is unknown *)
  let ev2 = Engine.Evaluator.create g w0 in
  Engine.Evaluator.set_commodities ev2 demands;
  Engine.Evaluator.set_weight ev2 ~edge:2 42.;
  ignore (evaluate ev2);
  Engine.Evaluator.undo ev2;
  Alcotest.(check bool) "unknown dests rebuilt" true
    (Engine.Evaluator.loads ev2 = before)

(* Swapping the commodity set mid-trail invalidates load snapshots; the
   undo must still land on the right state (via the flush fallback). *)
let test_undo_after_commodity_swap () =
  let g, w0, demands, _ = instance 4 in
  let half = Array.sub demands 0 (max 1 (Array.length demands / 2)) in
  let ev = Engine.Evaluator.create g w0 in
  Engine.Evaluator.set_commodities ev demands;
  ignore (evaluate ev);
  Engine.Evaluator.set_weight ev ~edge:1 55.;
  Engine.Evaluator.set_commodities ev half;
  Engine.Evaluator.undo ev;
  check_loads "post-swap" (oracle_loads g w0 half) (Engine.Evaluator.loads ev)

(* The restricted Dijkstra repair must agree exactly with a fresh
   reversed Dijkstra after both weight increases and decreases. *)
let test_dijkstra_update_prepared () =
  for seed = 1 to 5 do
    let g, w, _, st = instance seed in
    let n = Digraph.node_count g and m = Digraph.edge_count g in
    let target = Random.State.int st n in
    let dist = Paths.dijkstra_to g ~weights:w ~target in
    let scratch = Paths.Scratch.create () in
    for _ = 1 to 30 do
      let e = Random.State.int st m in
      (Paths.Scratch.farg scratch).(0) <- w.(e);
      w.(e) <- float_of_int (1 + Random.State.int st 14);
      ignore (Paths.dijkstra_update_prepared scratch g ~weights:w ~dist ~edge:e);
      let fresh = Paths.dijkstra_to g ~weights:w ~target in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d repaired dist exact" seed)
        true (dist = fresh)
    done
  done

(* Fixed seed in, identical result out: the engine rewiring must not
   have introduced any iteration-order or caching nondeterminism. *)
let test_local_search_deterministic () =
  let g, _, _, _ = instance 2 in
  let demands =
    Array.map (fun (s, t, v) -> Network.demand s t v)
      [| (0, 5, 3.); (3, 1, 2.); (6, 2, 4.); (4, 7, 1.) |]
  in
  let params = { Local_search.default_params with max_evals = 300; seed = 11 } in
  let r1 = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params g demands in
  let r2 = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params g demands in
  Alcotest.(check bool) "same weights" true
    (r1.Local_search.weights = r2.Local_search.weights);
  Alcotest.(check (float 0.)) "same mlu" r1.Local_search.mlu r2.Local_search.mlu;
  Alcotest.(check int) "same evals" r1.Local_search.evals r2.Local_search.evals

(* Acceptance criterion: over a full HeurOSPF run the engine performs
   strictly fewer full SPF rebuilds than candidate evaluations — the
   incremental path is actually doing the work. *)
let test_local_search_incremental_stats () =
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g
  in
  let stats = Engine.Stats.create () in
  let params = { Local_search.default_params with max_evals = 500; seed = 7 } in
  let r = Local_search.optimize_ctx (Obs.Ctx.make ~stats ()) ~params g demands in
  Alcotest.(check bool) "some evaluations" true
    (stats.Engine.Stats.evaluations > 0);
  Alcotest.(check bool) "full SPF < evaluations" true
    (stats.Engine.Stats.full_spf < stats.Engine.Stats.evaluations);
  Alcotest.(check bool) "incremental SPF used" true
    (stats.Engine.Stats.incr_spf > 0);
  Alcotest.(check bool) "search improved" true (r.Local_search.mlu < 2.);
  Alcotest.(check bool) "full rebuilds < incremental repairs" true
    (stats.Engine.Stats.full_spf < stats.Engine.Stats.incr_spf)

(* Ecmp's demand-level MLU agrees with the engine's unit flows. *)
let test_ecmp_shim () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 10.); (1, 3, 10.); (0, 2, 10.); (2, 3, 10.) ] in
  let w = Weights.unit g in
  let demands = [| Network.demand 0 3 2. |] in
  checkf "even split" 0.1 (Ecmp.mlu_of g w demands);
  let ev = Engine.Evaluator.create g w in
  let el = Engine.Evaluator.unit_load ev ~src:0 ~dst:3 in
  checkf "engine agrees" 0.5 el.Engine.Evaluator.flows.(0)

let test_stats_merge () =
  let a = Engine.Stats.create () and b = Engine.Stats.create () in
  a.Engine.Stats.full_spf <- 2;
  b.Engine.Stats.full_spf <- 3;
  b.Engine.Stats.incr_spf <- 7;
  let hb = Engine.Stats.hot_times b in
  hb.(Engine.Stats.hot_spf_incr) <- 0.5;
  Engine.Stats.merge ~into:a b;
  Alcotest.(check int) "merged full" 5 a.Engine.Stats.full_spf;
  Alcotest.(check int) "merged incr" 7 a.Engine.Stats.incr_spf;
  checkf "merged hot timer" 0.5
    (Engine.Stats.hot_times a).(Engine.Stats.hot_spf_incr);
  Alcotest.(check (list string)) "only nonzero timers are named"
    [ "spf_incr" ] (List.map fst (Engine.Stats.timers a))

(* ------------------------------------------------------------------ *)
(* Allocation discipline                                               *)
(* ------------------------------------------------------------------ *)

(* Brackets [f] between two [Gc.minor_words] readings stored straight
   into a float array: the external is [@unboxed] [@@noalloc] and a
   float-array store never boxes, so the measurement itself contributes
   no minor words. *)
let gc_buf = Array.make 2 0.

let minor_delta f =
  gc_buf.(0) <- Gc.minor_words ();
  f ();
  gc_buf.(1) <- Gc.minor_words ();
  gc_buf.(1) -. gc_buf.(0)

(* [true] iff every demand stays routable; written recursively so the
   check allocates nothing (a [ref]-based loop would). *)
let rec routable_from ev demands i =
  i >= Array.length demands
  ||
  let { Demand.src; dst; _ } = demands.(i) in
  Engine.Evaluator.reachable ev ~src ~dst
  && routable_from ev demands (i + 1)

(* The documented zero-allocation probe loop: after warmup (pools and
   scratch at steady state) one set_weight / evaluate_into / undo
   iteration must allocate no minor words at all.  The probe weights
   are precomputed as [(edge, weight)] pairs so the float box already
   exists — reading a flat float array at the call site would box one
   float per probe. *)
let test_probe_loop_zero_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* floats box per op outside native code *)
  | Sys.Native ->
      let g, w, demands, _ = instance 3 in
      let ev = Engine.Evaluator.create g w in
      Engine.Evaluator.set_commodities ev demands;
      let m = Digraph.edge_count g in
      let moves = Array.init m (fun e -> (e, w.(e) +. 1.)) in
      let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
      (* materialize the base-weight state first: destinations first
         built under probed weights are unknown to the trail and dropped
         on undo, so without this the warm state never forms *)
      Engine.Evaluator.evaluate_into ev mx;
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
      checkf "warm probe pass minor words" 0. (minor_delta pass);
      Alcotest.(check bool) "probe saw finite mlu" true
        (mx.Engine.Evaluator.mlu > 0. && mx.Engine.Evaluator.mlu < infinity)

(* Link-flap round trip: a committed disable_edge must be durably
   revertible — restoring the weight + commit gives bit-identical state
   (loads, metrics, reachability) with no rebuild.  This guards the
   dirty-destination predicate in apply_weight: a destination whose
   forward distance to some node went infinite while the link was down
   must still be repaired when the link comes back, even though the
   old distance is not finite. *)
let test_link_flap_round_trip () =
  let g = Topology.Datasets.abilene () in
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let w = Weights.inverse_capacity g in
  let ev = Engine.Evaluator.create g w in
  let st = Random.State.make [| 0xf1a9 |] in
  let demands =
    Array.init 20 (fun _ ->
        let s = Random.State.int st n in
        let d = (s + 1 + Random.State.int st (n - 1)) mod n in
        { Demand.src = s; dst = d; size = float_of_int (1 + Random.State.int st 4) })
  in
  Engine.Evaluator.set_commodities ev demands;
  let mlu0, phi0 = evaluate ev in
  let loads0 = Array.copy (Engine.Evaluator.loads ev) in
  let reach () =
    Array.init n (fun s ->
        Array.init n (fun d -> Engine.Evaluator.reachable ev ~src:s ~dst:d))
  in
  let reach0 = reach () in
  (* Edge 0 is node 0's only out-edge on Abilene: while it is down a
     whole row of the reachability matrix goes false, which is exactly
     the regime the repair predicate must handle on re-enable. *)
  List.iter
    (fun e ->
      let orig = w.(e) in
      Engine.Evaluator.disable_edge ev ~edge:e;
      Engine.Evaluator.commit ev;
      Alcotest.(check bool) "disabled after commit" true
        ((Engine.Evaluator.weights ev).(e) = infinity);
      ignore (reach ());
      Engine.Evaluator.set_weight ev ~edge:e orig;
      Engine.Evaluator.commit ev;
      let mlu1, phi1 = evaluate ev in
      Alcotest.(check bool)
        (Printf.sprintf "edge %d: metrics bit-identical" e)
        true
        (mlu1 = mlu0 && phi1 = phi0);
      Alcotest.(check bool)
        (Printf.sprintf "edge %d: loads bit-identical" e)
        true
        (Engine.Evaluator.loads ev = loads0);
      Alcotest.(check bool)
        (Printf.sprintf "edge %d: reachability restored" e)
        true
        (reach () = reach0))
    [ 0; m / 2; m - 1 ]

(* Failure sweep on Germany50: disable every link in turn, check
   reachability, evaluate the survivors and restore.  After one warm
   sweep the whole pass must stay allocation-free — the regression this
   guards against is any per-failure O(n^2) or per-evaluation heap
   traffic creeping back into disable_edge / reachable / undo. *)
let test_failure_sweep_alloc_free () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let g = Topology.Datasets.load "Germany50" in
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      let w = Weights.inverse_capacity g in
      let ev = Engine.Evaluator.create g w in
      let st = Random.State.make [| 0x9a7 |] in
      let demands =
        Array.init 40 (fun _ ->
            let s = Random.State.int st n in
            let d = (s + 1 + Random.State.int st (n - 1)) mod n in
            { Demand.src = s; dst = d; size = float_of_int (1 + Random.State.int st 4) })
      in
      Engine.Evaluator.set_commodities ev demands;
      let mx = { Engine.Evaluator.mlu = 0.; phi = 0. } in
      (* materialize the base-weight state before any failure is probed
         (see the probe-loop test above for why) *)
      Engine.Evaluator.evaluate_into ev mx;
      (* the first sweep warms every cache and records which failures
         keep all demands routable — evaluating a disconnected
         commodity raises (and so allocates) by contract *)
      let safe = Array.make m false in
      for e = 0 to m - 1 do
        Engine.Evaluator.disable_edge ev ~edge:e;
        safe.(e) <- routable_from ev demands 0;
        if safe.(e) then Engine.Evaluator.evaluate_into ev mx;
        Engine.Evaluator.undo ev
      done;
      let sweep () =
        for e = 0 to m - 1 do
          Engine.Evaluator.disable_edge ev ~edge:e;
          if routable_from ev demands 0 then
            Engine.Evaluator.evaluate_into ev mx;
          Engine.Evaluator.undo ev
        done
      in
      for _ = 1 to 2 do
        sweep ()
      done;
      checkf "warm failure sweep minor words" 0. (minor_delta sweep);
      Alcotest.(check bool) "some failure disconnects nothing" true
        (Array.exists (fun b -> b) safe)

(* --------------------------------------------------------------- *)
(* Differential checks against the naive oracle                      *)
(* --------------------------------------------------------------- *)

let engine_loads g w commodities =
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev commodities;
  Array.copy (Engine.Evaluator.loads ev)

(* A 3x3 bidirectional grid with unit weights: every corner-to-corner
   pair splits over six equal-cost paths, and the duplicate (src, dst)
   commodities must add up exactly like one commodity of their summed
   size. *)
let test_oracle_ties_and_duplicates () =
  let id r c = (3 * r) + c in
  let links = ref [] in
  for r = 0 to 2 do
    for c = 0 to 2 do
      if c < 2 then
        links := (id r c, id r (c + 1), 10.) :: (id r (c + 1), id r c, 10.) :: !links;
      if r < 2 then
        links := (id r c, id (r + 1) c, 10.) :: (id (r + 1) c, id r c, 10.) :: !links
    done
  done;
  let g = Digraph.of_edges ~n:9 (List.rev !links) in
  let w = Weights.unit g in
  let commodities =
    dms [| (0, 8, 3.); (2, 6, 1.); (0, 8, 2.); (8, 0, 4.); (1, 7, 1.); (0, 8, 0.5) |]
  in
  let live = engine_loads g w commodities in
  check_loads "grid ties" (oracle_loads g w commodities) live;
  let merged = dms [| (0, 8, 5.5); (2, 6, 1.); (8, 0, 4.); (1, 7, 1.) |] in
  check_loads "duplicates = merged" (oracle_loads g w merged) live;
  (* random integer-weight instances (ties are common with weights 1..10)
     plus duplicated commodities *)
  for seed = 1 to 12 do
    let g, w, demands, _ = instance seed in
    let dups = Array.append demands (Array.sub demands 0 2) in
    check_loads
      (Printf.sprintf "seed %d duplicates" seed)
      (oracle_loads g w dups) (engine_loads g w dups)
  done

(* Waypointed demands, including waypoints equal to an endpoint or
   repeated: the segment commodities installed through [set_commodities]
   (one sweep per destination) must match the oracle's own segment
   expansion, and [Ecmp.mlu_of ~waypoints] must read the oracle's MLU
   and, bit for bit, the MLU of those installed commodities. *)
let test_oracle_waypoints () =
  for seed = 1 to 12 do
    let g, w, demands, st = instance seed in
    let n = Digraph.node_count g in
    let wps =
      Array.map
        (fun { Demand.src = s; dst = t; _ } ->
          match Random.State.int st 5 with
          | 0 -> []
          | 1 -> [ s ]
          | 2 -> [ Random.State.int st n; t ]
          | 3 ->
            let x = Random.State.int st n in
            [ x; x ]
          | _ -> [ Random.State.int st n; Random.State.int st n ])
        demands
    in
    let expected = oracle_loads ~waypoints:wps g w demands in
    let segs = Segments.expand demands wps in
    let msg = Printf.sprintf "seed %d waypoints" seed in
    check_loads (msg ^ " (sweep)") expected (engine_loads g w segs);
    let mlu = Ecmp.mlu_of ~waypoints:wps g w demands in
    let oracle_mlu = ref 0. in
    Array.iteri
      (fun e l -> oracle_mlu := Float.max !oracle_mlu (l /. Digraph.cap g e))
      expected;
    checkf (msg ^ ": mlu_of = oracle") !oracle_mlu mlu;
    let ev = Engine.Evaluator.create g w in
    Engine.Evaluator.set_commodities ev segs;
    Alcotest.(check int64)
      (msg ^ ": mlu_of = set_commodities, bit for bit")
      (Int64.bits_of_float (Engine.Evaluator.mlu ev))
      (Int64.bits_of_float mlu)
  done

(* --------------------------------------------------------------- *)
(* Commodity validation and error paths                              *)
(* --------------------------------------------------------------- *)

let diamond () =
  Digraph.of_edges ~n:4 [ (0, 1, 10.); (1, 3, 10.); (0, 2, 10.); (2, 3, 10.) ]

(* A rejected commodity set leaves the evaluator's loads as they were. *)
let rejects_size size () =
  let g = diamond () in
  let ev = Engine.Evaluator.create g (Weights.unit g) in
  Engine.Evaluator.set_commodities ev (dms [| (0, 3, 2.) |]);
  let before = Array.copy (Engine.Evaluator.loads ev) in
  Alcotest.check_raises "rejected"
    (Invalid_argument "Evaluator.set_commodities: size must be finite and >= 0")
    (fun () -> Engine.Evaluator.set_commodities ev (dms [| (1, 3, 1.); (0, 3, size) |]));
  Alcotest.(check bool) "loads unchanged" true
    (Engine.Evaluator.loads ev = before)

let test_zero_size_loads_nothing () =
  let g = diamond () in
  let w = Weights.unit g in
  let zero = engine_loads g w (dms [| (0, 3, 0.) |]) in
  Alcotest.(check bool) "all zero" true (Array.for_all (fun x -> x = 0.) zero);
  check_loads "zero beside a real commodity"
    (oracle_loads g w (dms [| (1, 3, 2.) |]))
    (engine_loads g w (dms [| (0, 3, 0.); (1, 3, 2.) |]))

(* Destination 3 has routable sources 0 and 1 followed by sources 4 and
   5, which cannot reach it.  [loads] names the first unroutable source
   in arrival order, and the early raise must leave no flow behind: the
   routable set installed next must match the oracle exactly. *)
let test_unroutable_leaves_scratch_clean () =
  let g =
    Digraph.of_edges ~n:6
      [ (0, 1, 10.); (1, 3, 10.); (0, 2, 10.); (2, 3, 10.); (3, 0, 10.);
        (3, 4, 10.); (3, 5, 10.) ]
  in
  let w = Weights.unit g in
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev
    (dms [| (0, 3, 2.); (1, 3, 1.); (4, 3, 1.); (5, 3, 1.) |]);
  Alcotest.check_raises "first unroutable pair"
    (Engine.Evaluator.Unroutable (4, 3))
    (fun () -> ignore (Engine.Evaluator.loads ev));
  let routable = dms [| (0, 3, 2.); (1, 3, 1.) |] in
  Engine.Evaluator.set_commodities ev routable;
  check_loads "after the raise" (oracle_loads g w routable)
    (Engine.Evaluator.loads ev)

(* --------------------------------------------------------------- *)
(* Segment peak: scoring a waypoint candidate from its own rows       *)
(* --------------------------------------------------------------- *)

(* For every (src, via, dst) triple, and the direct route, the max of
   [segment_peak] and the base MLU must equal, bit for bit, the MLU of
   the base with both segments spliced in by [add_unit].  Weights 1-3
   make ECMP ties (and so segments sharing an edge) common; node 0's
   out-links are disabled, so some segments are unroutable; the base
   mixes zeros, light loads (so the segments usually set the MLU) and
   tiny negative residues. *)
let test_segment_peak_exact () =
  let shared = ref 0 and unroutable = ref 0 in
  for seed = 1 to 12 do
    let g, _, _, st = instance seed in
    let n = Digraph.node_count g and m = Digraph.edge_count g in
    let w =
      Array.init m (fun e ->
          if Digraph.src g e = 0 then infinity
          else float_of_int (1 + Random.State.int st 3))
    in
    let ev = Engine.Evaluator.create g w in
    let base =
      Array.init m (fun _ ->
          match Random.State.int st 4 with
          | 0 -> 0.
          | 1 -> -1e-17
          | _ -> Random.State.float st 2.)
    in
    let mlu = Engine.Evaluator.mlu_of_loads g in
    let residual = mlu base and buf = Array.make m 0. and out = [| 0. |] in
    let scale = 5. +. Random.State.float st 20. in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        for via = -1 to n - 1 do
          let segs = if via < 0 then [ (src, dst) ] else [ (src, via); (via, dst) ] in
          Array.blit base 0 buf 0 m;
          match
            List.iter
              (fun (a, b) -> Engine.Evaluator.add_unit ev ~src:a ~dst:b ~scale ~into:buf)
              segs
          with
          | exception Engine.Evaluator.Unroutable _ ->
            incr unroutable;
            Alcotest.(check bool) "unroutable either way" true
              (match Engine.Evaluator.segment_peak ev ~src ~via ~dst ~scale ~base ~out with
               | exception Engine.Evaluator.Unroutable _ -> true
               | () -> false)
          | () ->
            Engine.Evaluator.segment_peak ev ~src ~via ~dst ~scale ~base ~out;
            let score = Float.max out.(0) residual in
            if Int64.bits_of_float score <> Int64.bits_of_float (mlu buf) then
              Alcotest.failf "seed %d (%d, %d, %d): %h <> %h" seed src via dst
                score (mlu buf);
            if via >= 0 then begin
              let r1 = Engine.Evaluator.unit_load ev ~src ~dst:via
              and r2 = Engine.Evaluator.unit_load ev ~src:via ~dst in
              let open Engine.Evaluator in
              if Array.exists (fun e -> Array.mem e r2.edges) r1.edges then
                incr shared
            end
        done
      done
    done
  done;
  Alcotest.(check bool) (Printf.sprintf "%d shared-edge triples" !shared) true
    (!shared > 0);
  Alcotest.(check bool) (Printf.sprintf "%d unroutable triples" !unroutable)
    true (!unroutable > 0)

(* The primitive looks its two rows up exactly as two [add_unit] calls
   do, so the cache counters cannot tell them apart. *)
let test_segment_peak_counters () =
  let g, w, _, _ = instance 3 in
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let base = Array.make m 1. and out = [| 0. |] in
  let a = Engine.Evaluator.create g w and b = Engine.Evaluator.create g w in
  for src = 0 to n - 1 do
    for via = 0 to n - 1 do
      let dst = (src + via) mod n in
      Engine.Evaluator.add_unit a ~src ~dst:via ~scale:2. ~into:base;
      Engine.Evaluator.add_unit a ~src:via ~dst ~scale:2. ~into:base;
      Engine.Evaluator.segment_peak b ~src ~via ~dst ~scale:2. ~base ~out
    done
  done;
  let sa = Engine.Evaluator.stats a and sb = Engine.Evaluator.stats b in
  Alcotest.(check int) "unit hits" sa.Engine.Stats.unit_hits sb.Engine.Stats.unit_hits;
  Alcotest.(check int) "unit misses" sa.Engine.Stats.unit_misses
    sb.Engine.Stats.unit_misses

let test_segment_peak_rejects () =
  let g = diamond () in
  let ev = Engine.Evaluator.create g (Weights.unit g) in
  let base = Array.make 4 0. and out = [| 42. |] in
  List.iter
    (fun scale ->
      Alcotest.check_raises (Printf.sprintf "scale %g" scale)
        (Invalid_argument "Evaluator.segment_peak: scale must be >= 0")
        (fun () ->
          Engine.Evaluator.segment_peak ev ~src:0 ~via:1 ~dst:3 ~scale ~base ~out))
    [ Float.nan; -1.; Float.neg_infinity ];
  (* 3 has no out-links: the raise comes before [base] is read (an
     empty base would fail the bounds check) and leaves [out] alone *)
  Alcotest.check_raises "unroutable second segment"
    (Engine.Evaluator.Unroutable (3, 2))
    (fun () ->
      Engine.Evaluator.segment_peak ev ~src:0 ~via:3 ~dst:2 ~scale:1. ~base:[||]
        ~out);
  Alcotest.(check (float 0.)) "out untouched" 42. out.(0)

let () =
  Alcotest.run "engine"
    [
      ( "evaluator",
        [
          Alcotest.test_case "equivalence under perturbations" `Quick
            test_equivalence_under_perturbations;
          Alcotest.test_case "undo restores exact state" `Quick
            test_undo_restores_exact_state;
          Alcotest.test_case "undo after commodity swap" `Quick
            test_undo_after_commodity_swap;
          Alcotest.test_case "ecmp shim" `Quick test_ecmp_shim;
          Alcotest.test_case "copy = create (200-seed fuzz)" `Quick
            test_copy_equiv_create;
          Alcotest.test_case "link-flap round trip" `Quick
            test_link_flap_round_trip;
          Alcotest.test_case "loads = dense reference, bit for bit" `Quick
            test_loads_bit_identical;
          Alcotest.test_case "DAG order = canonical reference" `Quick
            test_dag_canonical_order;
          Alcotest.test_case "probe_mlu = set / evaluate / undo" `Quick
            test_probe_mlu_differential;
          Alcotest.test_case "probe_mlu rejects" `Quick test_probe_mlu_rejects;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "ECMP ties and duplicate commodities" `Quick
            test_oracle_ties_and_duplicates;
          Alcotest.test_case "waypoint segments" `Quick test_oracle_waypoints;
        ] );
      ( "commodities",
        [
          Alcotest.test_case "rejects NaN size" `Quick (rejects_size Float.nan);
          Alcotest.test_case "rejects infinite size" `Quick
            (rejects_size infinity);
          Alcotest.test_case "rejects negative size" `Quick (rejects_size (-1.));
          Alcotest.test_case "zero size loads nothing" `Quick
            test_zero_size_loads_nothing;
          Alcotest.test_case "unroutable leaves scratch clean" `Quick
            test_unroutable_leaves_scratch_clean;
        ] );
      ( "segment peak",
        [
          Alcotest.test_case "= dense splice, bit for bit" `Quick
            test_segment_peak_exact;
          Alcotest.test_case "counts lookups like add_unit" `Quick
            test_segment_peak_counters;
          Alcotest.test_case "rejects bad scale and unroutable" `Quick
            test_segment_peak_rejects;
        ] );
      ( "incremental spf",
        [
          Alcotest.test_case "dijkstra_update_prepared exact" `Quick
            test_dijkstra_update_prepared;
        ] );
      ( "search",
        [
          Alcotest.test_case "local search deterministic" `Quick
            test_local_search_deterministic;
          Alcotest.test_case "fewer full rebuilds than evals" `Quick
            test_local_search_incremental_stats;
        ] );
      ( "stats",
        [ Alcotest.test_case "merge" `Quick test_stats_merge ] );
      ( "allocation",
        [
          Alcotest.test_case "probe loop allocation-free" `Quick
            test_probe_loop_zero_alloc;
          Alcotest.test_case "failure sweep allocation-free" `Quick
            test_failure_sweep_alloc_free;
        ] );
    ]
