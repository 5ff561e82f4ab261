(* Tests for lib/par and the domain-parallel search runtime.  The
   contract under test is that scheduling never leaks into results:
   every pool operation and every heuristic must return a bit-identical
   answer for every --jobs value.  Only restarts run as pool tasks, so a
   single HeurOSPF walk and GreedyWPO must leave the pool idle.
   Evaluator clones, which the scenario sweep draws, must be perfectly
   isolated from their original. *)

open Netgraph
open Te

let jobs_grid = [ 1; 2; 3; 8 ]

(* [(mlu, phi)] of the evaluator's current weights. *)
let evaluate ev =
  let r = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  Engine.Evaluator.evaluate_into ev r;
  (r.Engine.Evaluator.mlu, r.Engine.Evaluator.phi)

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  let expected = Array.init 23 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      let got =
        Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool ->
            Par.Pool.map pool ~tasks:23 (fun ~worker:_ i -> i * i))
      in
      Alcotest.(check bool)
        (Printf.sprintf "map order at jobs=%d" jobs)
        true (got = expected);
      let empty =
        Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool ->
            Par.Pool.map pool ~tasks:0 (fun ~worker:_ i -> i))
      in
      Alcotest.(check int)
        (Printf.sprintf "empty map at jobs=%d" jobs)
        0 (Array.length empty))
    jobs_grid

(* Every task runs even when some raise, and the exception surfaced to
   the caller is the lowest-index one — independent of scheduling. *)
let test_exception_propagation () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let result =
        Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool ->
            match
              Par.Pool.map pool ~tasks:17 (fun ~worker:_ i ->
                  Atomic.incr ran;
                  if i mod 5 = 2 then failwith (string_of_int i);
                  i)
            with
            | _ -> None
            | exception Failure msg -> Some msg)
      in
      Alcotest.(check (option string))
        (Printf.sprintf "lowest-index exception at jobs=%d" jobs)
        (Some "2") result;
      Alcotest.(check int)
        (Printf.sprintf "all tasks ran at jobs=%d" jobs)
        17 (Atomic.get ran))
    jobs_grid

(* A map issued from inside a running task executes inline on the
   issuing domain (worker 0 view), so pool-using code can call
   pool-using code without deadlock — and [parallelism] reports 1 so
   callers skip building clones for it.  The tasks return what they saw
   and the caller asserts: Alcotest's output is not domain-safe. *)
let test_nested_map_inline () =
  Par.Pool.with_pool ~eager_wake:true ~jobs:3 (fun pool ->
      Alcotest.(check int) "parallelism when idle" 3 (Par.Pool.parallelism pool);
      let outer =
        Par.Pool.map pool ~tasks:4 (fun ~worker:_ i ->
            let inner_par =
              (Par.Pool.map pool ~tasks:1 (fun ~worker:_ _ ->
                   Par.Pool.parallelism pool)).(0)
            in
            let inner =
              Par.Pool.map pool ~tasks:5 (fun ~worker:w j -> (w, (i * 10) + j))
            in
            ( inner_par,
              Array.map fst inner,
              Array.fold_left (fun a (_, v) -> a + v) 0 inner ))
      in
      Array.iteri
        (fun i (inner_par, workers, sum) ->
          Alcotest.(check int) "nested parallelism is 1" 1 inner_par;
          Array.iter
            (Alcotest.(check int) "nested tasks present worker 0" 0)
            workers;
          Alcotest.(check int) "nested sum" ((i * 50) + 10) sum)
        outer)

(* Deterministic busy-work whose result feeds the task's answer, so the
   optimizer cannot drop it and scheduling must not reorder it. *)
let burn n =
  let s = ref 0 in
  for i = 1 to n do
    s := !s + (i land 7)
  done;
  !s

(* 100x-skewed task costs: one task in each run dwarfs the rest, so at
   jobs > 1 the other slots claim the cheap tasks while the caller is
   pinned on the expensive one — the stress case for the claim
   protocol.  Results must stay bit-identical to the sequential run. *)
let test_skewed_costs () =
  let tasks = 40 in
  let cost i = if i mod 13 = 0 then 200_000 else 2_000 in
  let expected = Array.init tasks (fun i -> burn (cost i) + (i * i)) in
  List.iter
    (fun jobs ->
      for round = 1 to 3 do
        let got =
          Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool ->
              Par.Pool.map pool ~tasks (fun ~worker:_ i ->
                  burn (cost i) + (i * i)))
        in
        Alcotest.(check bool)
          (Printf.sprintf "skewed map jobs=%d round=%d" jobs round)
          true (got = expected)
      done)
    jobs_grid

(* The caller is pinned on a single huge task 0 while the failing tasks
   live at the tail — at jobs > 1 they are stolen, and the exception
   surfaced must still be the lowest-index one. *)
let test_stolen_exception () =
  List.iter
    (fun jobs ->
      let ran = Atomic.make 0 in
      let r =
        Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool ->
            match
              Par.Pool.map pool ~tasks:24 (fun ~worker:_ i ->
                  Atomic.incr ran;
                  ignore (Sys.opaque_identity (burn (if i = 0 then 400_000 else 400)));
                  if i >= 20 then failwith (string_of_int i);
                  i)
            with
            | _ -> None
            | exception Failure m -> Some m)
      in
      Alcotest.(check (option string))
        (Printf.sprintf "stolen exception lowest index jobs=%d" jobs)
        (Some "20") r;
      Alcotest.(check int)
        (Printf.sprintf "all tasks ran jobs=%d" jobs)
        24 (Atomic.get ran))
    jobs_grid

(* Maps issued from inside workers (which run inline) must not perturb
   the outer result across worker counts. *)
let test_nested_map_determinism () =
  let run jobs =
    Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool ->
        Par.Pool.map pool ~tasks:8 (fun ~worker:_ i ->
            let inner =
              Par.Pool.map pool ~tasks:6 (fun ~worker:_ j ->
                  burn (100 * (j + 1)) + (i * j))
            in
            Array.fold_left (fun b a -> (b * 31) + a) i inner))
  in
  let expect = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "nested determinism jobs=%d" jobs)
        true (run jobs = expect))
    jobs_grid

(* [steals] counts exactly the tasks run by a slot other than the
   caller; the tasks return their worker slot and the caller asserts. *)
let steals_match_off_caller_runs label m0 m1 workers =
  let off_caller =
    Array.fold_left (fun n w -> if w > 0 then n + 1 else n) 0 workers
  in
  Alcotest.(check int) label off_caller
    (m1.Par.Pool.steals - m0.Par.Pool.steals)

let test_scheduler_metrics () =
  Par.Pool.with_pool ~eager_wake:true ~jobs:3 (fun pool ->
      let m0 = Par.Pool.metrics pool in
      let workers =
        Par.Pool.map pool ~tasks:12 (fun ~worker i ->
            ignore (Sys.opaque_identity (burn (1000 * (1 + (i mod 4)))));
            worker)
      in
      let m1 = Par.Pool.metrics pool in
      Alcotest.(check int)
        "one region recorded" (m0.Par.Pool.regions + 1) m1.Par.Pool.regions;
      Alcotest.(check int)
        "12 tasks recorded" (m0.Par.Pool.tasks + 12) m1.Par.Pool.tasks;
      Alcotest.(check bool)
        "max region width" true (m1.Par.Pool.max_region >= 12);
      steals_match_off_caller_runs "steals = tasks run off the caller" m0 m1
        workers;
      Alcotest.(check bool)
        "parks and park seconds never decrease" true
        (m1.Par.Pool.parks >= m0.Par.Pool.parks
        && m1.Par.Pool.park_seconds >= m0.Par.Pool.park_seconds))

(* Two 1,000-task regions back to back: every index of both runs
   exactly once — a claim that ran a task of the already finished first
   region would show up as a second run in its counters — and [steals]
   counts exactly the tasks a slot other than the caller ran. *)
let test_large_regions () =
  let tasks = 1000 in
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool ->
          let region () =
            let runs = Array.init tasks (fun _ -> Atomic.make 0) in
            let m0 = Par.Pool.metrics pool in
            let workers =
              Par.Pool.map pool ~tasks (fun ~worker i ->
                  Atomic.incr runs.(i);
                  ignore (Sys.opaque_identity (burn 200));
                  worker)
            in
            steals_match_off_caller_runs
              (Printf.sprintf "steals = tasks run off the caller jobs=%d" jobs)
              m0 (Par.Pool.metrics pool) workers;
            runs
          in
          let first = region () in
          let second = region () in
          List.iter
            (fun runs ->
              Array.iteri
                (fun i c ->
                  if Atomic.get c <> 1 then
                    Alcotest.failf "jobs=%d: task %d ran %d times" jobs i
                      (Atomic.get c))
                runs)
            [ first; second ]))
    [ 2; 3; 8 ]

(* The pool times its own scheduled regions: busy task seconds and
   region wall seconds grow with a scheduled map, while the inline
   [jobs = 1] path reads no clock and touches no counter. *)
let test_pool_accounting () =
  let n = 16 in
  Par.Pool.with_pool ~eager_wake:true ~jobs:2 (fun pool ->
      let m0 = Par.Pool.metrics pool in
      ignore (Par.Pool.map pool ~tasks:n (fun ~worker:_ i -> burn (20_000 + i)));
      let m1 = Par.Pool.metrics pool in
      Alcotest.(check bool) "busy seconds > 0" true
        (m1.Par.Pool.busy_seconds > m0.Par.Pool.busy_seconds);
      Alcotest.(check bool) "wall seconds > 0" true
        (m1.Par.Pool.wall_seconds > m0.Par.Pool.wall_seconds);
      Alcotest.(check int) "tasks grew by n" (m0.Par.Pool.tasks + n)
        m1.Par.Pool.tasks);
  let seq = Par.Pool.sequential in
  ignore (Par.Pool.map seq ~tasks:n (fun ~worker:_ i -> burn (20_000 + i)));
  let m = Par.Pool.metrics seq in
  Alcotest.(check bool) "sequential pool metrics stay zero" true
    (m.Par.Pool.steals = 0
    && m.Par.Pool.parks = 0 && m.Par.Pool.park_seconds = 0.
    && m.Par.Pool.regions = 0 && m.Par.Pool.tasks = 0
    && m.Par.Pool.max_region = 0 && m.Par.Pool.busy_seconds = 0.
    && m.Par.Pool.wall_seconds = 0.)

(* ------------------------------------------------------------------ *)
(* Evaluator clones                                                    *)
(* ------------------------------------------------------------------ *)

let instance seed =
  let nodes = 10 + ((seed mod 3) * 4) in
  let links = nodes + 6 in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "par%d" seed) ~nodes
      ~links ()
  in
  let st = Random.State.make [| 0x9a7; seed |] in
  let m = Digraph.edge_count g in
  let w = Array.init m (fun _ -> float_of_int (1 + Random.State.int st 10)) in
  let demands =
    Array.init 8 (fun _ ->
        let s = Random.State.int st nodes in
        let t = (s + 1 + Random.State.int st (nodes - 1)) mod nodes in
        { Demand.src = s; dst = t; size = float_of_int (1 + Random.State.int st 5) })
  in
  (g, w, demands, st)

(* Drives [ev] through a deterministic committed/probed move sequence;
   the observable (mlu, phi) after every move is returned so two
   evaluators can be compared bit for bit. *)
let drive ev st m steps =
  let trace = ref [] in
  for _ = 1 to steps do
    let e = Random.State.int st m in
    let wv = float_of_int (1 + Random.State.int st 14) in
    Engine.Evaluator.set_weight ev ~edge:e wv;
    let r = evaluate ev in
    trace := r :: !trace;
    if Random.State.bool st then Engine.Evaluator.undo ev
    else Engine.Evaluator.commit ev
  done;
  !trace

let test_copy_isolation () =
  for seed = 1 to 4 do
    let g, w, demands, _ = instance seed in
    let m = Digraph.edge_count g in
    (* Two identical evaluators: [ev] will be cloned mid-search, the
       control never is. *)
    let make () =
      let e = Engine.Evaluator.create g w in
      Engine.Evaluator.set_commodities e demands;
      ignore (evaluate e);
      e
    in
    let ev = make () and control = make () in
    (* Warm both with the same prefix. *)
    let st_a = Random.State.make [| 0x11; seed |] in
    let st_b = Random.State.copy st_a in
    ignore (drive ev st_a m 15);
    ignore (drive control st_b m 15);
    (* Clone mid-search — with an uncommitted probe pending, which the
       clone must capture as committed state. *)
    Engine.Evaluator.set_weight ev ~edge:0 13.;
    let clone = Engine.Evaluator.copy ev in
    Alcotest.(check bool)
      "clone sees the probed weight" true
      ((Engine.Evaluator.weights clone).(0) = 13.);
    Engine.Evaluator.undo ev;
    (* Perturb the clone heavily; the original must not notice. *)
    let st_c = Random.State.make [| 0x22; seed |] in
    ignore (drive clone st_c m 40);
    (* ... and the original must stay in lockstep with the never-cloned
       control for the rest of the walk, bit for bit. *)
    let ta = drive ev st_a m 20 and tb = drive control st_b m 20 in
    Alcotest.(check bool)
      (Printf.sprintf "original unaffected by clone (seed %d)" seed)
      true (ta = tb);
    Alcotest.(check bool)
      "final weights identical" true
      (Engine.Evaluator.weights ev = Engine.Evaluator.weights control)
  done

(* ------------------------------------------------------------------ *)
(* Heuristic bit-identity across pool sizes                            *)
(* ------------------------------------------------------------------ *)

let te_instance () =
  let g =
    Topology.Gen.synthetic ~seed:5 ~name:"par-te" ~nodes:14 ~links:24 ()
  in
  let st = Random.State.make [| 0x3c1 |] in
  let n = Digraph.node_count g in
  let demands =
    Array.init 10 (fun _ ->
        let s = Random.State.int st n in
        let t = (s + 1 + Random.State.int st (n - 1)) mod n in
        Network.demand s t (float_of_int (1 + Random.State.int st 5)))
  in
  (g, demands)

let at_jobs f =
  List.map
    (fun jobs -> Par.Pool.with_pool ~eager_wake:true ~jobs (fun pool -> f pool))
    [ 1; 2; 4; 8 ]

let check_all_equal msg = function
  | [] -> ()
  | ref :: rest ->
    List.iteri
      (fun i r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (run %d = jobs 1)" msg (i + 1))
          true (r = ref))
      rest

let test_lwo_bit_identical () =
  let g, demands = te_instance () in
  let params = { Local_search.default_params with max_evals = 250; seed = 9 } in
  check_all_equal "HeurOSPF"
    (at_jobs (fun pool ->
         let r = Local_search.optimize_ctx (Obs.Ctx.make ~pool ()) ~params g demands in
         (r.Local_search.weights, r.Local_search.mlu, r.Local_search.phi,
          r.Local_search.evals)));
  check_all_equal "HeurOSPF restarts=3"
    (at_jobs (fun pool ->
         let r = Local_search.optimize_ctx (Obs.Ctx.make ~pool ()) ~restarts:3 ~params g demands in
         (r.Local_search.weights, r.Local_search.mlu, r.Local_search.evals)))

let test_wpo_bit_identical () =
  let g, demands = te_instance () in
  let w = Weights.inverse_capacity g in
  check_all_equal "GreedyWPO"
    (at_jobs (fun pool ->
         let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ~pool ()) g w demands in
         (r.Greedy_wpo.waypoints, r.Greedy_wpo.mlu)));
  check_all_equal "GreedyWPO multi"
    (at_jobs (fun pool ->
         let r = Greedy_wpo.optimize_multi_ctx (Obs.Ctx.make ~pool ()) ~rounds:2 g w demands in
         (r.Greedy_wpo.setting, r.Greedy_wpo.mlu)))

(* [runs pool] returns the run's context and its results.  On a
   two-domain pool it must schedule no task and clone no evaluator, and
   its results must equal the jobs = 1 ones bit for bit. *)
let check_pool_idle runs =
  let _, seq = runs Par.Pool.sequential in
  Par.Pool.with_pool ~eager_wake:true ~jobs:2 (fun pool ->
      let tasks0 = (Par.Pool.metrics pool).Par.Pool.tasks in
      let ctx, par = runs pool in
      Alcotest.(check int) "no pool task" tasks0
        (Par.Pool.metrics pool).Par.Pool.tasks;
      let st = ctx.Obs.Ctx.stats in
      Alcotest.(check int) "no clone copy" 0 st.Engine.Stats.clone_copies;
      Alcotest.(check int) "no clone sync" 0 st.Engine.Stats.clone_syncs;
      Alcotest.(check bool) "results = jobs 1" true (par = seq))

(* GreedyWPO scans on the calling domain: plain, pruned and multi-round
   runs leave the pool idle. *)
let test_wpo_pool_idle () =
  let g, demands = te_instance () in
  let w = Weights.inverse_capacity g in
  check_pool_idle (fun pool ->
      let ctx = Obs.Ctx.make ~pool () in
      let single prune =
        let r = Greedy_wpo.optimize_ctx ctx ~passes:2 ?prune g w demands in
        (r.Greedy_wpo.waypoints, r.Greedy_wpo.mlu)
      in
      let plain = single None and pruned = single (Some (Prune.spec 4)) in
      let multi =
        let r = Greedy_wpo.optimize_multi_ctx ctx ~rounds:2 g w demands in
        (r.Greedy_wpo.setting, r.Greedy_wpo.mlu)
      in
      (ctx, (plain, pruned, multi)))

(* HeurOSPF probes on the walk's own evaluator: a single-restart walk,
   alone and as Joint's weight stage, leaves the pool idle. *)
let test_lwo_pool_idle () =
  let g, demands = te_instance () in
  let params = { Local_search.default_params with max_evals = 250; seed = 9 } in
  check_pool_idle (fun pool ->
      let ctx = Obs.Ctx.make ~pool () in
      let lwo =
        let r = Local_search.optimize_ctx ctx ~params g demands in
        (r.Local_search.weights, r.Local_search.mlu, r.Local_search.evals)
      in
      let joint =
        let r = Joint.optimize_ctx ctx ~ls_params:params g demands in
        (r.Joint.int_weights, r.Joint.waypoints, r.Joint.mlu)
      in
      (ctx, (lwo, joint)))

let test_joint_bit_identical () =
  let g, demands = te_instance () in
  let ls_params = { Local_search.default_params with max_evals = 150; seed = 2 } in
  check_all_equal "JOINT-Heur"
    (at_jobs (fun pool ->
         let r = Joint.optimize_ctx (Obs.Ctx.make ~pool ()) ~restarts:2 ~ls_params g demands in
         (r.Joint.int_weights, r.Joint.waypoints, r.Joint.mlu,
          r.Joint.stage_mlu)))

(* Multi-restart must also beat-or-match the single walk (it keeps the
   best of a superset of walks containing the historical one). *)
let test_restarts_no_worse () =
  let g, demands = te_instance () in
  let params = { Local_search.default_params with max_evals = 200; seed = 4 } in
  let one = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params g demands in
  let three = Local_search.optimize_ctx (Obs.Ctx.make ()) ~restarts:3 ~params g demands in
  Alcotest.(check bool)
    "restarts=3 <= restarts=1" true
    (three.Local_search.mlu <= one.Local_search.mlu)

(* run-summary/2 reads its parallel efficiency off the pool: null when
   nothing was scheduled, busy / (wall * jobs) otherwise.  Two restarts
   give the pool a region to schedule. *)
let test_summary_efficiency () =
  let g, demands = te_instance () in
  let params = { Local_search.default_params with max_evals = 120; seed = 3 } in
  let efficiency pool =
    let ctx = Obs.Ctx.make ~pool () in
    ignore
      (Local_search.optimize_ctx ctx ~restarts:2 ~params g demands
        : Local_search.result);
    match Serve.Sjson.parse (Obs.Export.run_summary ~wall:1. ctx) with
    | Error e -> Alcotest.fail e
    | Ok j -> Option.get (Serve.Sjson.member "parallel_efficiency" j)
  in
  Alcotest.(check bool) "null at jobs=1" true
    (efficiency Par.Pool.sequential = Serve.Sjson.Null);
  match Par.Pool.with_pool ~eager_wake:true ~jobs:2 efficiency with
  | Serve.Sjson.Num e ->
    Alcotest.(check bool) "finite and positive at jobs=2" true
      (Float.is_finite e && e > 0.)
  | _ -> Alcotest.fail "parallel_efficiency not a number at jobs=2"

(* ------------------------------------------------------------------ *)
(* Exact enumeration metadata                                          *)
(* ------------------------------------------------------------------ *)

let test_exact_truncation_meta () =
  let inst = Instances.Gap_instances.instance1 ~m:3 in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  (* Full enumeration: 2^8 = 256 settings. *)
  let (_, full_best), meta =
    Exact.lwo ~weight_domain:[ 1; 3 ] g net.Network.demands
  in
  Alcotest.(check bool) "space 256" true (meta.Exact.space = 256.);
  Alcotest.(check int) "visited 256" 256 meta.Exact.visited;
  Alcotest.(check bool) "not truncated" false meta.Exact.truncated;
  (* Capped enumeration: a prefix only, flagged as such. *)
  let (_, trunc_best), meta' =
    Exact.lwo ~weight_domain:[ 1; 3 ] ~max_settings:10 ~allow_truncate:true g
      net.Network.demands
  in
  Alcotest.(check int) "visited = cap" 10 meta'.Exact.visited;
  Alcotest.(check bool) "truncated" true meta'.Exact.truncated;
  Alcotest.(check bool)
    "truncated optimum is only an upper bound" true
    (trunc_best >= full_best -. 1e-12);
  (* Without the opt-in the cap still raises, as it always did. *)
  (match
     Exact.lwo ~weight_domain:[ 1; 3 ] ~max_settings:10 g net.Network.demands
   with
  | exception Exact.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large")

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves task order" `Quick test_map_order;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested maps run inline" `Quick
            test_nested_map_inline;
          Alcotest.test_case "skewed costs stay bit-identical" `Quick
            test_skewed_costs;
          Alcotest.test_case "stolen-task exception propagation" `Quick
            test_stolen_exception;
          Alcotest.test_case "nested maps deterministic" `Quick
            test_nested_map_determinism;
          Alcotest.test_case "scheduler metrics" `Quick
            test_scheduler_metrics;
          Alcotest.test_case "large regions run every task once" `Quick
            test_large_regions;
          Alcotest.test_case "pool accounts its own regions" `Quick
            test_pool_accounting;
          Alcotest.test_case "run summary parallel efficiency" `Quick
            test_summary_efficiency;
        ] );
      ( "evaluator clones",
        [ Alcotest.test_case "copy isolation" `Quick test_copy_isolation ] );
      ( "determinism",
        [
          Alcotest.test_case "lwo bit-identical across jobs" `Quick
            test_lwo_bit_identical;
          Alcotest.test_case "wpo bit-identical across jobs" `Quick
            test_wpo_bit_identical;
          Alcotest.test_case "wpo leaves the pool idle" `Quick
            test_wpo_pool_idle;
          Alcotest.test_case "lwo leaves the pool idle" `Quick
            test_lwo_pool_idle;
          Alcotest.test_case "joint bit-identical across jobs" `Quick
            test_joint_bit_identical;
          Alcotest.test_case "restarts never worse" `Quick
            test_restarts_no_worse;
        ] );
      ( "exact",
        [
          Alcotest.test_case "truncation metadata" `Quick
            test_exact_truncation_meta;
        ] );
    ]
