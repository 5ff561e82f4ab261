(* Fuzz tests for the two weight-optimization backends behind the
   solver registry: gradient descent against LP necessary capacities
   (Grad_wo) and the two-weight split search (Omw).

   20 seeded synthetic instances each; every check is an invariant the
   backends promise:
   - the engine MLU never beats the LP lower bound;
   - the returned setting is never worse than its starting point
     (inverse-capacity weights for both backends here);
   - OMW with the second system disabled is byte-identical to the
     single-weight SPF evaluation of system 1;
   - both backends return byte-identical results whatever worker pool
     the context carries (the CLI's [--jobs] bit-identity contract);
   - the registry exposes every packaged solver under its CLI name;
   - no registered solver reports an MLU below OPT, which is 1 because
     [Demand_gen] scales by the exact LP optimum;
   - a shared-prefix run of every entry returns each entry's standalone
     result and runs each shared stage once. *)

open Te

let instance seed =
  let nodes = 6 + (seed mod 7) in
  let links = nodes + 2 + (seed mod 5) in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "solvfuzz%d" seed)
      ~nodes ~links ()
  in
  let demands =
    Demand_gen.mcf_synthetic ~seed ~flows_per_pair:2 g
  in
  (g, demands)

let grad_params =
  { Grad_wo.default_params with rounds = 60; checkpoint_every = 5 }

(* ------------------------------------------------------------------ *)
(* Gradient backend                                                    *)
(* ------------------------------------------------------------------ *)

let test_grad_fuzz () =
  for seed = 1 to 20 do
    let ctx msg = Printf.sprintf "seed %d: %s" seed msg in
    let g, demands = instance seed in
    let r =
      Grad_wo.optimize_ctx (Obs.Ctx.make ()) ~params:grad_params g demands
    in
    Alcotest.(check bool) (ctx "lp bound positive") true (r.Grad_wo.lp_bound > 0.);
    Alcotest.(check bool)
      (ctx "mlu never below the LP bound")
      true
      (r.Grad_wo.mlu >= r.Grad_wo.lp_bound -. 1e-9);
    Alcotest.(check bool)
      (ctx "never worse than the rounded invcap start")
      true
      (r.Grad_wo.mlu <= r.Grad_wo.initial_mlu +. 1e-9);
    Array.iter
      (fun w ->
        Alcotest.(check bool)
          (ctx "weight on the integer grid")
          true
          (w >= 1 && w <= grad_params.Grad_wo.wmax))
      r.Grad_wo.weights;
    (match r.Grad_wo.trail with
    | (0, m0) :: _ ->
        Alcotest.(check (float 0.)) (ctx "trail starts at the initial MLU")
          r.Grad_wo.initial_mlu m0
    | _ -> Alcotest.fail (ctx "trail must start at step 0"));
    List.iter
      (fun (_, m) ->
        Alcotest.(check bool)
          (ctx "trail entry never below the LP bound")
          true
          (m >= r.Grad_wo.lp_bound -. 1e-9))
      r.Grad_wo.trail
  done

let test_grad_jobs_identity () =
  for seed = 1 to 5 do
    let g, demands = instance seed in
    let plain =
      Grad_wo.optimize_ctx (Obs.Ctx.make ()) ~params:grad_params g demands
    in
    Par.Pool.with_pool ~jobs:3 (fun pool ->
        let pooled =
          Grad_wo.optimize_ctx
            (Obs.Ctx.make ~pool ())
            ~params:grad_params g demands
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: bit-identical across pools" seed)
          true (plain = pooled))
  done

(* ------------------------------------------------------------------ *)
(* OMW backend                                                         *)
(* ------------------------------------------------------------------ *)

let invcap_ints g =
  Weights.round_to_range ~wmax:64 (Weights.inverse_capacity g)

let test_omw_fuzz () =
  for seed = 1 to 20 do
    let ctx msg = Printf.sprintf "seed %d: %s" seed msg in
    let g, demands = instance seed in
    let w1 = invcap_ints g in
    let r = Omw.optimize_ctx (Obs.Ctx.make ()) g w1 demands in
    let lp = (Mcf.opt_mlu_lp g demands).Mcf.value in
    Alcotest.(check bool)
      (ctx "mlu never below the LP bound")
      true
      (r.Omw.mlu >= lp -. 1e-9);
    Alcotest.(check bool)
      (ctx "never worse than the invcap start")
      true
      (r.Omw.mlu <= r.Omw.initial_mlu +. 1e-9);
    Alcotest.(check (array int)) (ctx "system 1 untouched") w1 r.Omw.weights;
    Alcotest.(check int)
      (ctx "splits parallel to aggregated demands")
      (Array.length r.Omw.demands)
      (Array.length r.Omw.splits);
    Array.iter
      (fun a ->
        Alcotest.(check bool) (ctx "split within [0,1]") true (a >= 0. && a <= 1.))
      r.Omw.splits;
    Array.iter
      (fun w ->
        Alcotest.(check bool)
          (ctx "second weight within [1,wmax]")
          true
          (w >= 1 && w <= Omw.default_params.Omw.wmax))
      r.Omw.weights2
  done

let test_omw_disabled_is_single_weight () =
  for seed = 1 to 20 do
    let ctx msg = Printf.sprintf "seed %d: %s" seed msg in
    let g, demands = instance seed in
    let w1 = invcap_ints g in
    let r =
      Omw.optimize_ctx (Obs.Ctx.make ())
        ~params:{ Omw.default_params with second = false }
        g w1 demands
    in
    let reference = Ecmp.mlu_of g (Weights.of_ints w1) r.Omw.demands in
    Alcotest.(check bool)
      (ctx "byte-identical to the single-weight SPF")
      true
      (Int64.equal (Int64.bits_of_float r.Omw.mlu)
         (Int64.bits_of_float reference));
    Array.iter
      (fun a ->
        Alcotest.(check (float 0.)) (ctx "every split pinned to system 1") 1. a)
      r.Omw.splits;
    Alcotest.(check int) (ctx "no moves") 0 r.Omw.moves;
    Alcotest.(check int) (ctx "no bumps") 0 r.Omw.bumps
  done

let test_omw_jobs_identity () =
  for seed = 1 to 5 do
    let g, demands = instance seed in
    let w1 = invcap_ints g in
    let plain = Omw.optimize_ctx (Obs.Ctx.make ()) g w1 demands in
    Par.Pool.with_pool ~jobs:4 (fun pool ->
        let pooled =
          Omw.optimize_ctx (Obs.Ctx.make ~pool ()) g w1 demands
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: bit-identical across pools" seed)
          true (plain = pooled))
  done

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_names () =
  let names = List.map (fun s -> s.Solver.name) Solver.all in
  (* Exact equality with a duplicate-free list also rules out
     duplicate entries. *)
  Alcotest.(check (list string))
    "presentation order"
    [ "lwo"; "wpo"; "joint"; "grad"; "omw"; "grad+wpo"; "omw+wpo" ]
    names;
  List.iter
    (fun n ->
      Alcotest.(check (option string)) (n ^ " resolves") (Some n)
        (Option.map (fun s -> s.Solver.name) (Solver.find n)))
    names;
  Alcotest.(check bool) "unknown name absent" true
    (Solver.find "no-such-solver" = None)

let test_registry_runs_new_backends () =
  let g, demands = instance 3 in
  let config = { Solver.default_config with evals = 200 } in
  List.iter
    (fun s ->
      let name = s.Solver.name in
      let r = Solver.solve s config (Obs.Ctx.make ()) g demands in
      Alcotest.(check string) (name ^ ": result names its solver") name
        r.Solver.solver;
      Alcotest.(check bool)
        (name ^ ": finite MLU")
        true
        (Float.is_finite r.Solver.mlu);
      Alcotest.(check bool)
        (name ^ ": stages recorded")
        true
        (r.Solver.stages <> []))
    Solver.all

let test_registry_lower_bound () =
  let config = { Solver.default_config with evals = 50 } in
  for seed = 1 to 20 do
    let g, demands = instance seed in
    List.iter
      (fun s ->
        let r = Solver.solve s config (Obs.Ctx.make ()) g demands in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: %s MLU %.17g >= OPT = 1" seed s.Solver.name
             r.Solver.mlu)
          true
          (r.Solver.mlu >= 1. -. 1e-9))
      Solver.all
  done

let test_shared_equals_alone () =
  let config = { Solver.default_config with evals = 50 } in
  for seed = 1 to 20 do
    let g, demands = instance seed in
    let shared =
      Solver.solve_many config (Obs.Ctx.make ()) g demands Solver.all
    in
    List.iter2
      (fun s (r, _) ->
        let alone = Solver.solve s config (Obs.Ctx.make ()) g demands in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: %s shared = alone" seed s.Solver.name)
          true
          (compare r alone = 0))
      Solver.all shared
  done

let test_shared_runs_prefix_once () =
  let g, demands = instance 3 in
  let config = { Solver.default_config with evals = 100 } in
  let count name run =
    let tracer = Obs.Tracer.create () in
    ignore (run (Obs.Ctx.make ~tracer ()));
    List.length
      (List.filter
         (fun (s : Obs.Span.t) -> s.Obs.Span.name = name)
         (Obs.Tracer.spans tracer))
  in
  let all ctx = Solver.solve_many config ctx g demands Solver.all in
  let lwo ctx =
    Solver.solve (Option.get (Solver.find "lwo")) config ctx g demands
  in
  Alcotest.(check int) "one grad:descent" 1 (count "grad:descent" all);
  Alcotest.(check int) "ls:walk as in one lwo solve"
    (count "ls:walk" lwo) (count "ls:walk" all)

let test_joint_passes () =
  let g, demands = instance 4 in
  let config = { Solver.default_config with evals = 100; passes = 2 } in
  let solve n =
    Solver.solve (Option.get (Solver.find n)) config (Obs.Ctx.make ()) g
      demands
  in
  let lwo = solve "lwo" and joint = solve "joint" in
  let w = Weights.of_ints (Option.get lwo.Solver.weights) in
  let r =
    Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) ~passes:2 g w demands
  in
  Alcotest.(check (float 0.)) "joint = 2-pass GreedyWPO" r.Greedy_wpo.mlu
    joint.Solver.mlu;
  Alcotest.(check bool) "same waypoints" true
    (joint.Solver.waypoints
    = Some (Segments.of_single r.Greedy_wpo.waypoints))

let () =
  Alcotest.run "solvers"
    [
      ( "grad",
        [
          Alcotest.test_case "20-seed fuzz" `Quick test_grad_fuzz;
          Alcotest.test_case "jobs bit-identity" `Quick test_grad_jobs_identity;
        ] );
      ( "omw",
        [
          Alcotest.test_case "20-seed fuzz" `Quick test_omw_fuzz;
          Alcotest.test_case "disabled second = single weight" `Quick
            test_omw_disabled_is_single_weight;
          Alcotest.test_case "jobs bit-identity" `Quick test_omw_jobs_identity;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "new backends run" `Quick
            test_registry_runs_new_backends;
          Alcotest.test_case "20-seed MLU >= OPT" `Quick
            test_registry_lower_bound;
          Alcotest.test_case "shared run = alone" `Quick
            test_shared_equals_alone;
          Alcotest.test_case "shared prefix runs once" `Quick
            test_shared_runs_prefix_once;
          Alcotest.test_case "joint reads passes" `Quick test_joint_passes;
        ] );
    ]
