(* Solver-registry smoke: every registered backend end to end on
   Abilene in one shared-prefix run — finite MLUs, the invariants each
   backend promises (gradient tracks its LP bound, OMW never loses to
   its HeurOSPF stage), agreement with each entry solved alone, and
   registry dispatch itself.
   Run with `dune build @solvers-smoke'. *)

open Te

let mismatches = ref 0

let check name ok =
  if ok then Printf.printf "  ok   %s\n%!" name
  else begin
    incr mismatches;
    Printf.printf "  FAIL %s\n%!" name
  end

let () =
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g
  in
  Printf.printf "solvers smoke: Abilene, %d demands, %d registered solvers\n%!"
    (Array.length demands) (List.length Solver.all);
  check "at least seven registered solvers" (List.length Solver.all >= 7);
  let config = { Solver.default_config with Solver.evals = 400 } in
  (* Every registered solver runs, in one shared-prefix run, reports a
     finite MLU and matches its standalone solve. *)
  let results =
    List.map2
      (fun s (r, _) ->
        let name = s.Solver.name in
        Printf.printf "  %-10s MLU %.4f  (%d evals)\n%!" name r.Solver.mlu
          r.Solver.evals;
        check (name ^ ": finite MLU") (Float.is_finite r.Solver.mlu);
        check
          (name ^ ": stages end at the returned MLU")
          (match List.rev r.Solver.stages with
          | (_, last) :: _ -> last = r.Solver.mlu
          | [] -> false);
        check
          (name ^ ": shared run = find + solve")
          (match Solver.find name with
          | Some e ->
            compare r (Solver.solve e config (Obs.Ctx.make ()) g demands)
            = 0
          | None -> false);
        (name, r))
      Solver.all
      (Solver.solve_many config (Obs.Ctx.make ()) g demands Solver.all)
  in
  let get n = List.assoc_opt n results in
  (* Backend-specific promises. *)
  (match get "grad" with
  | Some r ->
      let lp = List.assoc "LP-bound" r.Solver.stages in
      check "grad: MLU at or above its LP bound" (r.Solver.mlu >= lp -. 1e-9);
      check "grad: never worse than its rounded start"
        (r.Solver.mlu <= r.Solver.initial_mlu +. 1e-9)
  | None -> check "grad ran" false);
  (match get "omw" with
  | Some r ->
      let heur = List.assoc "HeurOSPF" r.Solver.stages in
      check "omw: never worse than its HeurOSPF stage"
        (r.Solver.mlu <= heur +. 1e-9);
      check "omw: returns both weight systems"
        (r.Solver.weights <> None && r.Solver.weights2 <> None
        && r.Solver.splits <> None)
  | None -> check "omw ran" false);
  (match (get "omw", get "omw+wpo") with
  | Some _, Some r ->
      check "omw+wpo: waypoints recorded" (r.Solver.waypoints <> None)
  | _ -> check "omw+wpo ran" false);
  (* Registry dispatch is bit-deterministic across worker pools. *)
  let run_omw pool =
    match Solver.find "omw" with
    | None -> None
    | Some s -> Some (Solver.solve s config (Obs.Ctx.make ~pool ()) g demands)
  in
  let r1 = run_omw Par.Pool.sequential in
  let r4 = Par.Pool.with_pool ~jobs:4 run_omw in
  check "omw bit-identical jobs 1 vs 4" (r1 = r4 && r1 <> None);
  if !mismatches > 0 then begin
    Printf.printf "solvers smoke: %d mismatch(es)\n" !mismatches;
    exit 1
  end;
  print_endline "solvers smoke: every registered backend holds its contract"
