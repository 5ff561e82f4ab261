(* Randomized cross-validation of the sparse revised simplex against
   the dense tableau oracle (Lp_oracle.Dense), plus warm-start and MILP
   warm/cold equivalence.  Every instance is generated from a fixed
   seed, so failures reproduce exactly. *)

open Linprog
open Lp_oracle
module Sparse = Simplex.Sparse

let show_result = function
  | Optimal { value; _ } -> Printf.sprintf "optimal %.9g" value
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"

let show_outcome = function
  | Sparse.Optimal { value; _ } -> Printf.sprintf "optimal %.9g" value
  | Sparse.Infeasible -> "infeasible"
  | Sparse.Unbounded -> "unbounded"
  | Sparse.CycleLimit _ -> "cycle limit"

(* Random general LPs: mixed senses and relations, negative rhs,
   duplicate coefficients, empty-ish rows, half-integer data (so ties
   and degenerate vertices are common rather than rare). *)
let gen_problem ?(max_vars = 8) ?(max_rows = 10) st =
  let nvars = 1 + Random.State.int st max_vars in
  let nrows = Random.State.int st (max_rows + 1) in
  let coef () = float_of_int (Random.State.int st 21 - 10) /. 2. in
  let objective =
    List.filter (fun (_, c) -> c <> 0.)
      (List.init nvars (fun j -> (j, coef ())))
  in
  let sense = if Random.State.bool st then Maximize else Minimize in
  let rows =
    List.filter
      (fun c -> c.coeffs <> [])
      (List.init nrows (fun _ ->
           let nnz = 1 + Random.State.int st nvars in
           let coeffs =
             List.filter (fun (_, c) -> c <> 0.)
               (List.init nnz (fun _ -> (Random.State.int st nvars, coef ())))
           in
           (* Mostly Le with non-negative rhs (feasible at the origin);
              Ge and Eq rows supply the infeasible and phase-1-heavy
              cases. *)
           let rel, rhs =
             match Random.State.int st 10 with
             | 0 | 1 -> (Ge, float_of_int (Random.State.int st 13 - 3) /. 2.)
             | 2 -> (Eq, float_of_int (Random.State.int st 13 - 3) /. 2.)
             | _ -> (Le, float_of_int (Random.State.int st 19 - 2) /. 2.)
           in
           constr coeffs rel rhs))
  in
  (* Box most variables so maximization is usually bounded, while the
     uncovered ones keep producing genuine unbounded rays. *)
  let boxes =
    List.filter_map
      (fun j ->
        if Random.State.int st 10 < 7 then
          Some (constr [ (j, 1.) ] Le (0.5 +. float_of_int (Random.State.int st 4)))
        else None)
      (List.init nvars Fun.id)
  in
  { nvars; sense; objective; constrs = rows @ boxes }

(* Solve [p] with both solvers and require identical classification and
   (when optimal) matching objective values and feasible points. *)
let agree name p =
  let dense = Dense.solve ~max_iters:200_000 p in
  let sparse = Sparse.solve (of_problem p) in
  match (dense, sparse) with
  | ( Optimal { value = dv; solution = dx },
      Sparse.Optimal { value = sv; solution = sx; _ } ) ->
    if abs_float (dv -. sv) > 1e-6 *. (1. +. abs_float dv) then
      Alcotest.failf "%s: dense %.9g <> sparse %.9g" name dv sv;
    if not (check_feasible p dx) then
      Alcotest.failf "%s: dense point infeasible" name;
    if not (check_feasible p sx) then
      Alcotest.failf "%s: sparse point infeasible" name;
    `Optimal
  | Infeasible, Sparse.Infeasible -> `Infeasible
  | Unbounded, Sparse.Unbounded -> `Unbounded
  | _ ->
    Alcotest.failf "%s: dense %s <> sparse %s" name (show_result dense)
      (show_outcome sparse)

let fuzz_seeds = List.init 200 (fun i -> i + 1)

let test_fuzz_vs_dense () =
  let opt = ref 0 and inf = ref 0 and unb = ref 0 in
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0x1b; seed |] in
      let p = gen_problem st in
      match agree (Printf.sprintf "seed %d" seed) p with
      | `Optimal -> incr opt
      | `Infeasible -> incr inf
      | `Unbounded -> incr unb)
    fuzz_seeds;
  (* The generator must actually exercise all three outcomes. *)
  Alcotest.(check bool) "saw optimal" true (!opt > 20);
  Alcotest.(check bool) "saw infeasible" true (!inf > 10);
  Alcotest.(check bool) "saw unbounded" true (!unb > 10)

(* [Sparse.feasible] on the folded problem must judge every point as the
   oracle's row-form [check_feasible] does: at both solvers' optima, and
   at random half-integer points, which often sit exactly on a row or a
   folded bound. *)
let test_feasible_vs_oracle () =
  let feas = ref 0 and infeas = ref 0 in
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0x1b; seed |] in
      let p = gen_problem st in
      let sp = of_problem p in
      let same label x =
        let s = Sparse.feasible sp x and o = check_feasible p x in
        if s <> o then
          Alcotest.failf "seed %d %s: Sparse.feasible %b, oracle %b" seed label
            s o;
        incr (if s then feas else infeas)
      in
      (match Dense.solve ~max_iters:200_000 p with
      | Optimal { solution; _ } -> same "dense optimum" solution
      | Infeasible | Unbounded -> ());
      (match Sparse.solve sp with
      | Sparse.Optimal { solution; _ } -> same "sparse optimum" solution
      | _ -> ());
      let pts = Random.State.make [| 0xfe; seed |] in
      for _ = 1 to 20 do
        same "point"
          (Array.init p.nvars (fun _ ->
               float_of_int (Random.State.int pts 11 - 1) /. 2.))
      done)
    fuzz_seeds;
  Alcotest.(check bool) "saw feasible points" true (!feas > 100);
  Alcotest.(check bool) "saw infeasible points" true (!infeas > 100)

(* Re-solving from the returned optimal basis must reproduce the value
   in no more iterations than the cold solve (normally zero). *)
let test_warm_start_equals_cold () =
  let tested = ref 0 in
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0x1b; seed |] in
      let p = gen_problem st in
      let sp = of_problem p in
      match Sparse.solve sp with
      | Sparse.Optimal { value; basis; iters; _ } ->
        incr tested;
        (match Sparse.solve ~basis sp with
        | Sparse.Optimal { value = wv; iters = wi; _ } ->
          if abs_float (wv -. value) > 1e-9 *. (1. +. abs_float value) then
            Alcotest.failf "seed %d: warm %.12g <> cold %.12g" seed wv value;
          if wi > iters then
            Alcotest.failf "seed %d: warm took %d iters, cold %d" seed wi iters
        | o ->
          Alcotest.failf "seed %d: warm re-solve not optimal (%s)" seed
            (match o with
            | Sparse.Infeasible -> "infeasible"
            | Sparse.Unbounded -> "unbounded"
            | Sparse.CycleLimit _ -> "cycle limit"
            | Sparse.Optimal _ -> assert false))
      | _ -> ())
    fuzz_seeds;
  Alcotest.(check bool) "warm-start cases exercised" true (!tested > 20)

(* The branch-and-bound mechanism: [?bounds] overrides on the sparse
   problem must agree with the dense oracle on the problem extended by
   the equivalent explicit rows — cold and warm-started alike. *)
let test_bounds_overrides_vs_dense () =
  let tested = ref 0 in
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0xb0; seed |] in
      let p = gen_problem st in
      let sp = of_problem p in
      match Sparse.solve sp with
      | Sparse.Optimal { basis; _ } ->
        incr tested;
        let j = Random.State.int st p.nvars in
        let lo = float_of_int (Random.State.int st 2) in
        let hi = lo +. float_of_int (Random.State.int st 4) in
        let p' =
          { p with
            constrs =
              constr [ (j, 1.) ] Ge lo
              :: constr [ (j, 1.) ] Le hi
              :: p.constrs }
        in
        let dense = Dense.solve ~max_iters:200_000 p' in
        let check label = function
          | Sparse.Optimal { value = sv; _ } -> (
            match dense with
            | Optimal { value = dv; _ } ->
              if abs_float (dv -. sv) > 1e-6 *. (1. +. abs_float dv) then
                Alcotest.failf "seed %d %s: dense %.9g <> sparse %.9g" seed
                  label dv sv
            | o ->
              Alcotest.failf "seed %d %s: dense %s but sparse optimal" seed
                label (show_result o))
          | Sparse.Infeasible ->
            if dense <> Infeasible then
              Alcotest.failf "seed %d %s: sparse infeasible, dense %s" seed
                label (show_result dense)
          | Sparse.Unbounded ->
            if dense <> Unbounded then
              Alcotest.failf "seed %d %s: sparse unbounded, dense %s" seed
                label (show_result dense)
          | Sparse.CycleLimit _ ->
            Alcotest.failf "seed %d %s: cycle limit" seed label
        in
        check "cold" (Sparse.solve ~bounds:[ (j, lo, hi) ] sp);
        check "warm" (Sparse.solve ~bounds:[ (j, lo, hi) ] ~basis sp)
      | _ -> ())
    (List.init 100 (fun i -> i + 1));
  Alcotest.(check bool) "bound-override cases exercised" true (!tested > 20)

(* Warm re-solves across right-hand-side and bound perturbations, the
   way [Mcf.session] re-solves a new demand matrix: the perturbed
   problem's rhs and bounds are written into the kept problem in place,
   which is then solved from the last optimal basis; each result must
   agree with the dense oracle on the perturbed problem.  Boxes are
   single-variable rows, folded into bounds, so dropping or moving one
   keeps the row layout; a dropped box can leave a nonbasic variable
   resting at a vanished bound. *)
let test_rhs_resolves_vs_dense () =
  let warm = ref 0 in
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0x5e55; seed |] in
      let p = gen_problem ~max_vars:12 ~max_rows:16 st in
      let sp = of_problem p in
      match Sparse.solve sp with
      | Sparse.Optimal { basis; _ } ->
        let basis = ref basis in
        for round = 1 to 5 do
          (* Le rows keep a non-negative rhs, so problems feasible at
             the origin stay so. *)
          let shift c =
            let v = c.rhs +. (float_of_int (Random.State.int st 7 - 3) /. 2.) in
            if c.rel = Le then Float.max 0. v else v
          in
          let constrs =
            List.filter_map
              (fun c ->
                match c.coeffs with
                | [ _ ] when Random.State.int st 8 = 0 -> None
                | _ -> Some { c with rhs = shift c })
              p.constrs
          in
          let p' = { p with constrs } in
          let sp' = of_problem p' in
          Array.blit sp'.Sparse.rhs 0 sp.Sparse.rhs 0 sp.Sparse.nrows;
          Array.blit sp'.Sparse.lower 0 sp.Sparse.lower 0 p.nvars;
          Array.blit sp'.Sparse.upper 0 sp.Sparse.upper 0 p.nvars;
          let label = Printf.sprintf "seed %d round %d" seed round in
          let sparse = Sparse.solve ~basis:!basis sp in
          match (Dense.solve ~max_iters:200_000 p', sparse) with
          | Optimal { value = dv; _ }, Sparse.Optimal { value = sv; solution; basis = b; _ } ->
            incr warm;
            basis := b;
            if abs_float (dv -. sv) > 1e-6 *. (1. +. abs_float dv) then
              Alcotest.failf "%s: dense %.9g <> warm %.9g" label dv sv;
            if not (check_feasible p' solution) then
              Alcotest.failf "%s: warm point infeasible" label
          | Infeasible, Sparse.Infeasible | Unbounded, Sparse.Unbounded -> ()
          | dense, _ ->
            Alcotest.failf "%s: dense %s <> warm %s" label (show_result dense)
              (show_outcome sparse)
        done
      | _ -> ())
    fuzz_seeds;
  Alcotest.(check bool)
    (Printf.sprintf "warm re-solves exercised (%d)" !warm)
    true (!warm > 100)

(* ------------------------------------------------------------------ *)
(* Directed corner cases                                               *)
(* ------------------------------------------------------------------ *)

let test_degenerate_beale () =
  (* Beale's cycling example; the sparse solver must terminate and match
     the oracle. *)
  let p =
    { nvars = 4; sense = Minimize;
      objective = [ (0, -0.75); (1, 150.); (2, -0.02); (3, 6.) ];
      constrs =
        [ constr [ (0, 0.25); (1, -60.); (2, -0.04); (3, 9.) ] Le 0.;
          constr [ (0, 0.5); (1, -90.); (2, -0.02); (3, 3.) ] Le 0.;
          constr [ (2, 1.) ] Le 1. ] }
  in
  ignore (agree "beale" p)

let test_fixed_variable_folding () =
  (* [add_row] turns a singleton Eq row into a fixed bound, not a row;
     the solution must carry the fixed value. *)
  let b = Sparse.builder ~minimize:false 2 in
  Sparse.set_obj b 0 1.;
  Sparse.set_obj b 1 1.;
  Sparse.add_row b [ (0, 1.) ] Eq 2.;
  Sparse.add_row b [ (0, 1.); (1, 1.) ] Le 5.;
  let sp = Sparse.finish b in
  Alcotest.(check int) "singleton row not counted" 1 sp.Sparse.nrows;
  Alcotest.(check (pair (float 0.) (float 0.)))
    "bounds" (2., 2.)
    (sp.Sparse.lower.(0), sp.Sparse.upper.(0));
  (match Sparse.solve sp with
  | Sparse.Optimal { value; solution; _ } ->
    Alcotest.(check (float 1e-9)) "value" 5. value;
    Alcotest.(check (float 1e-9)) "fixed var" 2. solution.(0)
  | o -> Alcotest.failf "expected optimal, got %s" (show_outcome o));
  ignore
    (agree "fixed-var"
       { nvars = 2; sense = Maximize; objective = [ (0, 1.); (1, 1.) ];
         constrs =
           [ constr [ (0, 1.) ] Eq 2.; constr [ (0, 1.); (1, 1.) ] Le 5. ] })

let test_conflicting_singletons_infeasible () =
  let p =
    { nvars = 1; sense = Maximize; objective = [ (0, 1.) ];
      constrs = [ constr [ (0, 1.) ] Le 1.; constr [ (0, 1.) ] Ge 2. ] }
  in
  ignore (agree "crossed-bounds" p)

let test_unbounded_with_equalities () =
  (* Phase 1 must finish before unboundedness is declared. *)
  let p =
    { nvars = 3; sense = Maximize; objective = [ (2, 1.) ];
      constrs = [ constr [ (0, 1.); (1, 1.) ] Eq 4. ] }
  in
  ignore (agree "eq-then-unbounded" p)

let test_cycle_limit_typed () =
  (* max_iters 0 must surface as the typed CycleLimit, not an
     exception, through Sparse.solve. *)
  let p =
    { nvars = 2; sense = Maximize; objective = [ (0, 1.); (1, 1.) ];
      constrs = [ constr [ (0, 1.); (1, 2.) ] Le 4. ] }
  in
  let sp = of_problem p in
  match Sparse.solve ~max_iters:0 sp with
  | Sparse.CycleLimit { iters } -> Alcotest.(check int) "iters" 0 iters
  | _ -> Alcotest.fail "expected CycleLimit"

(* ------------------------------------------------------------------ *)
(* MILP: warm and cold branch-and-bound agree                          *)
(* ------------------------------------------------------------------ *)

let test_milp_warm_equals_cold () =
  for seed = 1 to 60 do
    let st = Random.State.make [| 0x3a; seed |] in
    let n = 2 + Random.State.int st 4 in
    let p =
      { nvars = n; sense = Maximize;
        objective =
          List.init n (fun j -> (j, 0.5 +. float_of_int (Random.State.int st 8)));
        constrs =
          constr
            (List.init n (fun j -> (j, 1. +. float_of_int (Random.State.int st 4))))
            Le
            (3. +. float_of_int (Random.State.int st 12))
          :: List.init n (fun j -> constr [ (j, 1.) ] Le 3.) }
    in
    let integer_vars = List.init n Fun.id in
    let sp = of_problem p in
    let r_warm, e_warm = Milp.solve ~warm:true sp ~integer_vars in
    let r_cold, e_cold = Milp.solve ~warm:false sp ~integer_vars in
    match (r_warm, r_cold) with
    | Milp.Solution w, Milp.Solution c ->
      if abs_float (w.Milp.value -. c.Milp.value) > 1e-6 then
        Alcotest.failf "seed %d: warm %.9g <> cold %.9g" seed w.Milp.value
          c.Milp.value;
      if w.Milp.nodes_explored <> c.Milp.nodes_explored then
        Alcotest.failf "seed %d: warm explored %d nodes, cold %d" seed
          w.Milp.nodes_explored c.Milp.nodes_explored;
      Alcotest.(check int) "cold run has no warm solves" 0
        e_cold.Milp.warm_solves;
      if w.Milp.nodes_explored > 1 && e_warm.Milp.warm_solves = 0 then
        Alcotest.failf "seed %d: warm run never reused a basis" seed
    | _ -> Alcotest.failf "seed %d: expected solutions from both runs" seed
  done

let () =
  Alcotest.run "lp"
    [
      ( "fuzz",
        [
          Alcotest.test_case "sparse = dense oracle (200 instances)" `Quick
            test_fuzz_vs_dense;
          Alcotest.test_case "warm start = cold" `Quick
            test_warm_start_equals_cold;
          Alcotest.test_case "bound overrides = explicit rows" `Quick
            test_bounds_overrides_vs_dense;
          Alcotest.test_case "Sparse.feasible = oracle check_feasible" `Quick
            test_feasible_vs_oracle;
          Alcotest.test_case "RHS re-solves = dense oracle" `Quick
            test_rhs_resolves_vs_dense;
        ] );
      ( "corners",
        [
          Alcotest.test_case "Beale degenerate" `Quick test_degenerate_beale;
          Alcotest.test_case "fixed-variable folding" `Quick
            test_fixed_variable_folding;
          Alcotest.test_case "crossed singleton bounds" `Quick
            test_conflicting_singletons_infeasible;
          Alcotest.test_case "equalities before unbounded" `Quick
            test_unbounded_with_equalities;
          Alcotest.test_case "typed cycle limit" `Quick test_cycle_limit_typed;
        ] );
      ( "milp",
        [
          Alcotest.test_case "warm = cold branch and bound" `Quick
            test_milp_warm_equals_cold;
        ] );
    ]
