(* Tests for the simplex LP solver and the branch-and-bound MILP solver. *)

open Linprog
open Lp_oracle
module Sparse = Simplex.Sparse

(* Problems are stated in the oracle's row form and solved by the
   sparse simplex. *)
let solve p = Sparse.solve (of_problem p)

let get_opt = function
  | Sparse.Optimal { value; solution; _ } -> (value, solution)
  | Sparse.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Sparse.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Sparse.CycleLimit _ -> Alcotest.fail "unexpected cycle limit"

let checkf = Alcotest.(check (float 1e-6))

(* max x0 + x1  s.t.  x0 <= 4, x1 <= 3, x0 + x1 <= 5 *)
let test_basic_max () =
  let p =
    { nvars = 2; sense = Maximize; objective = [ (0, 1.); (1, 1.) ];
      constrs =
        [ constr [ (0, 1.) ] Le 4.; constr [ (1, 1.) ] Le 3.;
          constr [ (0, 1.); (1, 1.) ] Le 5. ] }
  in
  let v, x = get_opt (solve p) in
  checkf "objective" 5. v;
  Alcotest.(check bool) "feasible" true (check_feasible p x)

(* min 2x0 + 3x1  s.t.  x0 + x1 >= 4, x0 >= 1 *)
let test_basic_min () =
  let p =
    { nvars = 2; sense = Minimize; objective = [ (0, 2.); (1, 3.) ];
      constrs = [ constr [ (0, 1.); (1, 1.) ] Ge 4.; constr [ (0, 1.) ] Ge 1. ] }
  in
  let v, x = get_opt (solve p) in
  checkf "objective" 8. v;
  checkf "x0" 4. x.(0);
  checkf "x1" 0. x.(1)

let test_equality () =
  (* max x0 s.t. x0 + x1 = 3, x0 - x1 = 1  ->  x0 = 2, x1 = 1 *)
  let p =
    { nvars = 2; sense = Maximize; objective = [ (0, 1.) ];
      constrs =
        [ constr [ (0, 1.); (1, 1.) ] Eq 3.; constr [ (0, 1.); (1, -1.) ] Eq 1. ] }
  in
  let v, x = get_opt (solve p) in
  checkf "objective" 2. v;
  checkf "x1" 1. x.(1)

let test_infeasible () =
  let p =
    { nvars = 1; sense = Maximize; objective = [ (0, 1.) ];
      constrs = [ constr [ (0, 1.) ] Le 1.; constr [ (0, 1.) ] Ge 2. ] }
  in
  (match solve p with
  | Sparse.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  let p =
    { nvars = 2; sense = Maximize; objective = [ (0, 1.) ];
      constrs = [ constr [ (1, 1.) ] Le 1. ] }
  in
  (match solve p with
  | Sparse.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded")

let test_negative_rhs () =
  (* x0 - x1 <= -2 normalizes to a Ge row; min x1 s.t. x1 >= x0 + 2 >= 2. *)
  let p =
    { nvars = 2; sense = Minimize; objective = [ (1, 1.) ];
      constrs = [ constr [ (0, 1.); (1, -1.) ] Le (-2.) ] }
  in
  let v, _ = get_opt (solve p) in
  checkf "objective" 2. v

let test_degenerate () =
  (* Classic degenerate LP; must not cycle. *)
  let p =
    { nvars = 3; sense = Maximize;
      objective = [ (0, 10.); (1, -57.); (2, -9.) ];
      constrs =
        [ constr [ (0, 0.5); (1, -5.5); (2, -2.5) ] Le 0.;
          constr [ (0, 0.5); (1, -1.5); (2, -0.5) ] Le 0.;
          constr [ (0, 1.) ] Le 1. ] }
  in
  let v, _ = get_opt (solve p) in
  Alcotest.(check bool) "finite" true (Float.is_finite v)

let test_duplicate_coeffs () =
  (* Repeated (var, coef) pairs must accumulate: max x s.t. x + x <= 4. *)
  let p =
    { nvars = 1; sense = Maximize; objective = [ (0, 1.) ];
      constrs = [ constr [ (0, 1.); (0, 1.) ] Le 4. ] }
  in
  let v, _ = get_opt (solve p) in
  checkf "x = 2" 2. v

let test_bad_index () =
  let b = Sparse.builder ~minimize:false 1 in
  Alcotest.check_raises "objective oob"
    (Invalid_argument "Simplex.Sparse.set_obj: variable index out of range")
    (fun () -> Sparse.set_obj b 1 1.);
  Alcotest.check_raises "row oob"
    (Invalid_argument "Simplex.Sparse.add_row: variable index out of range")
    (fun () -> Sparse.add_row b [ (0, 1.); (1, 1.) ] Le 1.)

let test_min_mlu_toy () =
  (* Two parallel links (caps 1 and 3), demand 2; route to minimize MLU.
     vars: f0, f1, U.  min U s.t. f0 + f1 = 2, f0 <= U*1, f1 <= U*3.
     Optimum: U = 1/2, f0 = 1/2, f1 = 3/2. *)
  let p =
    { nvars = 3; sense = Minimize; objective = [ (2, 1.) ];
      constrs =
        [ constr [ (0, 1.); (1, 1.) ] Eq 2.;
          constr [ (0, 1.); (2, -1.) ] Le 0.;
          constr [ (1, 1.); (2, -3.) ] Le 0. ] }
  in
  let v, x = get_opt (solve p) in
  checkf "U" 0.5 v;
  checkf "f0" 0.5 x.(0);
  checkf "f1" 1.5 x.(1)

(* ------------------------------------------------------------------ *)
(* MILP                                                                *)
(* ------------------------------------------------------------------ *)

let get_milp = function
  | Milp.Solution s -> s
  | Milp.Infeasible -> Alcotest.fail "unexpected milp infeasible"
  | Milp.Unbounded -> Alcotest.fail "unexpected milp unbounded"
  | Milp.NoIncumbent -> Alcotest.fail "unexpected no-incumbent"

let test_milp_knapsack () =
  (* max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, vars binary.
     Optimum: b + c + d = 21. *)
  let p =
    { nvars = 4; sense = Maximize;
      objective = [ (0, 8.); (1, 11.); (2, 6.); (3, 4.) ];
      constrs =
        [ constr [ (0, 5.); (1, 7.); (2, 4.); (3, 3.) ] Le 14.;
          constr [ (0, 1.) ] Le 1.; constr [ (1, 1.) ] Le 1.;
          constr [ (2, 1.) ] Le 1.; constr [ (3, 1.) ] Le 1. ] }
  in
  let s =
    get_milp (fst (Milp.solve (of_problem p) ~integer_vars:[ 0; 1; 2; 3 ]))
  in
  checkf "objective" 21. s.Milp.value;
  checkf "a" 0. s.Milp.point.(0);
  checkf "b" 1. s.Milp.point.(1)

let test_milp_integer_rounding () =
  (* max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5). *)
  let p =
    { nvars = 1; sense = Maximize; objective = [ (0, 1.) ];
      constrs = [ constr [ (0, 2.) ] Le 7. ] }
  in
  let s = get_milp (fst (Milp.solve (of_problem p) ~integer_vars:[ 0 ])) in
  checkf "x" 3. s.Milp.value

let test_milp_min () =
  (* min 3x + 4y s.t. x + 2y >= 5, ints -> candidates: y=3 cost 12;
     x=1,y=2 cost 11; x=3,y=1 cost 13; x=5 cost 15.  Optimum 11. *)
  let p =
    { nvars = 2; sense = Minimize; objective = [ (0, 3.); (1, 4.) ];
      constrs = [ constr [ (0, 1.); (1, 2.) ] Ge 5. ] }
  in
  let s = get_milp (fst (Milp.solve (of_problem p) ~integer_vars:[ 0; 1 ])) in
  checkf "objective" 11. s.Milp.value

let test_milp_infeasible () =
  let p =
    { nvars = 1; sense = Maximize; objective = [ (0, 1.) ];
      constrs = [ constr [ (0, 2.) ] Ge 1.; constr [ (0, 2.) ] Le 1. ] }
  in
  (* 0.5 <= x <= 0.5 has no integer point... except x=0.5; integrality
     makes it infeasible. *)
  (match fst (Milp.solve (of_problem p) ~integer_vars:[ 0 ]) with
  | Milp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_milp_mixed () =
  (* max x + y, x integer, y continuous; x <= 2.5, y <= 0.5. *)
  let p =
    { nvars = 2; sense = Maximize; objective = [ (0, 1.); (1, 1.) ];
      constrs = [ constr [ (0, 1.) ] Le 2.5; constr [ (1, 1.) ] Le 0.5 ] }
  in
  let s = get_milp (fst (Milp.solve (of_problem p) ~integer_vars:[ 0 ])) in
  checkf "objective" 2.5 s.Milp.value;
  checkf "x integral" 2. s.Milp.point.(0)

let test_milp_assignment () =
  (* 2x2 assignment problem: costs [[1, 10]; [10, 1]]; min cost 2. *)
  let var i j = (2 * i) + j in
  let p =
    { nvars = 4; sense = Minimize;
      objective = [ (var 0 0, 1.); (var 0 1, 10.); (var 1 0, 10.); (var 1 1, 1.) ];
      constrs =
        [ constr [ (var 0 0, 1.); (var 0 1, 1.) ] Eq 1.;
          constr [ (var 1 0, 1.); (var 1 1, 1.) ] Eq 1.;
          constr [ (var 0 0, 1.); (var 1 0, 1.) ] Eq 1.;
          constr [ (var 0 1, 1.); (var 1 1, 1.) ] Eq 1. ] }
  in
  let s =
    get_milp (fst (Milp.solve (of_problem p) ~integer_vars:[ 0; 1; 2; 3 ]))
  in
  checkf "objective" 2. s.Milp.value

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random bounded LPs: max c.x with x_j <= u_j and a coupling row. *)
let arb_lp =
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun n ->
      list_size (return n) (float_range 0.1 5.) >>= fun cs ->
      list_size (return n) (float_range 0.5 4.) >>= fun us ->
      float_range 1. 10. >>= fun budget -> return (n, cs, us, budget))
  in
  QCheck.make gen ~print:(fun (n, _, _, b) -> Printf.sprintf "n=%d budget=%g" n b)

let prop_lp_solution_feasible =
  QCheck.Test.make ~name:"simplex returns feasible optimum" ~count:200 arb_lp
    (fun (n, cs, us, budget) ->
      let p =
        { nvars = n; sense = Maximize;
          objective = List.mapi (fun j c -> (j, c)) cs;
          constrs =
            constr (List.init n (fun j -> (j, 1.))) Le budget
            :: List.mapi (fun j u -> constr [ (j, 1.) ] Le u) us }
      in
      match solve p with
      | Sparse.Optimal { value; solution; _ } ->
        check_feasible p solution
        && value
           >= List.fold_left2 (fun acc c x -> acc +. (c *. x)) 0. cs
                (Array.to_list solution)
              -. 1e-6
      | _ -> false)

let test_milp_warm_start () =
  (* A valid warm start must survive even a node budget of 1. *)
  let p =
    { nvars = 2; sense = Maximize; objective = [ (0, 3.); (1, 2.) ];
      constrs =
        [ constr [ (0, 1.); (1, 1.) ] Le 4.; constr [ (0, 1.) ] Le 3.;
          constr [ (1, 1.) ] Le 3. ] }
  in
  let initial = [| 1.; 1. |] in
  (match
     fst (Milp.solve ~max_nodes:1 ~initial (of_problem p) ~integer_vars:[ 0; 1 ])
   with
  | Milp.Solution s ->
    Alcotest.(check bool) "at least the warm start" true (s.Milp.value >= 5. -. 1e-9)
  | _ -> Alcotest.fail "expected a solution");
  (* An infeasible warm start is ignored, not trusted. *)
  (match
     fst
       (Milp.solve ~initial:[| 10.; 10. |] (of_problem p)
          ~integer_vars:[ 0; 1 ])
   with
  | Milp.Solution s -> checkf "true optimum" 11. s.Milp.value
  | _ -> Alcotest.fail "expected a solution")

(* Exhaustive grid enumeration as an oracle for 2-variable integer
   programs. *)
let prop_milp_matches_enumeration =
  QCheck.Test.make ~name:"2-var MILP = grid enumeration" ~count:150
    (QCheck.make
       QCheck.Gen.(
         float_range 0.5 4. >>= fun c0 ->
         float_range 0.5 4. >>= fun c1 ->
         float_range 2. 9. >>= fun budget ->
         float_range 1. 6. >>= fun u0 ->
         float_range 1. 6. >>= fun u1 -> return (c0, c1, budget, u0, u1))
       ~print:(fun (a, b, c, d, e) ->
         Printf.sprintf "c=(%g,%g) budget=%g u=(%g,%g)" a b c d e))
    (fun (c0, c1, budget, u0, u1) ->
      let p =
        { nvars = 2; sense = Maximize; objective = [ (0, c0); (1, c1) ];
          constrs =
            [ constr [ (0, 1.); (1, 1.) ] Le budget; constr [ (0, 1.) ] Le u0;
              constr [ (1, 1.) ] Le u1 ] }
      in
      let best = ref neg_infinity in
      for x = 0 to 10 do
        for y = 0 to 10 do
          let xf = float_of_int x and yf = float_of_int y in
          if xf +. yf <= budget +. 1e-12 && xf <= u0 +. 1e-12 && yf <= u1 +. 1e-12
          then best := max !best ((c0 *. xf) +. (c1 *. yf))
        done
      done;
      match fst (Milp.solve (of_problem p) ~integer_vars:[ 0; 1 ]) with
      | Milp.Solution s -> abs_float (s.Milp.value -. !best) <= 1e-6
      | _ -> false)

let prop_lp_bound_dominates_milp =
  QCheck.Test.make ~name:"LP relaxation dominates MILP optimum" ~count:100 arb_lp
    (fun (n, cs, us, budget) ->
      let p =
        { nvars = n; sense = Maximize;
          objective = List.mapi (fun j c -> (j, c)) cs;
          constrs =
            constr (List.init n (fun j -> (j, 1.))) Le budget
            :: List.mapi (fun j u -> constr [ (j, 1.) ] Le u) us }
      in
      let milp =
        fst (Milp.solve (of_problem p) ~integer_vars:(List.init n Fun.id))
      in
      match (solve p, milp) with
      | Sparse.Optimal { value = lp; _ }, Milp.Solution s ->
        lp >= s.Milp.value -. 1e-6
        && Array.for_all
             (fun x -> abs_float (x -. Float.round x) <= 1e-5)
             (Array.sub s.Milp.point 0 n)
      | _ -> false)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "linprog"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_basic_max;
          Alcotest.test_case "basic min" `Quick test_basic_min;
          Alcotest.test_case "equalities" `Quick test_equality;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "duplicate coefficients" `Quick test_duplicate_coeffs;
          Alcotest.test_case "index check" `Quick test_bad_index;
          Alcotest.test_case "min-MLU toy" `Quick test_min_mlu_toy;
        ] );
      ( "milp",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "rounding" `Quick test_milp_integer_rounding;
          Alcotest.test_case "minimize" `Quick test_milp_min;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "mixed" `Quick test_milp_mixed;
          Alcotest.test_case "assignment" `Quick test_milp_assignment;
          Alcotest.test_case "warm start" `Quick test_milp_warm_start;
        ] );
      ( "properties",
        qc
          [ prop_lp_solution_feasible; prop_lp_bound_dominates_milp;
            prop_milp_matches_enumeration ] );
    ]
