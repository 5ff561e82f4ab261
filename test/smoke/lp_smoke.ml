(* LP-layer smoke: the sparse revised simplex against the dense tableau
   oracle on random LPs and on a real min-MLU instance, warm-start
   sanity, a fill gate on the basis factorization, and a pivot gate on
   the min-MLU crash start.  Run with `dune build @lp-smoke'. *)

open Linprog
open Lp_oracle
module Sparse = Simplex.Sparse

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL: %s\n" s)
    fmt

let gen_problem st =
  let nvars = 1 + Random.State.int st 6 in
  let nrows = Random.State.int st 8 in
  let coef () = float_of_int (Random.State.int st 21 - 10) /. 2. in
  let rows =
    List.filter
      (fun c -> c.coeffs <> [])
      (List.init nrows (fun _ ->
           let coeffs =
             List.filter (fun (_, c) -> c <> 0.)
               (List.init (1 + Random.State.int st nvars) (fun _ ->
                    (Random.State.int st nvars, coef ())))
           in
           let rel, rhs =
             match Random.State.int st 8 with
             | 0 -> (Ge, float_of_int (Random.State.int st 9 - 2) /. 2.)
             | 1 -> (Eq, float_of_int (Random.State.int st 9 - 2) /. 2.)
             | _ -> (Le, float_of_int (Random.State.int st 15 - 2) /. 2.)
           in
           constr coeffs rel rhs))
  in
  let boxes =
    List.filter_map
      (fun j ->
        if Random.State.int st 4 > 0 then
          Some (constr [ (j, 1.) ] Le (0.5 +. float_of_int (Random.State.int st 4)))
        else None)
      (List.init nvars Fun.id)
  in
  { nvars;
    sense = (if Random.State.bool st then Maximize else Minimize);
    objective =
      List.filter (fun (_, c) -> c <> 0.)
        (List.init nvars (fun j -> (j, coef ())));
    constrs = rows @ boxes }

let () =
  (* 1. Random LPs vs the dense oracle. *)
  let agreed = ref 0 in
  for seed = 1 to 60 do
    let st = Random.State.make [| 0x5e; seed |] in
    let p = gen_problem st in
    match (Dense.solve ~max_iters:200_000 p, Sparse.solve (of_problem p)) with
    | Optimal { value = dv; _ }, Sparse.Optimal { value = sv; _ } ->
      if abs_float (dv -. sv) <= 1e-6 *. (1. +. abs_float dv) then incr agreed
      else fail "seed %d: dense %.9g <> sparse %.9g" seed dv sv
    | Infeasible, Sparse.Infeasible | Unbounded, Sparse.Unbounded -> incr agreed
    | _ -> fail "seed %d: solvers classify differently" seed
  done;
  Printf.printf "random LPs: %d/60 agree with the dense oracle\n" !agreed;
  (* 2. A real min-MLU LP (Abilene), and a warm session re-solve on a scaled
     demand matrix. *)
  let g = Topology.Datasets.abilene () in
  let demands = Te.Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g in
  let session = Mcf.session g in
  let v1 = (Mcf.solve session demands).Mcf.value in
  let scaled =
    Array.map
      (fun (d : Netgraph.Demand.t) -> { d with size = d.size *. 1.25 })
      demands
  in
  let v2 = (Mcf.solve session scaled).Mcf.value in
  let v2_cold = (Mcf.opt_mlu_lp g scaled).Mcf.value in
  if abs_float (v2 -. v2_cold) > 1e-9 *. (1. +. abs_float v2_cold) then
    fail "warm MCF re-solve %.12g <> cold %.12g" v2 v2_cold;
  if abs_float (v2 -. (1.25 *. v1)) > 1e-6 *. (1. +. abs_float v2) then
    fail "scaled MLU %.9g is not 1.25x the base %.9g" v2 v1;
  Printf.printf "Abilene min-MLU: base %.4f, 1.25x demands warm = cold = %.4f\n"
    v1 v2;
  (* 3. Fill: the LU of an optimal min-MLU basis (Cost266, 20% of the
     pairs, seeded as the repository benchmark draws them) must stay
     within twice the basis nonzeros.  Counts only, no timing. *)
  let g = Topology.Datasets.load "Cost266" in
  let pairs = Te.Demand_gen.select_pairs ~seed:1 ~frac:0.2 g in
  let st = Random.State.make [| 1; 0x7e5d |] in
  let comms =
    Netgraph.Demand.aggregate
      (Array.map
         (fun (s, t) -> Netgraph.Demand.make s t (0.5 +. Random.State.float st 1.))
         pairs)
  in
  let p = Mcf.build_mlu_lp g comms in
  let slack = Sparse.solve p in
  (match slack with
  | Sparse.Optimal { basis; _ } ->
    let cols =
      Array.map
        (fun j ->
          if j >= p.Sparse.ncols then ([| j - p.Sparse.ncols |], [| 1. |])
          else
            let s = p.Sparse.colp.(j) and e = p.Sparse.colp.(j + 1) in
            (Array.sub p.Sparse.rowi s (e - s), Array.sub p.Sparse.vals s (e - s)))
        basis.Sparse.head
    in
    let bnz = Array.fold_left (fun a (ri, _) -> a + Array.length ri) 0 cols in
    (match Sparse_lu.factor ~n:p.Sparse.nrows cols with
    | Some f ->
      let lu = Sparse_lu.nnz f in
      Printf.printf "Cost266 optimal basis: nnz(B) = %d, nnz(L+U) = %d\n" bnz lu;
      if lu > 2 * bnz then fail "LU fill %d exceeds 2 x nnz(B) = %d" lu (2 * bnz)
    | None -> fail "Cost266 optimal basis does not factor")
  | _ -> fail "Cost266 min-MLU LP not optimal");
  (* 4. The same LP cold from the crash basis: the same optimum in at
     most half the slack start's pivots.  Counts only, no timing. *)
  (match (slack, Sparse.solve ~basis:(Mcf.crash_basis g comms) p) with
  | ( Sparse.Optimal { value = sv; iters = si; _ },
      Sparse.Optimal { value = cv; iters = ci; _ } ) ->
    Printf.printf "Cost266 cold pivots: slack start %d, crash start %d\n" si ci;
    if abs_float (cv -. sv) > 1e-9 *. abs_float sv then
      fail "crash start %.17g <> slack start %.17g" cv sv;
    if 2 * ci > si then
      fail "crash start takes %d pivots, more than half of %d" ci si
  | _ -> fail "Cost266 min-MLU LP not optimal from both starts");
  if !failures = 0 then print_endline "lp-smoke OK"
  else begin
    Printf.printf "lp-smoke FAILED (%d)\n" !failures;
    exit 1
  end
