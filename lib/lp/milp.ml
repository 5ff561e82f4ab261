type status = Optimal | Feasible

type solution = {
  status : status;
  value : float;
  point : float array;
  nodes_explored : int;
}

type result = Solution of solution | Infeasible | Unbounded | NoIncumbent

type effort = {
  lp_solves : int;
  lp_pivots : int;
  warm_solves : int;
  warm_pivots : int;
  cold_pivots : int;
  cycle_limits : int;
}

(* A node is a set of branching bound overrides on the shared sparse
   problem, plus the parent's optimal basis for warm starting and the
   parent relaxation value as the best-bound key.  Branching on bounds
   (rather than appended rows) keeps every node the same shape, which is
   what makes parent-basis reuse well defined. *)
type node = {
  nbounds : (int * float * float) list;
  nbasis : Simplex.Sparse.basis option;
  bound : float;
}

let frac x = x -. Float.round x

(* Integrality tolerance: a value within it of an integer counts as one. *)
let int_tol = 1e-6

let solve ?(max_nodes = 200_000) ?initial ?(warm = true)
    ?(probe = Simplex.null_probe) (sp : Simplex.Sparse.t) ~integer_vars =
  let maximizing = not sp.Simplex.Sparse.minimize in
  let better a b = if maximizing then a > b +. 1e-9 else a < b -. 1e-9 in
  let objective_of x =
    let v = ref 0. in
    Array.iteri
      (fun j c -> if c <> 0. then v := !v +. (c *. x.(j)))
      sp.Simplex.Sparse.obj;
    !v
  in
  let find_fractional x =
    (* Most-fractional branching. *)
    let best = ref None in
    List.iter
      (fun j ->
        let f = abs_float (frac x.(j)) in
        if f > int_tol then
          match !best with
          | Some (_, bf) when bf >= f -> ()
          | _ -> best := Some (j, f))
      integer_vars;
    !best
  in
  let incumbent = ref None in
  (* Warm start: accept a caller-provided integer-feasible point as the
     initial incumbent (ignored when infeasible or fractional). *)
  (match initial with
  | Some x
    when Simplex.Sparse.feasible sp x
         && List.for_all (fun j -> abs_float (frac x.(j)) <= int_tol) integer_vars
    -> incumbent := Some (objective_of x, Array.copy x)
  | _ -> ());
  let nodes_explored = ref 0 in
  let lp_solves = ref 0 and lp_pivots = ref 0 in
  let warm_solves = ref 0 and warm_pivots = ref 0 and cold_pivots = ref 0 in
  let cycle_limits = ref 0 in
  let solve_node node =
    let basis = if warm then node.nbasis else None in
    incr lp_solves;
    let ntok = if probe.Simplex.enabled then probe.Simplex.start "milp:node" else -1 in
    let r = Simplex.Sparse.solve ~bounds:node.nbounds ?basis ~probe sp in
    if ntok >= 0 then probe.Simplex.finish ntok;
    let record iters =
      lp_pivots := !lp_pivots + iters;
      match basis with
      | Some _ ->
        incr warm_solves;
        warm_pivots := !warm_pivots + iters
      | None -> cold_pivots := !cold_pivots + iters
    in
    (match r with
    | Simplex.Sparse.Optimal { iters; _ } -> record iters
    | Simplex.Sparse.CycleLimit { iters } ->
      record iters;
      incr cycle_limits
    | Simplex.Sparse.Infeasible | Simplex.Sparse.Unbounded -> ());
    r
  in
  let root_unbounded = ref false in
  let root_infeasible = ref false in
  (* Worklist kept sorted so the best relaxation bound is explored first;
     pruning then closes the gap quickly. *)
  let insert queue (n : node) =
    let rec go = function
      | [] -> [ n ]
      | hd :: tl -> if better n.bound hd.bound then n :: hd :: tl else hd :: go tl
    in
    go queue
  in
  let queue =
    ref
      [
        {
          nbounds = [];
          nbasis = None;
          bound = (if maximizing then infinity else neg_infinity);
        };
      ]
  in
  let limit_hit = ref false in
  while !queue <> [] do
    match !queue with
    | [] -> ()
    | node :: rest ->
      queue := rest;
      if !nodes_explored >= max_nodes then begin
        limit_hit := true;
        queue := []
      end
      else begin
        incr nodes_explored;
        let prune_by_incumbent bound =
          match !incumbent with
          | Some (v, _) -> not (better bound v)
          | None -> false
        in
        if prune_by_incumbent node.bound then ()
        else begin
          match solve_node node with
          | Simplex.Sparse.CycleLimit _ ->
            (* Pivot limit on a degenerate subproblem: drop the node and
               degrade the status to Feasible (the subtree is not
               certified). *)
            limit_hit := true
          | Simplex.Sparse.Infeasible ->
            if node.nbounds = [] then root_infeasible := true
          | Simplex.Sparse.Unbounded ->
            (* An unbounded relaxation at the root makes the MILP
               unbounded or infeasible; we report unbounded (the TE
               formulations are always bounded, so this is a user
               error path). *)
            if node.nbounds = [] then begin
              root_unbounded := true;
              queue := []
            end
          | Simplex.Sparse.Optimal { value; solution; basis; iters = _ } ->
            if prune_by_incumbent value then ()
            else begin
              match find_fractional solution with
              | None ->
                (* Integer feasible. *)
                let accept =
                  match !incumbent with
                  | None -> true
                  | Some (v, _) -> better value v
                in
                if accept then incumbent := Some (value, Array.copy solution)
              | Some (j, _) ->
                let x = solution.(j) in
                let lo = floor x and hi = ceil x in
                let left =
                  {
                    nbounds = (j, neg_infinity, lo) :: node.nbounds;
                    nbasis = Some basis;
                    bound = value;
                  }
                and right =
                  {
                    nbounds = (j, hi, infinity) :: node.nbounds;
                    nbasis = Some basis;
                    bound = value;
                  }
                in
                queue := insert (insert !queue left) right
            end
        end
      end
  done;
  let effort =
    {
      lp_solves = !lp_solves;
      lp_pivots = !lp_pivots;
      warm_solves = !warm_solves;
      warm_pivots = !warm_pivots;
      cold_pivots = !cold_pivots;
      cycle_limits = !cycle_limits;
    }
  in
  let result =
    if !root_unbounded then Unbounded
    else if !root_infeasible && !incumbent = None then Infeasible
    else
      match !incumbent with
      | None -> if !limit_hit then NoIncumbent else Infeasible
      | Some (value, point) ->
        (* Snap near-integral entries for downstream consumers. *)
        List.iter
          (fun j ->
            if abs_float (frac point.(j)) <= 1e-5 then
              point.(j) <- Float.round point.(j))
          integer_vars;
        Solution
          {
            status = (if !limit_hit then Feasible else Optimal);
            value;
            point;
            nodes_explored = !nodes_explored;
          }
  in
  (result, effort)
