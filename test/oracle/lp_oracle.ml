(* The row-form LP and the dense two-phase tableau simplex: an
   independent, slow-but-simple statement and solution of an LP that
   the tests, the LP smoke driver and the bench LP race check the
   sparse revised simplex against.  Nothing outside test/ and bench/
   links it. *)

type relation = Linprog.Simplex.relation = Le | Ge | Eq

type sense = Maximize | Minimize

type constr = { coeffs : (int * float) list; rel : relation; rhs : float }

type problem = {
  nvars : int;
  sense : sense;
  objective : (int * float) list;
  constrs : constr list;
}

type result =
  | Optimal of { value : float; solution : float array }
  | Infeasible
  | Unbounded

let constr coeffs rel rhs = { coeffs; rel; rhs }

let tol = 1e-8

let validate p =
  List.iter
    (fun c ->
      List.iter
        (fun (j, _) ->
          if j < 0 || j >= p.nvars then
            invalid_arg "Dense.solve: variable index out of range")
        c.coeffs)
    p.constrs;
  List.iter
    (fun (j, _) ->
      if j < 0 || j >= p.nvars then
        invalid_arg "Dense.solve: objective index out of range")
    p.objective

(* ------------------------------------------------------------------ *)
(* Dense two-phase tableau simplex.  This is the original solver, kept
   verbatim as a slow-but-simple oracle: the fuzz suite checks the
   sparse revised simplex against it, and it remains available for
   debugging.  Production paths go through [Simplex.Sparse]. *)

module Dense = struct
  (* Tableau layout: [rows] constraint rows, one objective row at index
     [rows].  Columns: structural variables, then slack/surplus, then
     artificial variables, then the RHS column.  We always MAXIMIZE
     internally; a Minimize problem negates the objective. *)
  type tableau = {
    a : float array array; (* (rows+1) x (cols+1) *)
    rows : int;
    cols : int; (* number of variable columns; rhs is column [cols] *)
    basis : int array; (* basic variable of each row *)
  }

  let pivot t ~row ~col =
    let a = t.a in
    let p = a.(row).(col) in
    let arow = a.(row) in
    for j = 0 to t.cols do
      arow.(j) <- arow.(j) /. p
    done;
    for i = 0 to t.rows do
      if i <> row then begin
        let f = a.(i).(col) in
        if f <> 0. then begin
          let ai = a.(i) in
          for j = 0 to t.cols do
            ai.(j) <- ai.(j) -. (f *. arow.(j))
          done
        end
      end
    done;
    t.basis.(row) <- col

  (* One simplex phase: maximize the objective stored in the last row
     (as  z - c.x = 0, i.e. row holds -c).  [allowed j] restricts entering
     columns.  Returns [`Optimal] or [`Unbounded].  Uses Dantzig's rule
     with a switch to Bland's rule after [bland_after] iterations to break
     cycles. *)
  let run_phase ?(max_iters = 50_000) t allowed =
    let obj = t.a.(t.rows) in
    let bland_after = max_iters / 2 in
    let iters = ref 0 in
    let result = ref None in
    while !result = None do
      incr iters;
      if !iters > max_iters then failwith "Dense: iteration limit exceeded";
      let bland = !iters > bland_after in
      (* Entering column: most negative reduced cost (Dantzig), or the
         first negative one (Bland). *)
      let col = ref (-1) in
      let best = ref (-.tol) in
      (try
         for j = 0 to t.cols - 1 do
           if allowed j && obj.(j) < !best then begin
             col := j;
             if bland then raise Exit else best := obj.(j)
           end
         done
       with Exit -> ());
      if !col < 0 then result := Some `Optimal
      else begin
        (* Ratio test; Bland tie-break on the leaving basic variable. *)
        let row = ref (-1) in
        let best_ratio = ref infinity in
        for i = 0 to t.rows - 1 do
          let aij = t.a.(i).(!col) in
          if aij > tol then begin
            let ratio = t.a.(i).(t.cols) /. aij in
            if
              ratio < !best_ratio -. tol
              || (ratio < !best_ratio +. tol
                  && (!row < 0 || t.basis.(i) < t.basis.(!row)))
            then begin
              best_ratio := ratio;
              row := i
            end
          end
        done;
        if !row < 0 then result := Some `Unbounded
        else pivot t ~row:!row ~col:!col
      end
    done;
    match !result with Some r -> r | None -> assert false

  let solve ?(max_iters = 50_000) p =
    let nrows = List.length p.constrs in
    validate p;
    (* Normalize rows to non-negative RHS, count extra columns. *)
    let rows =
      List.map
        (fun c ->
          if c.rhs < 0. then
            { coeffs = List.map (fun (j, v) -> (j, -.v)) c.coeffs;
              rel = (match c.rel with Le -> Ge | Ge -> Le | Eq -> Eq);
              rhs = -.c.rhs }
          else c)
        p.constrs
    in
    let n_slack = List.length (List.filter (fun c -> c.rel <> Eq) rows) in
    let n_art = List.length (List.filter (fun c -> c.rel <> Le) rows) in
    let cols = p.nvars + n_slack + n_art in
    let a = Array.make_matrix (nrows + 1) (cols + 1) 0. in
    let basis = Array.make nrows (-1) in
    let t = { a; rows = nrows; cols; basis } in
    let slack_base = p.nvars in
    let art_base = p.nvars + n_slack in
    let next_slack = ref 0 and next_art = ref 0 in
    List.iteri
      (fun i c ->
        List.iter (fun (j, v) -> a.(i).(j) <- a.(i).(j) +. v) c.coeffs;
        a.(i).(cols) <- c.rhs;
        (match c.rel with
        | Le ->
          let s = slack_base + !next_slack in
          incr next_slack;
          a.(i).(s) <- 1.;
          basis.(i) <- s
        | Ge ->
          let s = slack_base + !next_slack in
          incr next_slack;
          a.(i).(s) <- -1.;
          let r = art_base + !next_art in
          incr next_art;
          a.(i).(r) <- 1.;
          basis.(i) <- r
        | Eq ->
          let r = art_base + !next_art in
          incr next_art;
          a.(i).(r) <- 1.;
          basis.(i) <- r))
      rows;
    (* Phase 1: maximize -(sum of artificials).  The objective row holds
       the negated cost; artificial j has cost -1, so the row entry is 1
       before making it consistent with the basis. *)
    if n_art > 0 then begin
      let obj = a.(nrows) in
      for j = art_base to art_base + n_art - 1 do
        obj.(j) <- 1.
      done;
      (* Make reduced costs of the basic artificials zero. *)
      for i = 0 to nrows - 1 do
        if basis.(i) >= art_base then
          for j = 0 to cols do
            obj.(j) <- obj.(j) -. a.(i).(j)
          done
      done;
      (match run_phase ~max_iters t (fun _ -> true) with
      | `Unbounded -> assert false (* phase-1 objective is bounded by 0 *)
      | `Optimal -> ());
      ()
    end;
    (* With the maximize convention, the objective row's RHS holds the
       current value of the phase-1 objective -(sum of artificials). *)
    let phase1_value = a.(nrows).(cols) in
    if n_art > 0 && phase1_value < -.1e-6 then Infeasible
    else begin
      (* Drive any artificial still in the basis out (degenerate at 0),
         or mark its row as redundant if no pivot exists. *)
      for i = 0 to nrows - 1 do
        if basis.(i) >= art_base then begin
          let col = ref (-1) in
          for j = 0 to art_base - 1 do
            if !col < 0 && abs_float a.(i).(j) > tol then col := j
          done;
          if !col >= 0 then pivot t ~row:i ~col:!col
        end
      done;
      (* Phase 2: install the real objective. *)
      let obj = a.(nrows) in
      Array.fill obj 0 (cols + 1) 0.;
      let sign = match p.sense with Maximize -> 1. | Minimize -> -1. in
      List.iter (fun (j, v) -> obj.(j) <- obj.(j) -. (sign *. v)) p.objective;
      for i = 0 to nrows - 1 do
        let b = basis.(i) in
        if b < art_base && obj.(b) <> 0. then begin
          let f = obj.(b) in
          for j = 0 to cols do
            obj.(j) <- obj.(j) -. (f *. a.(i).(j))
          done
        end
      done;
      let allowed j = j < art_base in
      match run_phase ~max_iters t allowed with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let solution = Array.make p.nvars 0. in
        for i = 0 to nrows - 1 do
          if basis.(i) < p.nvars then solution.(basis.(i)) <- a.(i).(cols)
        done;
        Array.iteri
          (fun j v -> if v < 0. && v > -.1e-7 then solution.(j) <- 0.)
          solution;
        let value = sign *. a.(nrows).(cols) in
        Optimal { value; solution }
    end
end

let check_feasible ?(tol = 1e-6) p x =
  Array.for_all (fun v -> v >= -.tol) x
  && List.for_all
       (fun c ->
         let lhs =
           List.fold_left (fun acc (j, v) -> acc +. (v *. x.(j))) 0. c.coeffs
         in
         match c.rel with
         | Le -> lhs <= c.rhs +. tol
         | Ge -> lhs >= c.rhs -. tol
         | Eq -> abs_float (lhs -. c.rhs) <= tol)
       p.constrs

(* The sparse problem of a row-form one: variables keep their implicit
   [0, infinity) bounds and [add_row] folds singleton rows into them. *)
let of_problem p =
  let module S = Linprog.Simplex.Sparse in
  let b = S.builder ~minimize:(p.sense = Minimize) p.nvars in
  let obj = Array.make p.nvars 0. in
  List.iter (fun (j, c) -> obj.(j) <- obj.(j) +. c) p.objective;
  Array.iteri (S.set_obj b) obj;
  List.iter (fun c -> S.add_row b c.coeffs c.rel c.rhs) p.constrs;
  S.finish b
