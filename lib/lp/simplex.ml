type probe = {
  enabled : bool;
  start : string -> int;
  finish : int -> unit;
}

let null_probe = { enabled = false; start = (fun _ -> -1); finish = ignore }

type relation = Le | Ge | Eq

(* ------------------------------------------------------------------ *)
(* Sparse revised simplex with bounded variables.

   The problem is held in standard computational form: minimize c.x
   subject to  A x + s = b,  l <= (x, s) <= u,  where each row gets one
   implicit logical (slack) column s_i whose bounds encode the relation
   (Le: [0, inf), Ge: (-inf, 0], Eq: [0, 0]).  A is stored CSC; logical
   columns are unit vectors and never stored.

   The basis is factored with [Sparse_lu] and updated with product-form
   etas; it is refactorized every [refactor_every] pivots.  Pricing is
   partial (cyclic sections) with a cheap Devex-style weight on each
   column; after a run of degenerate pivots it falls back to Bland's
   rule.  Primal infeasibility — from a cold start or from a warm basis
   whose bounds were tightened — is removed by a composite
   (artificial-free) phase 1 that minimizes total bound violation with
   the extended ratio test, so a stale warm basis degrades gracefully
   instead of failing. *)

module Sparse = struct
  type t = {
    ncols : int;
    nrows : int;
    colp : int array; (* ncols + 1 *)
    rowi : int array;
    vals : float array;
    obj : float array; (* length ncols, in the original sense *)
    minimize : bool;
    rhs : float array; (* length nrows *)
    lower : float array; (* length ncols + nrows: structurals then logicals *)
    upper : float array;
  }

  type basis = { head : int array; stat : int array }

  let st_lower = 0
  let st_upper = 1
  let st_basic = 2
  let st_free = 3

  type outcome =
    | Optimal of {
        value : float;
        solution : float array;
        basis : basis;
        iters : int;
      }
    | Infeasible
    | Unbounded
    | CycleLimit of { iters : int }

  (* ---- construction ---- *)

  type row_buf = {
    r_cols : int array;
    r_vals : float array;
    r_rel : relation;
    r_rhs : float;
  }

  type builder = {
    b_ncols : int;
    b_minimize : bool;
    b_obj : float array;
    b_lower : float array;
    b_upper : float array;
    mutable b_rows : row_buf list; (* reversed *)
    mutable b_nrows : int;
    mutable b_nnz : int;
  }

  let builder ~minimize ncols =
    if ncols < 0 then invalid_arg "Simplex.Sparse.builder: negative ncols";
    {
      b_ncols = ncols;
      b_minimize = minimize;
      b_obj = Array.make ncols 0.;
      b_lower = Array.make ncols 0.;
      b_upper = Array.make ncols infinity;
      b_rows = [];
      b_nrows = 0;
      b_nnz = 0;
    }

  let set_obj b j c =
    if j < 0 || j >= b.b_ncols then
      invalid_arg "Simplex.Sparse.set_obj: variable index out of range";
    b.b_obj.(j) <- c

  (* Sort by column and accumulate duplicates so CSC columns come out
     ordered and deterministic. *)
  let normalize_entries ncols coeffs =
    List.iter
      (fun (j, _) ->
        if j < 0 || j >= ncols then
          invalid_arg "Simplex.Sparse.add_row: variable index out of range")
      coeffs;
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) coeffs
    in
    let rec merge = function
      | (j1, v1) :: (j2, v2) :: tl when j1 = j2 -> merge ((j1, v1 +. v2) :: tl)
      | hd :: tl -> hd :: merge tl
      | [] -> []
    in
    List.filter (fun (_, v) -> v <> 0.) (merge sorted)

  type placement = Row of int | Folded of { var : int; coef : float }

  (* A singleton row (one variable after accumulating duplicates)
     becomes a variable bound instead of a row, so e.g. the weight-range
     rows of the MILP formulations stop consuming basis slots. *)
  let place_row b coeffs rel rhs =
    match normalize_entries b.b_ncols coeffs with
    | [ (j, a) ] when abs_float a > 1e-12 ->
      let v = rhs /. a in
      let tighten_lo lo = if lo > b.b_lower.(j) then b.b_lower.(j) <- lo in
      let tighten_hi hi = if hi < b.b_upper.(j) then b.b_upper.(j) <- hi in
      (match (rel, a > 0.) with
      | Le, true | Ge, false -> tighten_hi v
      | Ge, true | Le, false -> tighten_lo v
      | Eq, _ ->
        tighten_lo v;
        tighten_hi v);
      Folded { var = j; coef = a }
    | entries ->
      let r_cols = Array.of_list (List.map fst entries) in
      let r_vals = Array.of_list (List.map snd entries) in
      b.b_rows <- { r_cols; r_vals; r_rel = rel; r_rhs = rhs } :: b.b_rows;
      b.b_nrows <- b.b_nrows + 1;
      b.b_nnz <- b.b_nnz + Array.length r_cols;
      Row (b.b_nrows - 1)

  let add_row b coeffs rel rhs = ignore (place_row b coeffs rel rhs : placement)

  let finish b =
    let ncols = b.b_ncols and nrows = b.b_nrows and nnz = b.b_nnz in
    let rows = Array.of_list (List.rev b.b_rows) in
    let colp = Array.make (ncols + 1) 0 in
    Array.iter
      (fun r -> Array.iter (fun j -> colp.(j + 1) <- colp.(j + 1) + 1) r.r_cols)
      rows;
    for j = 0 to ncols - 1 do
      colp.(j + 1) <- colp.(j + 1) + colp.(j)
    done;
    let cursor = Array.sub colp 0 ncols in
    let rowi = Array.make nnz 0 and vals = Array.make nnz 0. in
    let rhs = Array.make nrows 0. in
    let lower = Array.make (ncols + nrows) 0. in
    let upper = Array.make (ncols + nrows) 0. in
    Array.blit b.b_lower 0 lower 0 ncols;
    Array.blit b.b_upper 0 upper 0 ncols;
    Array.iteri
      (fun i r ->
        rhs.(i) <- r.r_rhs;
        (match r.r_rel with
        | Le ->
          lower.(ncols + i) <- 0.;
          upper.(ncols + i) <- infinity
        | Ge ->
          lower.(ncols + i) <- neg_infinity;
          upper.(ncols + i) <- 0.
        | Eq ->
          lower.(ncols + i) <- 0.;
          upper.(ncols + i) <- 0.);
        Array.iteri
          (fun k j ->
            let c = cursor.(j) in
            rowi.(c) <- i;
            vals.(c) <- r.r_vals.(k);
            cursor.(j) <- c + 1)
          r.r_cols)
      rows;
    {
      ncols;
      nrows;
      colp;
      rowi;
      vals;
      obj = Array.copy b.b_obj;
      minimize = b.b_minimize;
      rhs;
      lower;
      upper;
    }

  (* ---- solver ---- *)

  let ftol = 1e-7 (* primal feasibility tolerance *)
  let dtol = 1e-7 (* dual (reduced-cost) tolerance *)
  let ztol = 1e-10 (* entries below this never pivot *)
  let refactor_every = 64
  let degen_switch = 200 (* degenerate pivots before Bland's rule *)
  let point_tol = 1e-6 (* slack [feasible] allows a caller's point *)

  (* Row i is satisfied when its logical s_i = b_i - a_i.x lies within
     the logical's bounds. *)
  let feasible p x =
    Array.length x = p.ncols
    &&
    let act = Array.make p.nrows 0. in
    for j = 0 to p.ncols - 1 do
      for i = p.colp.(j) to p.colp.(j + 1) - 1 do
        act.(p.rowi.(i)) <- act.(p.rowi.(i)) +. (p.vals.(i) *. x.(j))
      done
    done;
    let within k v =
      v >= p.lower.(k) -. point_tol && v <= p.upper.(k) +. point_tol
    in
    let ok = ref true in
    Array.iteri (fun j v -> if not (within j v) then ok := false) x;
    Array.iteri
      (fun i a ->
        if not (within (p.ncols + i) (p.rhs.(i) -. a)) then ok := false)
      act;
    !ok

  let default_iter_limit p = 20_000 + (50 * (p.ncols + p.nrows))

  let solve_raw ?max_iters ?(bounds = []) ?basis ?(probe = null_probe) p =
    let ncols = p.ncols and nrows = p.nrows in
    let n = ncols + nrows in
    let lower = Array.copy p.lower and upper = Array.copy p.upper in
    List.iter
      (fun (j, lo, hi) ->
        if j < 0 || j >= ncols then
          invalid_arg "Simplex.Sparse.solve: bound override out of range";
        if lo > lower.(j) then lower.(j) <- lo;
        if hi < upper.(j) then upper.(j) <- hi)
      bounds;
    let max_iters =
      match max_iters with Some m -> m | None -> default_iter_limit p
    in
    let crossed = ref false in
    for j = 0 to n - 1 do
      if lower.(j) > upper.(j) +. 1e-9 then crossed := true
    done;
    if !crossed then Infeasible
    else begin
      let cost j =
        if j >= ncols then 0.
        else if p.minimize then p.obj.(j)
        else -.p.obj.(j)
      in
      let head = Array.make (max nrows 1) 0 in
      let stat = Array.make (max n 1) st_lower in
      let pos = Array.make (max n 1) (-1) in
      let default_stat j =
        if lower.(j) > neg_infinity then st_lower
        else if upper.(j) < infinity then st_upper
        else st_free
      in
      let install_slack () =
        for j = 0 to n - 1 do
          stat.(j) <- default_stat j;
          pos.(j) <- -1
        done;
        for k = 0 to nrows - 1 do
          head.(k) <- ncols + k;
          stat.(ncols + k) <- st_basic;
          pos.(ncols + k) <- k
        done
      in
      let warm_ok =
        match basis with
        | Some b when Array.length b.head = nrows && Array.length b.stat = n ->
          let ok = ref true in
          let seen = Array.make (max n 1) false in
          Array.iter
            (fun j ->
              if j < 0 || j >= n || b.stat.(j) <> st_basic || seen.(j) then
                ok := false
              else seen.(j) <- true)
            b.head;
          if !ok then begin
            let nbasic = ref 0 in
            Array.iter (fun s -> if s = st_basic then incr nbasic) b.stat;
            if !nbasic <> nrows then ok := false
          end;
          if !ok then begin
            Array.blit b.head 0 head 0 nrows;
            Array.blit b.stat 0 stat 0 n
          end;
          !ok
        | _ -> false
      in
      if not warm_ok then install_slack ()
      else begin
        (* Re-anchor nonbasic statuses against the (possibly overridden)
           bounds: a status pointing at a bound that no longer exists is
           replaced with the default resting status. *)
        for j = 0 to n - 1 do
          if stat.(j) <> st_basic then begin
            if
              (stat.(j) = st_lower && lower.(j) = neg_infinity)
              || (stat.(j) = st_upper && upper.(j) = infinity)
              || (stat.(j) = st_free
                 && (lower.(j) > neg_infinity || upper.(j) < infinity))
            then stat.(j) <- default_stat j;
            pos.(j) <- -1
          end
        done;
        for k = 0 to nrows - 1 do
          pos.(head.(k)) <- k
        done
      end;
      let build_cols () =
        Array.init nrows (fun k ->
            let j = head.(k) in
            if j >= ncols then ([| j - ncols |], [| 1. |])
            else
              let s = p.colp.(j) and e = p.colp.(j + 1) in
              (Array.sub p.rowi s (e - s), Array.sub p.vals s (e - s)))
      in
      let lu = ref None in
      let factorize () =
        let ftok = if probe.enabled then probe.start "lp:factor" else -1 in
        (match Sparse_lu.factor ~n:nrows (build_cols ()) with
        | Some f -> lu := Some f
        | None ->
          (* A singular (stale) warm basis: fall back to the always
             factorable slack basis; phase 1 restarts from there. *)
          install_slack ();
          lu := Sparse_lu.factor ~n:nrows (build_cols ()));
        if ftok >= 0 then probe.finish ftok;
        match !lu with Some f -> f | None -> assert false
      in
      let xb = Array.make (max nrows 1) 0. in
      let vwork = Array.make (max nrows 1) 0. in
      let nb_val j =
        match stat.(j) with
        | 0 -> lower.(j)
        | 1 -> upper.(j)
        | _ -> 0.
      in
      let compute_xb f =
        Array.blit p.rhs 0 vwork 0 nrows;
        for j = 0 to ncols - 1 do
          if stat.(j) <> st_basic then begin
            let v = nb_val j in
            if v <> 0. then
              for i = p.colp.(j) to p.colp.(j + 1) - 1 do
                vwork.(p.rowi.(i)) <- vwork.(p.rowi.(i)) -. (p.vals.(i) *. v)
              done
          end
        done;
        for k = 0 to nrows - 1 do
          let j = ncols + k in
          if stat.(j) <> st_basic then begin
            let v = nb_val j in
            if v <> 0. then vwork.(k) <- vwork.(k) -. v
          end
        done;
        Sparse_lu.ftran f vwork xb
      in
      let mark = Array.make (max nrows 1) 0. in
      let gwork = Array.make (max nrows 1) 0. in
      let y = Array.make (max nrows 1) 0. in
      let aq = Array.make (max nrows 1) 0. in
      let w = Array.make (max nrows 1) 0. in
      let devex = Array.make (max n 1) 1. in
      let skip = Array.make (max n 1) false in
      let col_dot j =
        if j >= ncols then y.(j - ncols)
        else begin
          let s = ref 0. in
          for i = p.colp.(j) to p.colp.(j + 1) - 1 do
            s := !s +. (p.vals.(i) *. y.(p.rowi.(i)))
          done;
          !s
        end
      in
      let f0 = factorize () in
      compute_xb f0;
      let iters = ref 0 in
      let degen = ref 0 in
      let was_phase1 = ref true in
      let sect = ref 0 in
      let sect_size = max 64 (n / 8) in
      let result = ref None in
      while !result = None do
        incr iters;
        if !iters > max_iters then
          result := Some (CycleLimit { iters = max_iters })
        else begin
          let f =
            match !lu with
            | Some f when Sparse_lu.eta_count f < refactor_every -> f
            | _ ->
              let f = factorize () in
              compute_xb f;
              f
          in
          (* Classify basic feasibility; [mark] drives both the phase-1
             gradient and the extended ratio test. *)
          let infeas = ref 0. in
          for k = 0 to nrows - 1 do
            let j = head.(k) in
            if xb.(k) < lower.(j) -. ftol then begin
              mark.(k) <- -1.;
              infeas := !infeas +. (lower.(j) -. xb.(k))
            end
            else if xb.(k) > upper.(j) +. ftol then begin
              mark.(k) <- 1.;
              infeas := !infeas +. (xb.(k) -. upper.(j))
            end
            else mark.(k) <- 0.
          done;
          let phase1 = !infeas > ftol in
          if phase1 <> !was_phase1 then begin
            Array.fill skip 0 n false;
            was_phase1 := phase1
          end;
          if phase1 then Array.blit mark 0 gwork 0 nrows
          else
            for k = 0 to nrows - 1 do
              gwork.(k) <- cost head.(k)
            done;
          Sparse_lu.btran f gwork y;
          (* Pricing: partial (cyclic sections) with Devex-style weights,
             full-scan Bland after a degenerate streak. *)
          let bland = !degen > degen_switch in
          let q = ref (-1) and dq = ref 0. and best_score = ref 0. in
          let consider j =
            if
              stat.(j) <> st_basic
              && (not skip.(j))
              && lower.(j) < upper.(j) -. 1e-12
            then begin
              let cj = if phase1 then 0. else cost j in
              let dj = cj -. col_dot j in
              let elig =
                match stat.(j) with
                | 0 -> dj < -.dtol
                | 1 -> dj > dtol
                | 3 -> abs_float dj > dtol
                | _ -> false
              in
              if elig then
                if bland then begin
                  if !q < 0 then begin
                    q := j;
                    dq := dj
                  end
                end
                else begin
                  let score = dj *. dj /. devex.(j) in
                  if score > !best_score then begin
                    best_score := score;
                    q := j;
                    dq := dj
                  end
                end
            end
          in
          if bland then begin
            let j = ref 0 in
            while !q < 0 && !j < n do
              consider !j;
              incr j
            done
          end
          else begin
            let scanned = ref 0 in
            let scanning = ref true in
            while !scanning && !scanned < n do
              consider ((!sect + !scanned) mod n);
              incr scanned;
              if !scanned mod sect_size = 0 && !q >= 0 then scanning := false
            done;
            sect := (!sect + !scanned) mod n
          end;
          if !q < 0 then begin
            if phase1 then result := Some Infeasible
            else begin
              let solution = Array.make ncols 0. in
              for j = 0 to ncols - 1 do
                let v = if stat.(j) = st_basic then xb.(pos.(j)) else nb_val j in
                let v =
                  if v < lower.(j) && v > lower.(j) -. 1e-6 then lower.(j)
                  else if v > upper.(j) && v < upper.(j) +. 1e-6 then upper.(j)
                  else v
                in
                solution.(j) <- v
              done;
              let value = ref 0. in
              for j = 0 to ncols - 1 do
                value := !value +. (p.obj.(j) *. solution.(j))
              done;
              result :=
                Some
                  (Optimal
                     {
                       value = !value;
                       solution;
                       basis =
                         {
                           head = Array.sub head 0 nrows;
                           stat = Array.sub stat 0 n;
                         };
                       iters = !iters;
                     })
            end
          end
          else begin
            let q = !q in
            let dir =
              match stat.(q) with
              | 1 -> -1.
              | 3 -> if !dq > 0. then -1. else 1.
              | _ -> 1.
            in
            Array.fill aq 0 nrows 0.;
            if q >= ncols then aq.(q - ncols) <- 1.
            else
              for i = p.colp.(q) to p.colp.(q + 1) - 1 do
                aq.(p.rowi.(i)) <- aq.(p.rowi.(i)) +. p.vals.(i)
              done;
            Sparse_lu.ftran f aq w;
            (* Extended ratio test.  Feasible basics block at either
               bound; in phase 1, an infeasible basic blocks only where
               it reaches the violated bound (the gradient flips there),
               and blocks nowhere when the step pushes it further out. *)
            let span = upper.(q) -. lower.(q) in
            let tbest = ref span and block = ref (-1) and block_up = ref false in
            for k = 0 to nrows - 1 do
              let a = w.(k) in
              if abs_float a > ztol then begin
                let delta = -.dir *. a in
                let j = head.(k) in
                let cand bnd up =
                  let t = (bnd -. xb.(k)) /. delta in
                  let t = if t < 0. then 0. else t in
                  if t < !tbest -. 1e-9 then begin
                    tbest := t;
                    block := k;
                    block_up := up
                  end
                  else if t <= !tbest +. 1e-9 && !block >= 0 then begin
                    let prefer =
                      if bland then j < head.(!block)
                      else abs_float a > abs_float w.(!block)
                    in
                    if prefer then begin
                      if t < !tbest then tbest := t;
                      block := k;
                      block_up := up
                    end
                  end
                in
                if phase1 && mark.(k) <> 0. then begin
                  if mark.(k) < 0. then begin
                    if delta > ztol then cand lower.(j) false
                  end
                  else if delta < -.ztol then cand upper.(j) true
                end
                else if delta < -.ztol && lower.(j) > neg_infinity then
                  cand lower.(j) false
                else if delta > ztol && upper.(j) < infinity then
                  cand upper.(j) true
              end
            done;
            if !tbest = infinity then begin
              if phase1 then
                (* Mathematically impossible (infeasibility is bounded
                   below); numerically conceivable — drop the column. *)
                skip.(q) <- true
              else result := Some Unbounded
            end
            else if !block < 0 then begin
              (* Entering variable reaches its opposite bound first:
                 a bound flip, no basis change. *)
              let t = !tbest in
              if t > 0. then
                for k = 0 to nrows - 1 do
                  if abs_float w.(k) > ztol then
                    xb.(k) <- xb.(k) -. (dir *. w.(k) *. t)
                done;
              stat.(q) <- (if stat.(q) = st_lower then st_upper else st_lower);
              if t <= 1e-10 then incr degen
              else begin
                degen := 0;
                Array.fill skip 0 n false
              end
            end
            else begin
              let r = !block in
              let piv = w.(r) in
              if abs_float piv < 1e-7 then begin
                (* Unstable pivot: refresh the factorization and retry,
                   or drop the column when the factors are fresh. *)
                if Sparse_lu.eta_count f > 0 then begin
                  let f' = factorize () in
                  compute_xb f'
                end
                else skip.(q) <- true
              end
              else begin
                let t = !tbest in
                let xq = nb_val q +. (dir *. t) in
                if t > 0. then
                  for k = 0 to nrows - 1 do
                    if abs_float w.(k) > ztol then
                      xb.(k) <- xb.(k) -. (dir *. w.(k) *. t)
                  done;
                let jl = head.(r) in
                stat.(jl) <- (if !block_up then st_upper else st_lower);
                pos.(jl) <- -1;
                head.(r) <- q;
                stat.(q) <- st_basic;
                pos.(q) <- r;
                xb.(r) <- xq;
                devex.(jl) <- Float.max 1. (devex.(q) /. (piv *. piv));
                Sparse_lu.push_eta f ~pos:r w;
                if t <= 1e-10 then incr degen
                else begin
                  degen := 0;
                  Array.fill skip 0 n false
                end
              end
            end
          end
        end
      done;
      match !result with Some r -> r | None -> assert false
    end

  let solve ?max_iters ?bounds ?basis ?probe p =
    match probe with
    | Some pr when pr.enabled ->
      let tok = pr.start "lp:solve" in
      let r = solve_raw ?max_iters ?bounds ?basis ~probe:pr p in
      pr.finish tok;
      r
    | _ -> solve_raw ?max_iters ?bounds ?basis p
end

