(* Sparse LU factorization of a simplex basis with a product-form eta
   file on top.

   The basis matrix B is given column-by-column (one column per basis
   position).  Factorization picks a pivot sequence (r_k, c_k), k =
   0..n-1, in two passes over the structure of B:

   - Singleton pass.  Column and row singletons of the active submatrix
     are peeled first.  A column singleton has no entries below its
     pivot (an empty L column), a row singleton none to its right (no U
     contribution to later columns), so neither creates fill, and
     neither changes the values of the active submatrix.  With no
     update to grow, a singleton pivot needs no size test beyond the
     absolute tolerance: it only ever divides original entries.
     Network-flow bases are triangular, so node-arc LP bases come out
     of this pass with only a small nucleus left.
   - Markowitz nucleus.  The remaining columns are taken in order of
     increasing active count.  Each one is solved left-looking against
     the L columns computed so far; its pattern is the reach of the
     column in the graph of L (Gilbert–Peierls), so the work is
     proportional to the flops, not to n.  The pivot row is chosen by
     threshold partial pivoting: among rows within [threshold] of the
     largest candidate, the one with the fewest active entries.

   Singleton steps run through the same left-looking solve, with their
   pivot row fixed; their reach is just the column's own pattern.

   In step space, P B Q = L U: step k pivots row [prow.(k)] in basis
   position [qcol.(k)], L is unit lower triangular and U upper
   triangular.  Both are stored by column with original row indices: an
   L entry of step k sits at a row pivoted later, a U entry at the row
   of an earlier step.  FTRAN and BTRAN therefore run entirely in row
   space and map to basis positions only through [qcol].

   Basis changes between refactorizations are represented as eta
   matrices in basis-position space:  replacing position [p] with a
   column whose FTRAN image is [w] multiplies B on the right by
   E = I + (w - e_p) e_p^T,  so B_k = B_0 E_1 ... E_k and

     FTRAN:  B_k^-1 v = E_k^-1 ... E_1^-1 (B_0^-1 v)      (etas forward)
     BTRAN:  B_k^-T g = B_0^-T (E_1^-T ... E_k^-T g)      (etas backward)

   The driver refactorizes after a bounded number of etas, so the eta
   file stays short and numerically tame. *)

type t = {
  n : int;
  qcol : int array; (* step -> basis position *)
  prow : int array; (* step -> pivot row *)
  lstart : int array; (* n + 1: L column of each step, in lrow/lval *)
  lrow : int array; (* rows pivoted at later steps *)
  lval : float array;
  ustart : int array; (* n + 1: U column above the diagonal *)
  urow : int array; (* rows pivoted at earlier steps *)
  uval : float array;
  udiag : float array;
  (* eta file, chronological order; eta e spans eta_start.(e) ..
     eta_start.(e+1) - 1 of eta_idx/eta_val *)
  mutable eta_pos : int array;
  mutable eta_start : int array;
  mutable eta_idx : int array; (* position indices, pivot excluded *)
  mutable eta_val : float array;
  mutable eta_piv : float array;
  mutable neta : int;
}

let eta_count t = t.neta

let nnz t = t.lstart.(t.n) + t.ustart.(t.n) + t.n

let pivot_tol = 1e-11

(* A nucleus pivot must be at least this fraction of the largest
   candidate in its column. *)
let threshold = 0.1

(* [grow a len need] is [a] with room for [need] entries, the first
   [len] kept. *)
let grow a len need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 len;
    b
  end

exception Singular

let factor ~n cols =
  (* B in CSC form, duplicate row entries accumulated, exact
     cancellations dropped. *)
  let cap = Array.fold_left (fun a (ri, _) -> a + Array.length ri) 0 cols in
  let cstart = Array.make (n + 1) 0 in
  let crow = Array.make cap 0 and cval = Array.make cap 0. in
  let x = Array.make n 0. in
  let stamp = Array.make n (-1) in
  let nz = ref 0 in
  for c = 0 to n - 1 do
    let ri, vs = cols.(c) in
    let s = !nz in
    for i = 0 to Array.length ri - 1 do
      let r = ri.(i) in
      if stamp.(r) <> c then begin
        stamp.(r) <- c;
        crow.(!nz) <- r;
        incr nz
      end;
      x.(r) <- x.(r) +. vs.(i)
    done;
    let e = !nz in
    nz := s;
    for p = s to e - 1 do
      let r = crow.(p) in
      let v = x.(r) in
      x.(r) <- 0.;
      if v <> 0. then begin
        crow.(!nz) <- r;
        cval.(!nz) <- v;
        incr nz
      end
    done;
    cstart.(c + 1) <- !nz
  done;
  let bnz = !nz in
  (* Row-wise pattern. *)
  let rowcnt = Array.make n 0 in
  for p = 0 to bnz - 1 do
    rowcnt.(crow.(p)) <- rowcnt.(crow.(p)) + 1
  done;
  let rstart = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    rstart.(r + 1) <- rstart.(r) + rowcnt.(r)
  done;
  let rcol = Array.make (max bnz 1) 0 in
  let fillp = Array.sub rstart 0 n in
  for c = 0 to n - 1 do
    for p = cstart.(c) to cstart.(c + 1) - 1 do
      let r = crow.(p) in
      rcol.(fillp.(r)) <- c;
      fillp.(r) <- fillp.(r) + 1
    done
  done;
  let colcnt = Array.init n (fun c -> cstart.(c + 1) - cstart.(c)) in
  let qcol = Array.make n 0 and prow = Array.make n 0 in
  let pinv = Array.make n (-1) (* row -> step *) in
  let cstep = Array.make n (-1) (* column -> step *) in
  try
    for i = 0 to n - 1 do
      if colcnt.(i) = 0 || rowcnt.(i) = 0 then raise Singular
    done;
    (* Singleton pass.  Counts are of the active submatrix; a count
       reaching zero off a pivot means B is structurally singular. *)
    let nstep = ref 0 in
    let assign r c =
      prow.(!nstep) <- r;
      qcol.(!nstep) <- c;
      pinv.(r) <- !nstep;
      cstep.(c) <- !nstep;
      incr nstep
    in
    let cstack = Array.make n 0 and ncs = ref 0 in
    let rstack = Array.make n 0 and nrs = ref 0 in
    for i = n - 1 downto 0 do
      if colcnt.(i) = 1 then begin
        cstack.(!ncs) <- i;
        incr ncs
      end;
      if rowcnt.(i) = 1 then begin
        rstack.(!nrs) <- i;
        incr nrs
      end
    done;
    while !ncs > 0 || !nrs > 0 do
      if !ncs > 0 then begin
        decr ncs;
        let c = cstack.(!ncs) in
        if cstep.(c) < 0 then begin
          let r = ref (-1) in
          for p = cstart.(c) to cstart.(c + 1) - 1 do
            if pinv.(crow.(p)) < 0 then r := crow.(p)
          done;
          let r = !r in
          assign r c;
          for p = rstart.(r) to rstart.(r + 1) - 1 do
            let c' = rcol.(p) in
            if cstep.(c') < 0 then begin
              colcnt.(c') <- colcnt.(c') - 1;
              if colcnt.(c') = 0 then raise Singular;
              if colcnt.(c') = 1 then begin
                cstack.(!ncs) <- c';
                incr ncs
              end
            end
          done
        end
      end
      else begin
        decr nrs;
        let r = rstack.(!nrs) in
        if pinv.(r) < 0 then begin
          let c = ref (-1) in
          for p = rstart.(r) to rstart.(r + 1) - 1 do
            if cstep.(rcol.(p)) < 0 then c := rcol.(p)
          done;
          let c = !c in
          assign r c;
          for p = cstart.(c) to cstart.(c + 1) - 1 do
            let r' = crow.(p) in
            if pinv.(r') < 0 then begin
              rowcnt.(r') <- rowcnt.(r') - 1;
              if rowcnt.(r') = 0 then raise Singular;
              if rowcnt.(r') = 1 then begin
                rstack.(!nrs) <- r';
                incr nrs
              end
            end
          done
        end
      end
    done;
    let nsingle = !nstep in
    (* Nucleus columns by increasing active count (counting sort, ties
       by position). *)
    let bucket = Array.make (n + 2) 0 in
    for c = 0 to n - 1 do
      if cstep.(c) < 0 then bucket.(colcnt.(c) + 1) <- bucket.(colcnt.(c) + 1) + 1
    done;
    for i = 1 to n + 1 do
      bucket.(i) <- bucket.(i) + bucket.(i - 1)
    done;
    for c = 0 to n - 1 do
      if cstep.(c) < 0 then begin
        let b = colcnt.(c) in
        qcol.(nsingle + bucket.(b)) <- c;
        bucket.(b) <- bucket.(b) + 1
      end
    done;
    (* Numeric phase: left-looking, one step per column. *)
    let lstart = Array.make (n + 1) 0 and ustart = Array.make (n + 1) 0 in
    let lrow = ref (Array.make (bnz + n) 0) and lval = ref (Array.make (bnz + n) 0.) in
    let urow = ref (Array.make (bnz + n) 0) and uval = ref (Array.make (bnz + n) 0.) in
    let udiag = Array.make n 0. in
    let nl = ref 0 and nu = ref 0 in
    let xi = Array.make n 0 (* reach, topological order in xi.(top..n-1) *) in
    let dstack = Array.make n 0 and pstack = Array.make n 0 in
    Array.fill stamp 0 n (-1);
    for k = 0 to n - 1 do
      let c = qcol.(k) in
      (* Rows pivoted at an earlier step carry an L column. *)
      let lcol r =
        let j = pinv.(r) in
        if j >= 0 && j < k then j else -1
      in
      (* Depth-first reach of column c's pattern through L. *)
      let top = ref n in
      for p = cstart.(c) to cstart.(c + 1) - 1 do
        let r0 = crow.(p) in
        if stamp.(r0) <> k then begin
          let head = ref 0 in
          dstack.(0) <- r0;
          while !head >= 0 do
            let r = dstack.(!head) in
            let j = lcol r in
            if stamp.(r) <> k then begin
              stamp.(r) <- k;
              pstack.(!head) <- (if j < 0 then 0 else lstart.(j))
            end;
            let stop = if j < 0 then 0 else lstart.(j + 1) in
            let q = ref pstack.(!head) and descended = ref false in
            while (not !descended) && !q < stop do
              let r' = !lrow.(!q) in
              incr q;
              if stamp.(r') <> k then begin
                pstack.(!head) <- !q;
                incr head;
                dstack.(!head) <- r';
                descended := true
              end
            done;
            if not !descended then begin
              decr head;
              decr top;
              xi.(!top) <- r
            end
          done
        end
      done;
      (* Sparse triangular solve x = L^-1 b over the reach. *)
      for p = cstart.(c) to cstart.(c + 1) - 1 do
        x.(crow.(p)) <- cval.(p)
      done;
      for i = !top to n - 1 do
        let r = xi.(i) in
        let j = lcol r in
        let xr = x.(r) in
        if j >= 0 && xr <> 0. then
          for q = lstart.(j) to lstart.(j + 1) - 1 do
            let r' = !lrow.(q) in
            x.(r') <- x.(r') -. (!lval.(q) *. xr)
          done
      done;
      (* Pivot row: fixed for singletons, else threshold Markowitz. *)
      let piv_row =
        if k < nsingle then prow.(k)
        else begin
          let big = ref 0. in
          for i = !top to n - 1 do
            let r = xi.(i) in
            if pinv.(r) < 0 then big := Float.max !big (abs_float x.(r))
          done;
          let cut = Float.max pivot_tol (threshold *. !big) in
          let best = ref (-1) in
          for i = !top to n - 1 do
            let r = xi.(i) in
            let a = abs_float x.(r) in
            if pinv.(r) < 0 && a >= cut then begin
              let b = !best in
              if
                b < 0
                || rowcnt.(r) < rowcnt.(b)
                || rowcnt.(r) = rowcnt.(b)
                   && (a > abs_float x.(b) || (a = abs_float x.(b) && r < b))
              then best := r
            end
          done;
          !best
        end
      in
      if piv_row < 0 || abs_float x.(piv_row) <= pivot_tol then raise Singular;
      let piv = x.(piv_row) in
      if k >= nsingle then begin
        prow.(k) <- piv_row;
        pinv.(piv_row) <- k;
        for p = cstart.(c) to cstart.(c + 1) - 1 do
          rowcnt.(crow.(p)) <- rowcnt.(crow.(p)) - 1
        done
      end;
      udiag.(k) <- piv;
      let reach = n - !top in
      urow := grow !urow !nu (!nu + reach) 0;
      uval := grow !uval !nu (!nu + reach) 0.;
      lrow := grow !lrow !nl (!nl + reach) 0;
      lval := grow !lval !nl (!nl + reach) 0.;
      let urow = !urow and uval = !uval and lrow = !lrow and lval = !lval in
      for i = !top to n - 1 do
        let r = xi.(i) in
        let v = x.(r) in
        x.(r) <- 0.;
        if v <> 0. && r <> piv_row then
          if lcol r >= 0 then begin
            urow.(!nu) <- r;
            uval.(!nu) <- v;
            incr nu
          end
          else begin
            lrow.(!nl) <- r;
            lval.(!nl) <- v /. piv;
            incr nl
          end
      done;
      lstart.(k + 1) <- !nl;
      ustart.(k + 1) <- !nu
    done;
    Some
      {
        n;
        qcol;
        prow;
        lstart;
        lrow = !lrow;
        lval = !lval;
        ustart;
        urow = !urow;
        uval = !uval;
        udiag;
        eta_pos = Array.make 16 0;
        eta_start = Array.make 17 0;
        eta_idx = Array.make (4 * n + 16) 0;
        eta_val = Array.make (4 * n + 16) 0.;
        eta_piv = Array.make 16 0.;
        neta = 0;
      }
  with Singular -> None

let push_eta t ~pos w =
  let e = t.neta in
  if e = Array.length t.eta_pos then begin
    t.eta_pos <- grow t.eta_pos e (e + 1) 0;
    t.eta_piv <- grow t.eta_piv e (e + 1) 0.;
    t.eta_start <- grow t.eta_start (e + 1) (Array.length t.eta_pos + 1) 0
  end;
  let s = t.eta_start.(e) in
  let cnt = ref 0 in
  for i = 0 to t.n - 1 do
    if i <> pos && abs_float w.(i) > 1e-12 then incr cnt
  done;
  t.eta_idx <- grow t.eta_idx s (s + !cnt) 0;
  t.eta_val <- grow t.eta_val s (s + !cnt) 0.;
  let idx = t.eta_idx and vals = t.eta_val in
  let q = ref s in
  for i = 0 to t.n - 1 do
    if i <> pos && abs_float w.(i) > 1e-12 then begin
      idx.(!q) <- i;
      vals.(!q) <- w.(i);
      incr q
    end
  done;
  t.eta_pos.(e) <- pos;
  t.eta_piv.(e) <- w.(pos);
  t.eta_start.(e + 1) <- !q;
  t.neta <- e + 1

let ftran t v out =
  let n = t.n in
  (* L solve, in place over the row-indexed input. *)
  for k = 0 to n - 1 do
    let xk = v.(t.prow.(k)) in
    if xk <> 0. then
      for q = t.lstart.(k) to t.lstart.(k + 1) - 1 do
        let r = t.lrow.(q) in
        v.(r) <- v.(r) -. (t.lval.(q) *. xk)
      done
  done;
  (* U back substitution, scattered to basis positions. *)
  for k = n - 1 downto 0 do
    let xk = v.(t.prow.(k)) /. t.udiag.(k) in
    out.(t.qcol.(k)) <- xk;
    if xk <> 0. then
      for q = t.ustart.(k) to t.ustart.(k + 1) - 1 do
        let r = t.urow.(q) in
        v.(r) <- v.(r) -. (t.uval.(q) *. xk)
      done
  done;
  (* Eta file, forward. *)
  for e = 0 to t.neta - 1 do
    let p = t.eta_pos.(e) in
    let vp = out.(p) /. t.eta_piv.(e) in
    out.(p) <- vp;
    if vp <> 0. then
      for q = t.eta_start.(e) to t.eta_start.(e + 1) - 1 do
        let i = t.eta_idx.(q) in
        out.(i) <- out.(i) -. (t.eta_val.(q) *. vp)
      done
  done

let btran t g out =
  let n = t.n in
  (* Eta file, backward:  g_p <- (g_p - sum_{i<>p} w_i g_i) / w_p. *)
  for e = t.neta - 1 downto 0 do
    let p = t.eta_pos.(e) in
    let s = ref 0. in
    for q = t.eta_start.(e) to t.eta_start.(e + 1) - 1 do
      s := !s +. (t.eta_val.(q) *. g.(t.eta_idx.(q)))
    done;
    g.(p) <- (g.(p) -. !s) /. t.eta_piv.(e)
  done;
  (* U^T forward solve; step k's result lands at its pivot row, where
     the U entries of later steps look it up. *)
  for k = 0 to n - 1 do
    let s = ref 0. in
    for q = t.ustart.(k) to t.ustart.(k + 1) - 1 do
      s := !s +. (t.uval.(q) *. out.(t.urow.(q)))
    done;
    out.(t.prow.(k)) <- (g.(t.qcol.(k)) -. !s) /. t.udiag.(k)
  done;
  (* L^T back solve; L entries of step k sit at rows of later steps. *)
  for k = n - 1 downto 0 do
    let s = ref 0. in
    for q = t.lstart.(k) to t.lstart.(k + 1) - 1 do
      s := !s +. (t.lval.(q) *. out.(t.lrow.(q)))
    done;
    let r = t.prow.(k) in
    out.(r) <- out.(r) -. !s
  done
