(* Direct tests of the basis factorization: FTRAN/BTRAN against a dense
   Gaussian-elimination oracle on random sparse bases and on bases of
   the node-arc min-MLU LP (each fed to [factor] in a shuffled column
   order), eta updates against a fresh factorization of the updated
   basis, duplicate-entry accumulation and singularity detection.  All
   instances come from fixed seeds. *)

open Linprog

(* ---- dense oracle ---- *)

let dense_of_cols n cols =
  let a = Array.make_matrix n n 0. in
  Array.iteri
    (fun k (ri, vs) ->
      Array.iteri (fun i r -> a.(r).(k) <- a.(r).(k) +. vs.(i)) ri)
    cols;
  a

let transpose a =
  let n = Array.length a in
  Array.init n (fun i -> Array.init n (fun j -> a.(j).(i)))

(* Solve [a x = b] by Gaussian elimination with partial pivoting;
   [None] when a pivot falls below [1e-9]. *)
let dense_solve a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and x = Array.copy b in
  try
    for k = 0 to n - 1 do
      let p = ref k in
      for i = k + 1 to n - 1 do
        if abs_float a.(i).(k) > abs_float a.(!p).(k) then p := i
      done;
      if abs_float a.(!p).(k) < 1e-9 then raise Exit;
      let t = a.(k) in
      a.(k) <- a.(!p);
      a.(!p) <- t;
      let t = x.(k) in
      x.(k) <- x.(!p);
      x.(!p) <- t;
      for i = k + 1 to n - 1 do
        let f = a.(i).(k) /. a.(k).(k) in
        if f <> 0. then begin
          for j = k to n - 1 do
            a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
          done;
          x.(i) <- x.(i) -. (f *. x.(k))
        end
      done
    done;
    for k = n - 1 downto 0 do
      let s = ref x.(k) in
      for j = k + 1 to n - 1 do
        s := !s -. (a.(k).(j) *. x.(j))
      done;
      x.(k) <- !s /. a.(k).(k)
    done;
    Some x
  with Exit -> None

let norm v = Array.fold_left (fun m x -> Float.max m (abs_float x)) 0. v

let check_close what want got =
  let scale = 1. +. norm want in
  Array.iteri
    (fun i w ->
      if abs_float (w -. got.(i)) > 1e-9 *. scale then
        Alcotest.failf "%s: entry %d is %.17g, dense oracle %.17g" what i
          got.(i) w)
    want

let rand_vec st n = Array.init n (fun _ -> Random.State.float st 2. -. 1.)

(* FTRAN and BTRAN of [f] against the dense oracle on [trials] random
   right-hand sides. *)
let check_solves ?(trials = 3) st what n cols f =
  let a = dense_of_cols n cols in
  let at = transpose a in
  for t = 1 to trials do
    let v = rand_vec st n in
    let out = Array.make n nan in
    Sparse_lu.ftran f (Array.copy v) out;
    (match dense_solve a v with
    | Some w -> check_close (Printf.sprintf "%s ftran %d" what t) w out
    | None -> Alcotest.failf "%s: oracle finds the basis singular" what);
    let g = rand_vec st n in
    let out = Array.make n nan in
    Sparse_lu.btran f (Array.copy g) out;
    match dense_solve at g with
    | Some y -> check_close (Printf.sprintf "%s btran %d" what t) y out
    | None -> Alcotest.failf "%s: oracle finds the basis singular" what
  done

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let factor_exn what n cols =
  match Sparse_lu.factor ~n cols with
  | Some f -> f
  | None -> Alcotest.failf "%s: factor reports a nonsingular basis singular" what

(* ---- random sparse bases ---- *)

(* A scaled random permutation (so the pattern admits a perfect
   matching) plus a few random entries per column. *)
let random_basis st n =
  let perm = shuffle st (Array.init n Fun.id) in
  Array.init n (fun k ->
      let extra = Random.State.int st 4 in
      let ri = Array.init (1 + extra) (fun i ->
          if i = 0 then perm.(k) else Random.State.int st n) in
      let vs = Array.map (fun _ -> float_of_int (Random.State.int st 9 - 4) +. 0.5) ri in
      (ri, vs))

let test_random_bases () =
  let tested = ref 0 in
  for seed = 1 to 150 do
    let st = Random.State.make [| 0x1a; seed |] in
    let n = 1 + Random.State.int st 40 in
    let cols = random_basis st n in
    if dense_solve (dense_of_cols n cols) (Array.make n 1.) <> None then begin
      incr tested;
      for order = 1 to 2 do
        let cols = shuffle st cols in
        let what = Printf.sprintf "seed %d order %d" seed order in
        check_solves st what n cols (factor_exn what n cols)
      done
    end
  done;
  Alcotest.(check bool) "enough nonsingular instances" true (!tested > 100)

(* ---- node-arc bases ---- *)

let lp_col (p : Simplex.Sparse.t) j =
  if j >= p.ncols then ([| j - p.ncols |], [| 1. |])
  else
    let s = p.colp.(j) and e = p.colp.(j + 1) in
    (Array.sub p.rowi s (e - s), Array.sub p.vals s (e - s))

(* Min-MLU LPs on Abilene: all pairs into [ndst] destinations. *)
let abilene_lp ndst =
  let g = Topology.Datasets.abilene () in
  let n = Netgraph.Digraph.node_count g in
  let comms =
    List.concat_map
      (fun t ->
        List.filter_map
          (fun s ->
            if s = t then None
            else Some (Netgraph.Demand.make s t (1. +. float_of_int ((s * 7) + t mod 5))))
          (List.init n Fun.id))
      (List.init ndst (fun i -> (i * 5) mod n))
  in
  let comms = Netgraph.Demand.aggregate (Array.of_list comms) in
  let p = Mcf.build_mlu_lp g comms in
  match Simplex.Sparse.solve p with
  | Simplex.Sparse.Optimal { basis; _ } -> (p, basis.Simplex.Sparse.head)
  | _ -> Alcotest.fail "Abilene min-MLU LP not optimal"

(* One random basis exchange: a random nonbasic column replaces a
   position where its FTRAN image is not small.  Returns the position
   and the image, or [None] if the draw found no stable pivot. *)
let exchange st (p : Simplex.Sparse.t) head f =
  let n = p.nrows in
  let basic = Array.make (p.ncols + n) false in
  Array.iter (fun j -> basic.(j) <- true) head;
  let rec draw () =
    let q = Random.State.int st (p.ncols + n) in
    if basic.(q) then draw () else q
  in
  let q = draw () in
  let ri, vs = lp_col p q in
  let v = Array.make n 0. in
  Array.iteri (fun i r -> v.(r) <- v.(r) +. vs.(i)) ri;
  let w = Array.make n 0. in
  Sparse_lu.ftran f v w;
  let big = norm w in
  let cands = List.filter (fun k -> abs_float w.(k) >= 0.1 *. big)
      (List.init n Fun.id) in
  if big < 1e-6 || cands = [] then None
  else
    let r = List.nth cands (Random.State.int st (List.length cands)) in
    Some (q, r, w)

let test_node_arc_bases () =
  List.iter
    (fun ndst ->
      let p, head = abilene_lp ndst in
      let n = p.nrows in
      let st = Random.State.make [| 0x2b; ndst |] in
      let head = Array.copy head in
      for step = 0 to 12 do
        let what = Printf.sprintf "%d destinations, walk %d" ndst step in
        let cols = Array.map (lp_col p) head in
        check_solves ~trials:1 st what n cols (factor_exn what n cols);
        let shuffled = shuffle st cols in
        check_solves ~trials:2 st (what ^ " shuffled") n shuffled
          (factor_exn what n shuffled);
        (* Walk a few exchanges away before the next check. *)
        for _ = 1 to 5 do
          let f = factor_exn what n (Array.map (lp_col p) head) in
          match exchange st p head f with
          | Some (q, r, _) -> head.(r) <- q
          | None -> ()
        done
      done)
    [ 1; 3; 6 ]

(* ---- eta updates ---- *)

let test_etas_match_refactor () =
  List.iter
    (fun (ndst, k) ->
      let p, head = abilene_lp ndst in
      let n = p.nrows in
      let st = Random.State.make [| 0x3c; ndst; k |] in
      let head = Array.copy head in
      let f = factor_exn "initial" n (Array.map (lp_col p) head) in
      let pushed = ref 0 in
      while !pushed < k do
        match exchange st p head f with
        | Some (q, r, w) ->
          Sparse_lu.push_eta f ~pos:r w;
          head.(r) <- q;
          incr pushed
        | None -> ()
      done;
      Alcotest.(check int) "eta count" k (Sparse_lu.eta_count f);
      let fresh = factor_exn "refactor" n (Array.map (lp_col p) head) in
      for t = 1 to 3 do
        let what = Printf.sprintf "%d destinations, %d etas, rhs %d" ndst k t in
        let v = rand_vec st n in
        let a = Array.make n nan and b = Array.make n nan in
        Sparse_lu.ftran f (Array.copy v) a;
        Sparse_lu.ftran fresh (Array.copy v) b;
        check_close (what ^ " ftran") b a;
        let g = rand_vec st n in
        Sparse_lu.btran f (Array.copy g) a;
        Sparse_lu.btran fresh (Array.copy g) b;
        check_close (what ^ " btran") b a
      done)
    [ (1, 1); (3, 8); (6, 40) ]

(* ---- input handling ---- *)

let test_duplicates_accumulate () =
  (* [[3, 1], [1, 2]] written with split entries in both columns. *)
  let split =
    [| ([| 0; 1; 0 |], [| 1.; 1.; 2. |]); ([| 1; 0; 1; 1 |], [| 1.; 1.; 0.5; 0.5 |]) |]
  in
  let merged = [| ([| 0; 1 |], [| 3.; 1. |]); ([| 0; 1 |], [| 1.; 2. |]) |] in
  let st = Random.State.make [| 0x4d |] in
  check_solves st "split entries" 2 split (factor_exn "split" 2 split);
  let fs = factor_exn "split" 2 split and fm = factor_exn "merged" 2 merged in
  let a = Array.make 2 nan and b = Array.make 2 nan in
  Sparse_lu.ftran fs [| 1.; -2. |] a;
  Sparse_lu.ftran fm [| 1.; -2. |] b;
  check_close "split = merged" b a;
  (* Entries that cancel leave a structurally empty column. *)
  Alcotest.(check bool) "cancelled column is singular" true
    (Sparse_lu.factor ~n:2 [| ([| 0; 1 |], [| 1.; 1. |]); ([| 1; 1 |], [| 2.; -2. |]) |]
    = None)

let test_singular () =
  let singular what n cols =
    Alcotest.(check bool) what true (Sparse_lu.factor ~n cols = None)
  in
  singular "empty column" 2 [| ([| 0 |], [| 1. |]); ([||], [||]) |];
  singular "empty row" 2 [| ([| 0 |], [| 1. |]); ([| 0 |], [| 2. |]) |];
  singular "dependent columns" 2
    [| ([| 0; 1 |], [| 1.; 2. |]); ([| 0; 1 |], [| 2.; 4. |]) |];
  singular "rank 2 of 3" 3
    [|
      ([| 0; 1; 2 |], [| 1.; 2.; 3. |]);
      ([| 0; 2 |], [| 1.; 1. |]);
      ([| 0; 1; 2 |], [| 3.; 4.; 7. |]);
    |];
  singular "tiny singleton pivot" 2 [| ([| 0 |], [| 1e-14 |]); ([| 0; 1 |], [| 1.; 1. |]) |];
  (* Proportional columns and no singleton to peel: the nucleus must
     find it. *)
  singular "singular nucleus" 4
    [|
      ([| 0; 1; 2 |], [| 1.; 1.; 1. |]);
      ([| 1; 2; 3 |], [| 1.; 1.; 1. |]);
      ([| 1; 2; 3 |], [| 2.; 2.; 2. |]);
      ([| 0; 1; 3 |], [| 1.; 1.; 1. |]);
    |];
  Alcotest.(check bool) "0 x 0 factors" true (Sparse_lu.factor ~n:0 [||] <> None)

let () =
  Alcotest.run "sparse_lu"
    [
      ( "solves",
        [
          Alcotest.test_case "random bases = dense oracle" `Quick test_random_bases;
          Alcotest.test_case "node-arc bases = dense oracle" `Quick
            test_node_arc_bases;
          Alcotest.test_case "etas = refactor" `Quick test_etas_match_refactor;
        ] );
      ( "input",
        [
          Alcotest.test_case "duplicates accumulate" `Quick
            test_duplicates_accumulate;
          Alcotest.test_case "singular is None" `Quick test_singular;
        ] );
    ]
