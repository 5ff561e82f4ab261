open Netgraph
module Simplex = Linprog.Simplex
module Sparse = Simplex.Sparse

(* ------------------------------------------------------------------ *)
(* Destinations and routability                                         *)
(* ------------------------------------------------------------------ *)

(* The sorted distinct destinations of [comms] and the map from node to
   destination index (-1 for a node no commodity ends at). *)
let destinations g comms =
  let tindex = Array.make (Digraph.node_count g) (-1) in
  Array.iter (fun c -> tindex.(c.Demand.dst) <- 0) comms;
  let targets = ref [] and nt = ref 0 in
  Array.iteri
    (fun v i ->
      if i >= 0 then begin
        tindex.(v) <- !nt;
        targets := v :: !targets;
        incr nt
      end)
    tindex;
  (Array.of_list (List.rev !targets), tindex)

(* Per destination, the nodes that can reach it: one BFS over incoming
   edges each. *)
let reach_sets g targets =
  let n = Digraph.node_count g in
  let queue = Array.make n 0 in
  Array.map
    (fun t ->
      let seen = Bytes.make n '\000' in
      Bytes.set seen t '\001';
      queue.(0) <- t;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        Digraph.iter_in g v (fun e ->
            let u = Digraph.src g e in
            if Bytes.get seen u = '\000' then begin
              Bytes.set seen u '\001';
              queue.(!tail) <- u;
              incr tail
            end)
      done;
      seen)
    targets

(* Raises for the first commodity, in array order, whose source cannot
   reach its destination. *)
let check_reach reach tindex comms =
  Array.iter
    (fun c ->
      if Bytes.get reach.(tindex.(c.Demand.dst)) c.src = '\000' then
        failwith
          (Printf.sprintf "Mcf: demand %d->%d is not routable" c.Demand.src
             c.dst))
    comms

let check_routable g comms =
  let targets, tindex = destinations g comms in
  check_reach (reach_sets g targets) tindex comms

(* ------------------------------------------------------------------ *)
(* Exact LP                                                             *)
(* ------------------------------------------------------------------ *)

(* Supply of every (destination index, node), flat, summed in [comms]
   order. *)
let fill_supply supply n tindex comms =
  Array.fill supply 0 (Array.length supply) 0.;
  Array.iter
    (fun c ->
      let k = (tindex.(c.Demand.dst) * n) + c.src in
      supply.(k) <- supply.(k) +. c.size)
    comms

(* The min-MLU LP in destination-aggregated form, built directly as a
   sparse bounded problem (no dense coefficient lists):
   variables 0 = U, then f_{t,e} = 1 + ti*m + e, all in [0, inf).
   Also returns where each conservation row landed, indexed like the
   supply: a row index, or -1 with the fold listed in [folds]; and the
   row index of each edge's capacity row (-1 where it folded). *)
let build g (targets, tindex) comms =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let nt = Array.length targets in
  let fvar ti e = 1 + (ti * m) + e in
  let supply = Array.make (nt * n) 0. in
  fill_supply supply n tindex comms;
  let b = Sparse.builder ~minimize:true (1 + (nt * m)) in
  Sparse.set_obj b 0 1.;
  let rows = Array.make (nt * n) (-1) and folds = ref [] in
  (* Flow conservation per (target, node <> target): out - in = supply. *)
  Array.iteri
    (fun ti t ->
      for v = 0 to n - 1 do
        if v <> t then begin
          let row = ref [] in
          Digraph.iter_out g v (fun e -> row := (fvar ti e, 1.) :: !row);
          Digraph.iter_in g v (fun e -> row := (fvar ti e, -1.) :: !row);
          let k = (ti * n) + v in
          match Sparse.place_row b !row Simplex.Eq supply.(k) with
          | Sparse.Row i -> rows.(k) <- i
          | Sparse.Folded { var; coef } -> folds := (k, var, coef) :: !folds
        end
      done)
    targets;
  (* Capacity: sum_t f_{t,e} - U * c_e <= 0. *)
  let caprows =
    Array.init m (fun e ->
        let row = ref [ (0, -.Digraph.cap g e) ] in
        for ti = 0 to nt - 1 do
          row := (fvar ti e, 1.) :: !row
        done;
        match Sparse.place_row b !row Simplex.Le 0. with
        | Sparse.Row i -> i
        | Sparse.Folded _ -> -1)
  in
  (Sparse.finish b, supply, rows, Array.of_list (List.rev !folds), caprows)

let build_mlu_lp g comms =
  let p, _, _, _, _ = build g (destinations g comms) comms in
  p

type warm_solve = {
  value : float;
  pivots : int;
  warm : bool;
  rebuilt : bool;
  edge_flows : float array;
}

(* One LP per destination set, kept with its last optimal basis, plus
   what it takes to rewrite the supplies of a new matrix in place. *)
type lp = {
  targets : int array;
  tindex : int array;
  nt : int;
  reach : Bytes.t array;
  supply : float array;  (* (ti * n + v), rewritten per solve *)
  rows : int array;  (* conservation row of each supply entry, or -1 *)
  folds : (int * int * float) array;  (* (supply entry, variable, coef) *)
  caprows : int array;  (* capacity row of each edge, or -1 *)
  seen : bool array;  (* per destination, for the key check *)
  p : Sparse.t;  (* its rhs and folded bounds are rewritten *)
  mutable basis : Sparse.basis option;
}

type session = { g : Digraph.t; mutable lp : lp option }

let session g = { g; lp = None }

let fresh g comms =
  let ((targets, tindex) as dests) = destinations g comms in
  let p, supply, rows, folds, caprows = build g dests comms in
  let nt = Array.length targets in
  {
    targets;
    tindex;
    nt;
    reach = reach_sets g targets;
    supply;
    rows;
    folds;
    caprows;
    seen = Array.make nt false;
    p;
    basis = None;
  }

(* The crash basis of a freshly built LP ({!crash_basis} in the
   interface says why it is nonsingular and primal feasible).  Settled
   order drives both passes: a node's tree arc leads to a node settled
   before it, and subtree flows are summed in reverse.  A folded row has
   no row index, so its fixed variable stays nonbasic. *)
let crash g lp =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let p = lp.p in
  let head = Array.init p.Sparse.nrows (fun i -> p.Sparse.ncols + i) in
  let weights = Array.init m (fun e -> 1. /. Digraph.cap g e) in
  let scratch = Paths.Scratch.create () in
  let dist = Array.make n infinity and rank = Array.make n 0 in
  let flow = Array.make n 0. and load = Array.make m 0. in
  let parent = Array.make n (-1) in
  Array.iteri
    (fun ti t ->
      Paths.dijkstra_to_into scratch g ~weights ~target:t ~dist;
      let order = Paths.Scratch.settled scratch in
      let count = Paths.Scratch.settled_count scratch in
      for r = 0 to count - 1 do
        rank.(order.(r)) <- r
      done;
      for r = 1 to count - 1 do
        let v = order.(r) in
        let best = ref infinity in
        Digraph.iter_out g v (fun e ->
            let w = Digraph.dst g e in
            let d = weights.(e) +. dist.(w) in
            if dist.(w) < infinity && rank.(w) < r && d < !best then begin
              best := d;
              parent.(v) <- e
            end);
        flow.(v) <- lp.supply.((ti * n) + v)
      done;
      for r = count - 1 downto 1 do
        let v = order.(r) in
        let e = parent.(v) in
        let u = Digraph.dst g e in
        if u <> t then flow.(u) <- flow.(u) +. flow.(v);
        load.(e) <- load.(e) +. flow.(v);
        let i = lp.rows.((ti * n) + v) in
        if i >= 0 then head.(i) <- 1 + (ti * m) + e
      done)
    lp.targets;
  let top = ref (-1) and peak = ref neg_infinity in
  Array.iteri
    (fun e i ->
      let u = load.(e) /. Digraph.cap g e in
      if i >= 0 && u > !peak then begin
        top := e;
        peak := u
      end)
    lp.caprows;
  if !top >= 0 then head.(lp.caprows.(!top)) <- 0;
  Sparse.basis_of_head p head

let crash_basis g comms = crash g (fresh g (Demand.aggregate comms))

(* Do the commodities end at exactly the LP's destinations? *)
let same_destinations lp comms =
  Array.fill lp.seen 0 lp.nt false;
  let distinct = ref 0 in
  Array.for_all
    (fun c ->
      let ti = lp.tindex.(c.Demand.dst) in
      ti >= 0
      && begin
           if not lp.seen.(ti) then begin
             lp.seen.(ti) <- true;
             incr distinct
           end;
           true
         end)
    comms
  && !distinct = lp.nt

(* The supplies of a new matrix under the same destinations, written
   into the kept problem: row right-hand sides, and the bounds of
   variables whose row [add_row] folded (each fold an equality,
   tightened from [0, inf) as the builder does).  The basis matrix
   depends on neither, so the kept basis stays a valid warm start. *)
let rewrite g lp comms =
  let n = Digraph.node_count g in
  fill_supply lp.supply n lp.tindex comms;
  let { Sparse.rhs; lower; upper; _ } = lp.p in
  Array.iteri (fun k i -> if i >= 0 then rhs.(i) <- lp.supply.(k)) lp.rows;
  Array.iter
    (fun (_, j, _) ->
      lower.(j) <- 0.;
      upper.(j) <- infinity)
    lp.folds;
  Array.iter
    (fun (k, j, coef) ->
      let v = lp.supply.(k) /. coef in
      if v > lower.(j) then lower.(j) <- v;
      if v < upper.(j) then upper.(j) <- v)
    lp.folds

(* The per-edge optimal flow: the sum over destinations, in index order,
   of that edge's aggregated flow variables. *)
let edge_flows_of_solution m nt solution =
  let flows = Array.make m 0. in
  for ti = 0 to nt - 1 do
    for e = 0 to m - 1 do
      flows.(e) <- flows.(e) +. solution.(1 + (ti * m) + e)
    done
  done;
  flows

let solve ?probe s comms =
  let comms = Demand.aggregate comms in
  let lp, rebuilt =
    match s.lp with
    | Some lp when same_destinations lp comms -> (lp, false)
    | _ ->
      let lp = fresh s.g comms in
      s.lp <- Some lp;
      (lp, true)
  in
  check_reach lp.reach lp.tindex comms;
  if not rebuilt then rewrite s.g lp comms;
  let warm = lp.basis <> None in
  let basis = match lp.basis with Some b -> b | None -> crash s.g lp in
  match Sparse.solve ~basis ?probe lp.p with
  | Sparse.Optimal { value; iters; solution; basis } ->
    lp.basis <- Some basis;
    { value; pivots = iters; warm; rebuilt;
      edge_flows =
        edge_flows_of_solution (Digraph.edge_count s.g) lp.nt solution }
  | Sparse.Infeasible ->
    failwith "Mcf.opt_mlu_lp: infeasible (unroutable demand?)"
  | Sparse.Unbounded -> failwith "Mcf.opt_mlu_lp: unbounded (internal error)"
  | Sparse.CycleLimit _ ->
    failwith "Mcf.opt_mlu_lp: simplex iteration limit exceeded"

let opt_mlu_lp ?probe g comms = solve ?probe (session g) comms

let opt_mlu g comms =
  let comms = Demand.aggregate comms in
  match comms with
  | [||] -> 0.
  | [| c |] ->
    check_routable g comms;
    (* Single source-target pair: OPT = D / maxflow (§2.1). *)
    let f = Maxflow.max_flow g ~source:c.Demand.src ~target:c.dst in
    c.size /. f.Maxflow.value
  | _ -> (opt_mlu_lp g comms).value
