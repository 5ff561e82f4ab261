open Netgraph
module Simplex = Linprog.Simplex

let check_routable g comms =
  Array.iter
    (fun c ->
      if not (Paths.reachable g ~source:c.Demand.src).(c.dst) then
        failwith
          (Printf.sprintf "Mcf: demand %d->%d is not routable" c.Demand.src
             c.dst))
    comms

(* ------------------------------------------------------------------ *)
(* Exact LP                                                             *)
(* ------------------------------------------------------------------ *)

(* The min-MLU LP in destination-aggregated form, built directly as a
   sparse bounded problem (no dense coefficient lists):
   variables 0 = U, then f_{t,e} = 1 + ti*m + e, all in [0, inf). *)
let build_mlu_lp g comms =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let targets =
    List.sort_uniq Int.compare
      (Array.to_list (Array.map (fun c -> c.Demand.dst) comms))
  in
  let tindex = Hashtbl.create 16 in
  List.iteri (fun i t -> Hashtbl.replace tindex t i) targets;
  let nt = List.length targets in
  let fvar ti e = 1 + (ti * m) + e in
  let supply = Array.make_matrix nt n 0. in
  Array.iter
    (fun c ->
      let ti = Hashtbl.find tindex c.Demand.dst in
      supply.(ti).(c.src) <- supply.(ti).(c.src) +. c.size)
    comms;
  let b = Simplex.Sparse.builder ~minimize:true (1 + (nt * m)) in
  Simplex.Sparse.set_obj b 0 1.;
  (* Flow conservation per (target, node <> target): out - in = supply. *)
  List.iteri
    (fun ti t ->
      for v = 0 to n - 1 do
        if v <> t then begin
          let row = ref [] in
          Digraph.iter_out g v (fun e -> row := (fvar ti e, 1.) :: !row);
          Digraph.iter_in g v (fun e -> row := (fvar ti e, -1.) :: !row);
          Simplex.Sparse.add_row b !row Simplex.Eq supply.(ti).(v)
        end
      done)
    targets;
  (* Capacity: sum_t f_{t,e} - U * c_e <= 0. *)
  for e = 0 to m - 1 do
    let row = ref [ (0, -.Digraph.cap g e) ] in
    for ti = 0 to nt - 1 do
      row := (fvar ti e, 1.) :: !row
    done;
    Simplex.Sparse.add_row b !row Simplex.Le 0.
  done;
  Simplex.Sparse.finish b

type warm_solve = {
  value : float;
  basis : Simplex.Sparse.basis;
  pivots : int;
  warm : bool;
  edge_flows : float array;
}

(* The LP's variable layout is 0 = U, then f_{t,e} = 1 + ti*m + e; the
   per-edge optimal flow is the sum over targets of that edge's
   aggregated flow variables.  Read straight off the simplex solution —
   no extra solve, and deterministic because the target order (and so
   the summation order) is the sorted order [build_mlu_lp] fixed. *)
let edge_flows_of_solution g comms solution =
  let m = Digraph.edge_count g in
  let nt =
    List.length
      (List.sort_uniq Int.compare
         (Array.to_list (Array.map (fun c -> c.Demand.dst) comms)))
  in
  let flows = Array.make m 0. in
  for ti = 0 to nt - 1 do
    for e = 0 to m - 1 do
      flows.(e) <- flows.(e) +. solution.(1 + (ti * m) + e)
    done
  done;
  flows

let opt_mlu_lp ?basis ?probe g comms =
  let comms = Demand.aggregate comms in
  check_routable g comms;
  let p = build_mlu_lp g comms in
  match Simplex.Sparse.solve ?basis ?probe p with
  | Simplex.Sparse.Optimal { value; basis = b; iters; solution } ->
    { value; basis = b; pivots = iters; warm = basis <> None;
      edge_flows = edge_flows_of_solution g comms solution }
  | Simplex.Sparse.Infeasible ->
    failwith "Mcf.opt_mlu_lp: infeasible (unroutable demand?)"
  | Simplex.Sparse.Unbounded -> failwith "Mcf.opt_mlu_lp: unbounded (internal error)"
  | Simplex.Sparse.CycleLimit _ ->
    failwith "Mcf.opt_mlu_lp: simplex iteration limit exceeded"

let opt_mlu g comms =
  let comms = Demand.aggregate comms in
  check_routable g comms;
  match comms with
  | [||] -> 0.
  | [| c |] ->
    (* Single source-target pair: OPT = D / maxflow (§2.1). *)
    let f = Maxflow.max_flow g ~source:c.Demand.src ~target:c.dst in
    c.size /. f.Maxflow.value
  | _ -> (opt_mlu_lp g comms).value
