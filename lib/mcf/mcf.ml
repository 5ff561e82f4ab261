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

(* ------------------------------------------------------------------ *)
(* Fleischer / Garg–Könemann FPTAS                                      *)
(* ------------------------------------------------------------------ *)

(* One GK run on demands scaled UP by [phi]; since lambda scales
   inversely with demand size, the run's concurrent-flow factor is
   lambda/phi and the returned estimate (completed phases divided by
   log_{1+eps}(1/delta)) lower-bounds it.  Aborts once [max_phases]
   phases complete (returning the estimate so far) so the doubling
   driver can re-scale cheaply. *)
let gk_run g comms ~epsilon ~phi ~max_phases =
  let m = Digraph.edge_count g in
  let delta = (float_of_int m /. (1. -. epsilon)) ** (-1. /. epsilon) in
  let len = Array.init m (fun e -> delta /. Digraph.cap g e) in
  let dsum = ref (delta *. float_of_int m) in
  (* = sum_e c_e * len_e *)
  let by_source = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      let cur = try Hashtbl.find by_source c.Demand.src with Not_found -> [] in
      Hashtbl.replace by_source c.src ((c.dst, c.size *. phi) :: cur))
    comms;
  let sources = Hashtbl.fold (fun s _ acc -> s :: acc) by_source [] in
  let sources = List.sort Int.compare sources in
  let phases = ref 0 in
  let aborted = ref false in
  while !dsum < 1. && not !aborted do
    List.iter
      (fun s ->
        List.iter
          (fun (t, dk) ->
            let rem = ref dk in
            while !rem > 1e-15 && !dsum < 1. do
              (* Shortest path s -> t under the current lengths. *)
              match Paths.shortest_path g ~weights:len ~source:s ~target:t with
              | None ->
                failwith
                  (Printf.sprintf "Mcf: demand %d->%d is not routable" s t)
              | Some path ->
                let bottleneck =
                  List.fold_left
                    (fun acc e -> min acc (Digraph.cap g e))
                    infinity path
                in
                let f = min !rem bottleneck in
                rem := !rem -. f;
                List.iter
                  (fun e ->
                    let c = Digraph.cap g e in
                    let old = len.(e) in
                    len.(e) <- old *. (1. +. (epsilon *. f /. c));
                    dsum := !dsum +. (c *. (len.(e) -. old)))
                  path
            done)
          (Hashtbl.find by_source s))
      sources;
    if !dsum < 1. then begin
      incr phases;
      if !phases >= max_phases then aborted := true
    end
  done;
  let log_ratio = log (1. /. delta) /. log (1. +. epsilon) in
  (float_of_int !phases /. log_ratio, !aborted)

let max_concurrent_flow ?(epsilon = 0.1) g comms =
  if Array.length comms = 0 then invalid_arg "Mcf.max_concurrent_flow: no commodities";
  let comms = Demand.aggregate comms in
  check_routable g comms;
  (* Initial scale estimate from trivial cut bounds: lambda is at most
     min_k min(out-cap(src), in-cap(dst)) / d_k. *)
  let cap_out v =
    let acc = ref 0. in
    Digraph.iter_out g v (fun e -> acc := !acc +. Digraph.cap g e);
    !acc
  and cap_in v =
    let acc = ref 0. in
    Digraph.iter_in g v (fun e -> acc := !acc +. Digraph.cap g e);
    !acc
  in
  let ub =
    Array.fold_left
      (fun acc c ->
        min acc (min (cap_out c.Demand.src) (cap_in c.dst) /. c.size))
      infinity comms
  in
  (* Doubling search from above with a coarse epsilon: find phi with
     lambda/phi in [1, 4), then refine. *)
  let coarse_eps = 0.5 in
  let rec coarse phi attempts =
    if attempts > 60 then phi
    else begin
      let est, aborted = gk_run g comms ~epsilon:coarse_eps ~phi ~max_phases:200 in
      if aborted then coarse (phi *. max 2. est) (attempts + 1)
      else if est < 1. then coarse (phi /. 2.) (attempts + 1)
      else if est >= 4. then coarse (phi *. (est /. 1.5)) (attempts + 1)
      else phi *. est /. 1.5
    end
  in
  let phi0 = coarse ub 0 in
  (* Final accurate run: lambda/phi0 is near 1.5, so the phase count is
     about 1.5 * log_{1+eps}(1/delta).  The phase cap guards against a
     bad coarse estimate; an aborted run still yields a valid (slightly
     low) lower bound since the scaled GK flow is primal feasible. *)
  let delta = (float_of_int (Digraph.edge_count g) /. (1. -. epsilon)) ** (-1. /. epsilon) in
  let log_ratio = log (1. /. delta) /. log (1. +. epsilon) in
  let max_phases = int_of_float (6. *. log_ratio) + 2 in
  let est, aborted = gk_run g comms ~epsilon ~phi:phi0 ~max_phases in
  if aborted then
    Logs.warn (fun k ->
        k "Mcf.max_concurrent_flow: phase cap hit; result is a lower bound");
  est *. phi0

let opt_mlu ?(epsilon = 0.1) ?(lp_var_limit = 3000) g comms =
  let comms = Demand.aggregate comms in
  check_routable g comms;
  match comms with
  | [||] -> 0.
  | [| c |] ->
    (* Single source-target pair: OPT = D / maxflow (§2.1). *)
    let f = Maxflow.max_flow g ~source:c.Demand.src ~target:c.dst in
    c.size /. f.Maxflow.value
  | _ ->
    let m = Digraph.edge_count g in
    let targets =
      List.sort_uniq Int.compare
        (Array.to_list (Array.map (fun c -> c.Demand.dst) comms))
    in
    let nvars = 1 + (List.length targets * m) in
    if nvars <= lp_var_limit then (opt_mlu_lp g comms).value
    else 1. /. max_concurrent_flow ~epsilon g comms
