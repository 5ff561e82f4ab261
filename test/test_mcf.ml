(* Tests for the multi-commodity flow substrate (OPT). *)

open Netgraph

let checkf6 = Alcotest.(check (float 1e-6))

let parallel_links () =
  Digraph.of_edges ~n:2 [ (0, 1, 1.); (0, 1, 3.) ]

(* The LP's commodities are [Demand.t] records; their constructor
   rejects self pairs and non-positive sizes before any LP is built. *)
let test_commodity_validation () =
  Alcotest.check_raises "self" (Invalid_argument "Demand.make: src = dst")
    (fun () -> ignore (Demand.make 0 0 1.));
  Alcotest.check_raises "size" (Invalid_argument "Demand.make: size must be positive")
    (fun () -> ignore (Demand.make 0 1 0.))

let test_aggregate () =
  let a = Demand.aggregate [| Demand.make 0 1 1.; Demand.make 0 1 2. |] in
  Alcotest.(check int) "merged" 1 (Array.length a);
  checkf6 "sum" 3. a.(0).Demand.size

let test_aggregate_order_independent () =
  (* The aggregated pair set (and hence the LP column order built from
     it) must not depend on the input permutation. *)
  let base =
    [| Demand.make 3 1 0.5; Demand.make 0 2 1.; Demand.make 3 1 0.25;
       Demand.make 0 1 2.; Demand.make 2 0 1.5; Demand.make 0 2 0.5 |]
  in
  let expect = Demand.aggregate base in
  let st = Random.State.make [| 0xa6 |] in
  for _ = 1 to 20 do
    let shuffled = Array.copy base in
    for i = Array.length shuffled - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = shuffled.(i) in
      shuffled.(i) <- shuffled.(j);
      shuffled.(j) <- t
    done;
    let a = Demand.aggregate shuffled in
    Alcotest.(check int) "same pair count" (Array.length expect) (Array.length a);
    Array.iteri
      (fun i c ->
        Alcotest.(check int) "src" expect.(i).Demand.src c.Demand.src;
        Alcotest.(check int) "dst" expect.(i).Demand.dst c.Demand.dst;
        checkf6 "demand" expect.(i).Demand.size c.Demand.size)
      a
  done;
  (* Sorted by (src, dst) under integer comparison. *)
  Array.iteri
    (fun i c ->
      if i > 0 then
        Alcotest.(check bool) "strictly ascending pairs" true
          (expect.(i - 1).Demand.src < c.Demand.src
          || (expect.(i - 1).Demand.src = c.Demand.src && expect.(i - 1).Demand.dst < c.Demand.dst)))
    expect

let test_lp_parallel () =
  (* Demand 2 over caps {1,3}: optimum spreads proportionally, U = 1/2. *)
  let g = parallel_links () in
  let u = (Mcf.opt_mlu_lp g [| Demand.make 0 1 2. |]).Mcf.value in
  checkf6 "U" 0.5 u

(* No demands: OPT is 0 through the dispatcher and through the LP. *)
let test_no_demands () =
  let g = parallel_links () in
  Alcotest.(check (float 0.)) "opt_mlu" 0. (Mcf.opt_mlu g [||]);
  Alcotest.(check (float 0.)) "opt_mlu_lp" 0. (Mcf.opt_mlu_lp g [||]).Mcf.value

let test_lp_two_commodities () =
  (* Shared bottleneck: 0->1 cap 2, 1->2 cap 2, demands 0->2 of 1 and
     1->2 of 1 -> U on (1,2) is 1. *)
  let g = Digraph.of_edges ~n:3 [ (0, 1, 2.); (1, 2, 2.) ] in
  let comms = [| Demand.make 0 2 1.; Demand.make 1 2 1. |] in
  let u = (Mcf.opt_mlu_lp g comms).Mcf.value in
  checkf6 "U" 1. u

let test_lp_uses_both_paths () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 1.); (1, 3, 1.); (0, 2, 1.); (2, 3, 1.) ] in
  let u = (Mcf.opt_mlu_lp g [| Demand.make 0 3 2. |]).Mcf.value in
  checkf6 "split perfectly" 1. u

let test_single_pair_uses_maxflow () =
  let g = parallel_links () in
  let u = Mcf.opt_mlu g [| Demand.make 0 1 2. |] in
  checkf6 "D/maxflow" 0.5 u

let test_unroutable_reported () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  (match Mcf.opt_mlu g [| Demand.make 0 2 1. |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure")

(* The single-pair max-flow branch of [opt_mlu] against the LP on the
   single source-target gap instances. *)
let test_dispatch_consistency () =
  List.iter
    (fun (label, inst) ->
      let net = inst.Instances.Gap_instances.network in
      let g = net.Te.Network.graph and demands = net.Te.Network.demands in
      Alcotest.(check int) (label ^ ": one pair") 1
        (Array.length (Demand.aggregate demands));
      Alcotest.(check (float 1e-9)) (label ^ ": max flow = LP")
        (Mcf.opt_mlu_lp g demands).Mcf.value (Mcf.opt_mlu g demands))
    [ ("instance2 m=7", Instances.Gap_instances.instance2 ~m:7);
      ("instance3 m=6", Instances.Gap_instances.instance3 ~m:6) ]

let test_opt_on_instance2 () =
  (* OPT(instance 2) = 1: the harmonic demands exactly fill the
     harmonic parallel paths. *)
  let inst = Instances.Gap_instances.instance2 ~m:7 in
  let net = inst.Instances.Gap_instances.network in
  checkf6 "OPT = 1" 1. (Mcf.opt_mlu net.Te.Network.graph net.Te.Network.demands)

let test_transportation_lp () =
  (* A classic 2x2 transportation problem solved through the min-MLU
     LP on a bipartite graph with a super source and sink of generous
     capacity; the bottleneck is the 1-capacity middle links. *)
  let g =
    Digraph.of_edges ~n:6
      [ (0, 1, 100.); (0, 2, 100.); (1, 3, 1.); (1, 4, 1.); (2, 3, 1.);
        (2, 4, 1.); (3, 5, 100.); (4, 5, 100.) ]
  in
  let u = (Mcf.opt_mlu_lp g [| Demand.make 0 5 4. |]).Mcf.value in
  checkf6 "four units over four unit links" 1. u

(* Property: LP OPT is never larger than the MLU of any concrete routing
   (here: ECMP under unit weights computed through the Te library). *)
let prop_opt_lower_bounds_ecmp =
  QCheck.Test.make ~name:"OPT <= ECMP MLU" ~count:60
    (QCheck.make
       QCheck.Gen.(
         int_range 4 8 >>= fun n ->
         int_range 2 6 >>= fun k ->
         return (n, k))
       ~print:(fun (n, k) -> Printf.sprintf "n=%d k=%d" n k))
    (fun (n, k) ->
      let edges = ref [] in
      for i = 0 to n - 2 do
        edges := (i, i + 1, 2.) :: (i + 1, i, 2.) :: !edges
      done;
      edges := (0, n - 1, 1.) :: !edges;
      let g = Digraph.of_edges ~n !edges in
      let st = Random.State.make [| n; k |] in
      let comms =
        Array.init k (fun _ ->
            let s = Random.State.int st n in
            let t = (s + 1 + Random.State.int st (n - 1)) mod n in
            Demand.make s t (0.5 +. Random.State.float st 1.))
      in
      let opt = (Mcf.opt_mlu_lp g comms).Mcf.value in
      let ecmp = Te.Ecmp.mlu_of g (Te.Weights.unit g) comms in
      opt <= ecmp +. 1e-6)

(* Warm re-solves over a drifting demand sequence: the serving loop's
   contract.  Each step perturbs only the demand sizes (same pair set,
   so the session keeps its LP and basis); the warm solve must reach the
   same objective as a cold solve to 1e-6, and — the point of a session
   at all — spend strictly fewer simplex pivots in total than the
   readout it replaced, a slack-basis solve of the rebuilt LP.  (At this
   much drift crash-started cold solves beat the kept basis on Abilene:
   212 pivots over the 20 steps against 445.) *)
let test_warm_basis_drift () =
  let g = Topology.Datasets.abilene () in
  let demands =
    Te.Demand_gen.mcf_synthetic ~seed:7 ~flows_per_pair:2 g
  in
  let base = Demand.aggregate demands in
  let drift step =
    (* smooth per-pair factors in [0.55, 1.45], different every step *)
    Array.mapi
      (fun i c ->
        let f =
          1. +. (0.45 *. sin (float_of_int ((step * 37) + (i * 13)) /. 7.))
        in
        Demand.make c.Demand.src c.Demand.dst (c.Demand.size *. f))
      base
  in
  let warm_pivots = ref 0 and cold_pivots = ref 0 in
  let session = Mcf.session g in
  for step = 1 to 20 do
    let comms = drift step in
    let cold = Mcf.opt_mlu_lp g comms in
    let warm = Mcf.solve session comms in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "step %d: warm objective = cold" step)
      cold.Mcf.value warm.Mcf.value;
    (match Linprog.Simplex.Sparse.solve (Mcf.build_mlu_lp g comms) with
    | Linprog.Simplex.Sparse.Optimal { value; iters; _ } ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "step %d: slack start = cold" step)
        cold.Mcf.value value;
      cold_pivots := !cold_pivots + iters
    | _ -> Alcotest.failf "step %d: slack-start LP not optimal" step);
    Alcotest.(check bool) "cold solve reports cold" false cold.Mcf.warm;
    Alcotest.(check bool)
      (Printf.sprintf "step %d: warm solve reports warm" step)
      (step > 1) warm.Mcf.warm;
    warm_pivots := !warm_pivots + warm.Mcf.pivots
  done;
  Alcotest.(check bool)
    (Printf.sprintf "warm pivots (%d) strictly below slack start (%d)"
       !warm_pivots !cold_pivots)
    true
    (!warm_pivots < !cold_pivots)

(* The warm path must also feed the engine counters the serving bench
   reads: pivots recorded per solve, warm solves tallied. *)
let test_warm_solve_stats () =
  let g = parallel_links () in
  let comms = [| Demand.make 0 1 2. |] in
  let stats = Engine.Stats.create () in
  let session = Mcf.session g in
  let record (r : Mcf.warm_solve) =
    Engine.Stats.record_lp stats ~solves:1 ~pivots:r.Mcf.pivots
      ~warm:(Bool.to_int r.Mcf.warm)
  in
  let r = Mcf.solve session comms in
  record r;
  let r2 = Mcf.solve session comms in
  record r2;
  checkf6 "same objective" r.Mcf.value r2.Mcf.value;
  Alcotest.(check int) "two solves" 2 stats.Engine.Stats.lp_solves;
  Alcotest.(check int) "one warm" 1 stats.Engine.Stats.lp_warm_solves;
  Alcotest.(check bool) "warm re-solve needs no pivots beyond refactor" true
    (r2.Mcf.pivots <= r.Mcf.pivots)

(* Routability is checked per destination, but the error still names
   the first unroutable demand in aggregate (src, dst) order, whatever
   the input order. *)
let test_unroutable_message () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 1.) ] in
  let comms = [| Demand.make 3 2 1.; Demand.make 0 2 1.; Demand.make 2 0 1. |] in
  let expect = Failure "Mcf: demand 2->0 is not routable" in
  Alcotest.check_raises "opt_mlu_lp" expect (fun () ->
      ignore (Mcf.opt_mlu_lp g comms));
  Alcotest.check_raises "opt_mlu" expect (fun () -> ignore (Mcf.opt_mlu g comms));
  Alcotest.check_raises "single pair" (Failure "Mcf: demand 3->2 is not routable")
    (fun () -> ignore (Mcf.opt_mlu g [| Demand.make 3 2 1. |]))

let rel_close a b = abs_float (a -. b) <= 1e-9 *. Float.max 1. (abs_float b)

(* Edge flows that are an optimal routing of the matrix: per-node net
   outflow equal to the net demand, and peak utilization equal to the
   optimum [opt] (optimal flows need not be unique, so they are checked,
   not compared). *)
let check_flows label g comms (r : Mcf.warm_solve) opt =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let net = Array.make n 0. in
  Array.iter
    (fun c ->
      net.(c.Demand.src) <- net.(c.Demand.src) +. c.Demand.size;
      net.(c.Demand.dst) <- net.(c.Demand.dst) -. c.Demand.size)
    comms;
  let total = Array.fold_left (fun a c -> a +. c.Demand.size) 0. comms in
  let peak = ref 0. in
  for e = 0 to m - 1 do
    let f = r.Mcf.edge_flows.(e) in
    net.(Digraph.src g e) <- net.(Digraph.src g e) -. f;
    net.(Digraph.dst g e) <- net.(Digraph.dst g e) +. f;
    peak := Float.max !peak (f /. Digraph.cap g e)
  done;
  Array.iteri
    (fun v x ->
      if abs_float x > 1e-9 *. Float.max 1. total then
        Alcotest.failf "%s: node %d conserves flow only to %.3g" label v x)
    net;
  if not (rel_close !peak opt) then
    Alcotest.failf "%s: edge flows peak at %.17g, optimum %.17g" label !peak
      opt

(* A session's result against a cold solve of the same matrix: the same
   optimum to 1e-9 relative, and edge flows that route the matrix at
   that optimum.  Returns the cold solve's pivots. *)
let check_session_solve label g comms (r : Mcf.warm_solve) =
  let cold = Mcf.opt_mlu_lp g comms in
  if not (rel_close r.Mcf.value cold.Mcf.value) then
    Alcotest.failf "%s: session %.17g <> cold %.17g" label r.Mcf.value
      cold.Mcf.value;
  check_flows label g comms r cold.Mcf.value;
  cold.Mcf.pivots

(* 100 serve-like updates on Cost266 through one session: size drift
   every step, a pair dropped and later re-added under a destination
   other pairs keep, and one new destination, which must rebuild the LP
   once and nowhere else.  Beside the cold check, every solve must be
   bit-identical to building the LP afresh and warm-starting it from
   the previous optimal basis (at the two rebuilds, from
   [Mcf.crash_basis]), the readout a session replaces; and the warm
   solves must take fewer pivots than crash-started cold solves of the
   same matrices. *)
let test_session_replay_cost266 () =
  let g = Topology.Datasets.load "Cost266" in
  let pairs = Te.Demand_gen.select_pairs ~seed:1 ~frac:0.2 g in
  let st = Random.State.make [| 0x5e55 |] in
  let tbl = Hashtbl.create 512 in
  Array.iter
    (fun (s, t) -> Hashtbl.replace tbl (s, t) (0.5 +. Random.State.float st 1.))
    pairs;
  let sorted_pairs () =
    List.sort compare (Hashtbl.fold (fun pair _ acc -> pair :: acc) tbl [])
  in
  (* The pairs' destinations cover every node, so a new destination is
     made by withholding every pair that ends at the first pair's. *)
  let withheld = List.filter (fun (_, t) -> t = snd pairs.(0)) (sorted_pairs ()) in
  List.iter (Hashtbl.remove tbl) withheld;
  let newcomer = List.hd withheld in
  (* A pair whose destination other pairs share. *)
  let victim =
    List.find
      (fun (s, t) ->
        Hashtbl.fold (fun (s', t') _ acc -> acc || (t' = t && s' <> s)) tbl false)
      (sorted_pairs ())
  in
  let session = Mcf.session g in
  let warm = ref 0 and basis = ref None in
  let warm_pivots = ref 0 and cold_pivots = ref 0 in
  let m = Digraph.edge_count g in
  for step = 1 to 100 do
    List.iter
      (fun pair ->
        if Random.State.int st 4 = 0 then
          Hashtbl.replace tbl pair
            (Hashtbl.find tbl pair *. (0.6 +. Random.State.float st 0.8)))
      (sorted_pairs ());
    if step = 30 then Hashtbl.remove tbl victim;
    if step = 45 then Hashtbl.replace tbl victim 1.;
    if step = 70 then Hashtbl.replace tbl newcomer 0.8;
    let comms =
      Array.of_list
        (List.map (fun (s, t) -> Demand.make s t (Hashtbl.find tbl (s, t)))
           (sorted_pairs ()))
    in
    let r = Mcf.solve session comms in
    Alcotest.(check bool)
      (Printf.sprintf "step %d: rebuilt" step)
      (step = 1 || step = 70)
      r.Mcf.rebuilt;
    let label = Printf.sprintf "step %d" step in
    let cold = check_session_solve label g comms r in
    if r.Mcf.warm then begin
      incr warm;
      warm_pivots := !warm_pivots + r.Mcf.pivots;
      cold_pivots := !cold_pivots + cold
    end;
    let basis' =
      if r.Mcf.rebuilt then Some (Mcf.crash_basis g comms) else !basis
    in
    match
      Linprog.Simplex.Sparse.solve ?basis:basis' (Mcf.build_mlu_lp g comms)
    with
    | Linprog.Simplex.Sparse.Optimal { value; solution; basis = b; _ } ->
      basis := Some b;
      if Int64.bits_of_float value <> Int64.bits_of_float r.Mcf.value then
        Alcotest.failf "%s: session %.17g, rebuilt LP %.17g" label r.Mcf.value
          value;
      Array.iteri
        (fun e f ->
          let rebuilt = ref 0. in
          for ti = 0 to ((Array.length solution - 1) / m) - 1 do
            rebuilt := !rebuilt +. solution.(1 + (ti * m) + e)
          done;
          if Int64.bits_of_float f <> Int64.bits_of_float !rebuilt then
            Alcotest.failf "%s: edge %d flow %.17g, rebuilt LP %.17g" label e f
              !rebuilt)
        r.Mcf.edge_flows
    | _ -> Alcotest.failf "%s: rebuilt LP not optimal" label
  done;
  Alcotest.(check int) "every solve but the two rebuilds warm" 98 !warm;
  Alcotest.(check bool)
    (Printf.sprintf "warm pivots (%d) strictly below crash start (%d)"
       !warm_pivots !cold_pivots)
    true
    (!warm_pivots < !cold_pivots)

(* Node 3 has a single arc, so for each destination its conservation row
   is folded into that arc's flow bounds: the supply of 3->2 lives in a
   variable's bounds, and the session must rewrite those too. *)
let test_session_folded_supply () =
  let g =
    Digraph.of_edges ~n:4
      [ (0, 1, 2.); (1, 0, 2.); (1, 2, 1.); (2, 1, 1.); (0, 2, 1.); (2, 0, 1.);
        (3, 0, 4.) ]
  in
  let p = Mcf.build_mlu_lp g [| Demand.make 3 2 1.; Demand.make 1 0 1. |] in
  (* 2 destinations x 3 conservation rows, minus node 3's two, plus 7
     capacity rows. *)
  Alcotest.(check int) "node 3's rows are folded" 11 p.Linprog.Simplex.Sparse.nrows;
  let session = Mcf.session g in
  let warm = ref 0 in
  for step = 1 to 20 do
    let x = 0.25 *. float_of_int step in
    let comms = [| Demand.make 3 2 x; Demand.make 1 0 (2.5 -. (0.1 *. float_of_int step)) |] in
    let r = Mcf.solve session comms in
    if r.Mcf.warm then incr warm;
    ignore (check_session_solve (Printf.sprintf "step %d" step) g comms r : int)
  done;
  Alcotest.(check int) "every later solve warm" 19 !warm

(* Random small min-MLU instances for the crash start: a core of 3-6
   nodes joined by two-way, one-way and parallel links, sometimes a
   stub source (its one out-link folds its rows) and a dead end (one
   in-link: folded rows, and a node that reaches nothing), and demands
   with zero sizes, duplicate pairs, or a single destination. *)
let crash_instance st =
  let core = 3 + Random.State.int st 4 in
  let cap () = [| 0.5; 1.; 2.; 3. |].(Random.State.int st 4) in
  let edges = ref [] in
  let link u v =
    match Random.State.int st 6 with
    | 0 | 1 -> edges := (u, v, cap ()) :: (v, u, cap ()) :: !edges
    | 2 -> edges := (u, v, cap ()) :: !edges
    | 3 -> edges := (v, u, cap ()) :: !edges
    | 4 -> edges := (u, v, cap ()) :: (u, v, cap ()) :: (v, u, cap ()) :: !edges
    | _ -> ()
  in
  for u = 0 to core - 1 do
    link u ((u + 1) mod core);
    for v = u + 2 to core - 1 do
      if Random.State.int st 3 = 0 then link u v
    done
  done;
  let n = ref core in
  let stub attach =
    if Random.State.bool st then begin
      edges := attach !n (Random.State.int st core) :: !edges;
      incr n
    end
  in
  stub (fun s v -> (s, v, cap ()));
  stub (fun d u -> (u, d, cap ()));
  let g = Digraph.of_edges ~n:!n (List.rev !edges) in
  let reach = Array.init !n (fun s -> Paths.reachable g ~source:s) in
  let single = Random.State.int st 4 = 0 in
  let dest = Random.State.int st !n in
  let comms = ref [] in
  for _ = 1 to 1 + Random.State.int st 6 do
    let s = Random.State.int st !n in
    let t = if single then dest else Random.State.int st !n in
    if s <> t && reach.(s).(t) then begin
      let size =
        if Random.State.int st 5 = 0 then 0.
        else 0.5 +. float_of_int (Random.State.int st 4)
      in
      let c = { Demand.src = s; dst = t; size } in
      comms := c :: !comms;
      if Random.State.int st 4 = 0 then comms := c :: !comms
    end
  done;
  (g, Array.of_list !comms)

(* The crash basis of [build_mlu_lp g comms] factors, and its basic
   solution lies within every bound: the two claims behind skipping
   phase 1.  Nonbasic columns rest at their (finite) lower bounds. *)
let check_crash_basis label g comms =
  let module Sp = Linprog.Simplex.Sparse in
  let p = Mcf.build_mlu_lp g comms in
  let basis = Mcf.crash_basis g comms in
  let nrows = p.Sp.nrows and ncols = p.Sp.ncols in
  let cols =
    Array.map
      (fun j ->
        if j >= ncols then ([| j - ncols |], [| 1. |])
        else
          let a = p.Sp.colp.(j) and b = p.Sp.colp.(j + 1) in
          (Array.sub p.Sp.rowi a (b - a), Array.sub p.Sp.vals a (b - a)))
      basis.Sp.head
  in
  match Linprog.Sparse_lu.factor ~n:nrows cols with
  | None -> Alcotest.failf "%s: crash basis is singular" label
  | Some f ->
    let basic = Array.make (ncols + nrows) false in
    Array.iter (fun j -> basic.(j) <- true) basis.Sp.head;
    let v = Array.copy p.Sp.rhs in
    for j = 0 to ncols - 1 do
      if not basic.(j) then
        for i = p.Sp.colp.(j) to p.Sp.colp.(j + 1) - 1 do
          v.(p.Sp.rowi.(i)) <- v.(p.Sp.rowi.(i)) -. (p.Sp.vals.(i) *. p.Sp.lower.(j))
        done
    done;
    let xb = Array.make nrows 0. in
    Linprog.Sparse_lu.ftran f v xb;
    Array.iteri
      (fun k j ->
        if xb.(k) < p.Sp.lower.(j) -. 1e-9 || xb.(k) > p.Sp.upper.(j) +. 1e-9
        then
          Alcotest.failf "%s: basic column %d at %.17g outside [%g, %g]" label
            j xb.(k) p.Sp.lower.(j) p.Sp.upper.(j))
      basis.Sp.head

(* Crash-started cold solves against the dense tableau oracle on 300
   random instances: the crash basis is nonsingular and primal
   feasible, the optimum equals the oracle's to 1e-9, and the edge flows
   route the matrix at that optimum. *)
let test_crash_fuzz () =
  let folded = ref 0 and stranded = ref 0 and zero = ref 0 and single = ref 0 in
  for seed = 1 to 300 do
    let st = Random.State.make [| 0xc7a5; seed |] in
    let g, comms = crash_instance st in
    let agg = Demand.aggregate comms in
    if Array.length agg > 0 then begin
      let label = Printf.sprintf "seed %d" seed in
      let n = Digraph.node_count g in
      let dests =
        List.sort_uniq Int.compare
          (Array.to_list (Array.map (fun c -> c.Demand.dst) agg))
      in
      let p = Mcf.build_mlu_lp g comms in
      let rows = (List.length dests * (n - 1)) + Digraph.edge_count g in
      if p.Linprog.Simplex.Sparse.nrows < rows then incr folded;
      if
        List.exists
          (fun t ->
            List.exists
              (fun v -> not (Paths.reachable g ~source:v).(t))
              (List.init n Fun.id))
          dests
      then incr stranded;
      if Array.exists (fun c -> c.Demand.size = 0.) agg then incr zero;
      if List.length dests = 1 then incr single;
      check_crash_basis label g comms;
      let r = Mcf.opt_mlu_lp g comms in
      match Lp_oracle.Dense.solve ~max_iters:200_000 (Lp_oracle.mlu_problem g comms) with
      | Lp_oracle.Optimal { value; _ } ->
        if not (rel_close r.Mcf.value value) then
          Alcotest.failf "%s: crash start %.17g <> dense %.17g" label
            r.Mcf.value value;
        check_flows label g agg r value
      | _ -> Alcotest.failf "%s: dense oracle not optimal" label
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf
       "exercised: %d folded, %d stranded nodes, %d zero sizes, %d single \
        destination"
       !folded !stranded !zero !single)
    true
    (!folded > 20 && !stranded > 20 && !zero > 20 && !single > 20)

(* The crash start's point, on the repository benchmark's pair set
   (20% of the pairs, seed 1): at most half the slack start's pivots,
   to the same optimum.  Pivot counts are deterministic. *)
let test_crash_halves_pivots () =
  List.iter
    (fun name ->
      let g = Topology.Datasets.load name in
      let st = Random.State.make [| 1; 0x7e5d |] in
      let comms =
        Demand.aggregate
          (Array.map
             (fun (s, t) -> Demand.make s t (0.5 +. Random.State.float st 1.))
             (Te.Demand_gen.select_pairs ~seed:1 ~frac:0.2 g))
      in
      let crash = Mcf.opt_mlu_lp g comms in
      match Linprog.Simplex.Sparse.solve (Mcf.build_mlu_lp g comms) with
      | Linprog.Simplex.Sparse.Optimal { value; iters; _ } ->
        if not (rel_close crash.Mcf.value value) then
          Alcotest.failf "%s: crash start %.17g <> slack start %.17g" name
            crash.Mcf.value value;
        Alcotest.(check bool)
          (Printf.sprintf "%s: crash start %d pivots <= half of slack start %d"
             name crash.Mcf.pivots iters)
          true
          (2 * crash.Mcf.pivots <= iters)
      | _ -> Alcotest.failf "%s: slack-start LP not optimal" name)
    [ "Cost266"; "Germany50" ]

let () =
  Alcotest.run "mcf"
    [
      ( "lp",
        [
          Alcotest.test_case "commodity validation" `Quick test_commodity_validation;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "aggregate order-independent" `Quick
            test_aggregate_order_independent;
          Alcotest.test_case "parallel links" `Quick test_lp_parallel;
          Alcotest.test_case "no demands" `Quick test_no_demands;
          Alcotest.test_case "two commodities" `Quick test_lp_two_commodities;
          Alcotest.test_case "uses both paths" `Quick test_lp_uses_both_paths;
          Alcotest.test_case "single pair via maxflow" `Quick test_single_pair_uses_maxflow;
          Alcotest.test_case "unroutable" `Quick test_unroutable_reported;
          Alcotest.test_case "warm basis over drift" `Quick
            test_warm_basis_drift;
          Alcotest.test_case "warm solve stats" `Quick test_warm_solve_stats;
          Alcotest.test_case "unroutable message" `Quick test_unroutable_message;
          Alcotest.test_case "session replay Cost266" `Quick
            test_session_replay_cost266;
          Alcotest.test_case "session folded supply" `Quick
            test_session_folded_supply;
          Alcotest.test_case "crash start = dense oracle" `Quick
            test_crash_fuzz;
          Alcotest.test_case "crash start halves cold pivots" `Quick
            test_crash_halves_pivots;
        ] );
      ( "garg-koenemann",
        [
          Alcotest.test_case "dispatch consistency" `Quick test_dispatch_consistency;
          Alcotest.test_case "OPT on instance 2" `Quick test_opt_on_instance2;
          Alcotest.test_case "transportation LP" `Quick test_transportation_lp;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_opt_lower_bounds_ecmp ]);
    ]
