(* Unit and property tests for the netgraph substrate. *)

open Netgraph

let check_float = Alcotest.(check (float 1e-9))

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3, caps 1/2/3/4 *)
  Digraph.of_edges ~n:4 [ (0, 1, 1.); (1, 3, 2.); (0, 2, 3.); (2, 3, 4.) ]

(* ------------------------------------------------------------------ *)
(* Digraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_counts () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Digraph.node_count g);
  Alcotest.(check int) "edges" 4 (Digraph.edge_count g)

let test_endpoints () =
  let g = diamond () in
  Alcotest.(check int) "src e1" 1 (Digraph.src g 1);
  Alcotest.(check int) "dst e1" 3 (Digraph.dst g 1);
  check_float "cap e3" 4. (Digraph.cap g 3)

let test_adjacency () =
  let g = diamond () in
  Alcotest.(check int) "out deg 0" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in edges 3" 2 (Array.length (Digraph.in_edges g 3));
  Alcotest.(check int) "out deg 3" 0 (Digraph.out_degree g 3)

let test_find_edge () =
  let g = diamond () in
  Alcotest.(check (option int)) "0->2" (Some 2) (Digraph.find_edge g ~src:0 ~dst:2);
  Alcotest.(check (option int)) "2->0" None (Digraph.find_edge g ~src:2 ~dst:0)

let test_names () =
  let b = Digraph.Builder.create () in
  let a = Digraph.Builder.add_named_node b "ATLA" in
  let c = Digraph.Builder.add_named_node b "CHIN" in
  let a' = Digraph.Builder.add_named_node b "ATLA" in
  Alcotest.(check int) "dedup" a a';
  ignore (Digraph.Builder.add_edge b ~src:a ~dst:c ~cap:1.);
  let g = Digraph.Builder.build b in
  Alcotest.(check string) "name" "ATLA" (Digraph.node_name g 0);
  Alcotest.(check int) "by name" c (Digraph.node_of_name g "CHIN")

let test_bad_edges () =
  let b = Digraph.Builder.create () in
  let u = Digraph.Builder.add_node b () in
  let v = Digraph.Builder.add_node b () in
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.Builder.add_edge: self-loop")
    (fun () -> ignore (Digraph.Builder.add_edge b ~src:u ~dst:u ~cap:1.));
  Alcotest.check_raises "zero cap"
    (Invalid_argument "Digraph.Builder.add_edge: capacity must be positive")
    (fun () -> ignore (Digraph.Builder.add_edge b ~src:u ~dst:v ~cap:0.))

let test_add_biedge_ids () =
  let b = Digraph.Builder.create () in
  let u = Digraph.Builder.add_node b () in
  let v = Digraph.Builder.add_node b () in
  let x = Digraph.Builder.add_node b () in
  let fwd, rev = Digraph.Builder.add_biedge b u v ~cap:5. in
  let fwd2, rev2 = Digraph.Builder.add_biedge b v x ~cap:7. in
  Alcotest.(check (list int)) "sequential ids" [ 0; 1; 2; 3 ]
    [ fwd; rev; fwd2; rev2 ];
  let g = Digraph.Builder.build b in
  Alcotest.(check int) "fwd src" u (Digraph.src g fwd);
  Alcotest.(check int) "fwd dst" v (Digraph.dst g fwd);
  Alcotest.(check int) "rev src" v (Digraph.src g rev);
  Alcotest.(check int) "rev dst" u (Digraph.dst g rev);
  check_float "fwd cap" 5. (Digraph.cap g fwd);
  check_float "rev2 cap" 7. (Digraph.cap g rev2)

let test_reverse () =
  let g = diamond () in
  let r = Digraph.reverse g in
  Alcotest.(check int) "src of reversed e0" 1 (Digraph.src r 0);
  Alcotest.(check int) "dst of reversed e0" 0 (Digraph.dst r 0);
  check_float "cap preserved" (Digraph.cap g 0) (Digraph.cap r 0)

let test_with_capacities () =
  let g = diamond () in
  let g' = Digraph.with_capacities g [| 9.; 9.; 9.; 9. |] in
  check_float "new cap" 9. (Digraph.cap g' 2);
  check_float "old unchanged" 3. (Digraph.cap g 2)

let test_capacity_extrema () =
  let g = diamond () in
  check_float "max" 4. (Digraph.max_capacity g)

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let line_graph k =
  (* 0 -> 1 -> ... -> k, each weight/cap 1, plus shortcut 0 -> k cap 1 *)
  Digraph.of_edges ~n:(k + 1)
    ((0, k, 1.) :: List.init k (fun i -> (i, i + 1, 1.)))

(* Distances from node 0 are distances to node 0 on the reversed graph. *)
let test_dijkstra_line () =
  let k = 5 in
  let g = line_graph k in
  let w = Array.make (Digraph.edge_count g) 1. in
  let d = Paths.dijkstra_to (Digraph.reverse g) ~weights:w ~target:0 in
  check_float "dist to k is 1 via shortcut" 1. d.(k);
  check_float "dist to 3" 3. d.(3)

let test_dijkstra_to () =
  let k = 5 in
  let g = line_graph k in
  let w = Array.make (Digraph.edge_count g) 1. in
  let d = Paths.dijkstra_to g ~weights:w ~target:k in
  check_float "0 to k" 1. d.(0);
  check_float "1 to k" 4. d.(1);
  check_float "k to k" 0. d.(k)

let test_dijkstra_unreachable () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let d = Paths.dijkstra_to g ~weights:[| 1. |] ~target:1 in
  check_float "unreachable" infinity d.(2)

let test_dijkstra_rejects_nonpositive () =
  let g = diamond () in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Paths: weights must be positive")
    (fun () -> ignore (Paths.dijkstra_to g ~weights:[| 1.; 0.; 1.; 1. |] ~target:3))

let test_topo_order () =
  let g = diamond () in
  let order = Paths.topo_order g ~keep:(fun _ -> true) in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Alcotest.(check bool) "0 before 1" true (pos.(0) < pos.(1));
  Alcotest.(check bool) "1 before 3" true (pos.(1) < pos.(3));
  Alcotest.(check bool) "2 before 3" true (pos.(2) < pos.(3))

(* Does the subgraph of the kept edges have a topological order? *)
let acyclic g ~keep =
  match Paths.topo_order g ~keep with
  | _ -> true
  | exception Failure _ -> false

let test_topo_cycle () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 1.); (1, 0, 1.) ] in
  Alcotest.(check bool) "cyclic" false (acyclic g ~keep:(fun _ -> true));
  Alcotest.(check bool) "acyclic when restricted" true
    (acyclic g ~keep:(fun e -> e = 0))

let test_reachable () =
  let g = Digraph.of_edges ~n:4 [ (0, 1, 1.); (1, 2, 1.) ] in
  let r = Paths.reachable g ~source:0 in
  Alcotest.(check bool) "reaches 2" true r.(2);
  Alcotest.(check bool) "misses 3" false r.(3)

(* ------------------------------------------------------------------ *)
(* Maxflow                                                             *)
(* ------------------------------------------------------------------ *)

let test_maxflow_diamond () =
  let g = diamond () in
  let f = Maxflow.max_flow g ~source:0 ~target:3 in
  check_float "value" 4. f.Maxflow.value

let test_maxflow_single_edge () =
  let g = Digraph.of_edges ~n:2 [ (0, 1, 7.5) ] in
  let f = Maxflow.max_flow g ~source:0 ~target:1 in
  check_float "value" 7.5 f.Maxflow.value;
  check_float "edge flow" 7.5 f.Maxflow.on_edge.(0)

let test_maxflow_disconnected () =
  let g = Digraph.of_edges ~n:3 [ (0, 1, 1.) ] in
  let f = Maxflow.max_flow g ~source:0 ~target:2 in
  check_float "zero" 0. f.Maxflow.value

let test_maxflow_classic () =
  (* The classic CLRS example; max flow 23. *)
  let g =
    Digraph.of_edges ~n:6
      [ (0, 1, 16.); (0, 2, 13.); (1, 2, 10.); (2, 1, 4.); (1, 3, 12.);
        (3, 2, 9.); (2, 4, 14.); (4, 3, 7.); (3, 5, 20.); (4, 5, 4.) ]
  in
  let f = Maxflow.max_flow g ~source:0 ~target:5 in
  check_float "value" 23. f.Maxflow.value

let check_conservation g (f : Maxflow.flow) ~source ~target =
  let n = Digraph.node_count g in
  for v = 0 to n - 1 do
    if v <> source && v <> target then begin
      let inflow =
        Array.fold_left (fun acc e -> acc +. f.Maxflow.on_edge.(e)) 0. (Digraph.in_edges g v)
      and outflow =
        Array.fold_left (fun acc e -> acc +. f.Maxflow.on_edge.(e)) 0. (Digraph.out_edges g v)
      in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "conservation at %d" v) inflow outflow
    end
  done

let test_graph_random seed =
  (* Deterministic random-ish connected digraph on 8 nodes. *)
  let st = Random.State.make [| seed |] in
  let n = 8 in
  let edges = ref [] in
  for i = 0 to n - 2 do
    edges := (i, i + 1, 1. +. Random.State.float st 9.) :: !edges
  done;
  for _ = 1 to 12 do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v then edges := (u, v, 1. +. Random.State.float st 9.) :: !edges
  done;
  Digraph.of_edges ~n !edges

let test_flow_conservation () =
  let g = test_graph_random 17 in
  let f = Maxflow.max_flow g ~source:0 ~target:(Digraph.node_count g - 1) in
  check_conservation g f ~source:0 ~target:(Digraph.node_count g - 1)

(* The capacity of the edges leaving the source side of a cut. *)
let cut_capacity g side =
  let c = ref 0. in
  for e = 0 to Digraph.edge_count g - 1 do
    if side.(Digraph.src g e) && not side.(Digraph.dst g e) then
      c := !c +. Digraph.cap g e
  done;
  !c

(* The min-cut certificate of a maximum flow: the source side is every
   node reachable from [source] in the flow's residual graph, and its
   cut capacity equals the flow value exactly when the flow is maximum. *)
let residual_side g (f : Maxflow.flow) ~source =
  let side = Array.make (Digraph.node_count g) false in
  let rec go = function
    | [] -> ()
    | v :: rest ->
      let next = ref rest in
      let visit w =
        if not side.(w) then begin
          side.(w) <- true;
          next := w :: !next
        end
      in
      Digraph.iter_out g v (fun e ->
          if Digraph.cap g e -. f.Maxflow.on_edge.(e) > 1e-9 then
            visit (Digraph.dst g e));
      Digraph.iter_in g v (fun e ->
          if f.Maxflow.on_edge.(e) > 1e-9 then visit (Digraph.src g e));
      go !next
  in
  side.(source) <- true;
  go [ source ];
  side

let test_mincut_matches_maxflow () =
  let g = test_graph_random 3 in
  let f = Maxflow.max_flow g ~source:0 ~target:7 in
  let side = residual_side g f ~source:0 in
  Alcotest.(check (float 1e-6)) "max-flow = min-cut" f.Maxflow.value
    (cut_capacity g side);
  Alcotest.(check bool) "source in side" true side.(0);
  Alcotest.(check bool) "target out" false side.(7)

let test_remove_cycles () =
  (* A bidirected graph on which Dinic's flow from 0 to 8 carries a
     cycle, so the acyclic max flow must cancel it. *)
  let g =
    Digraph.of_edges ~n:9
      [ (4, 2, 1.); (2, 4, 3.); (1, 5, 4.); (5, 1, 4.); (8, 5, 1.); (5, 8, 3.);
        (4, 0, 1.); (0, 3, 3.); (1, 5, 2.); (5, 1, 1.); (5, 3, 1.); (3, 5, 5.);
        (4, 5, 4.); (5, 4, 5.); (4, 0, 4.); (0, 4, 2.); (7, 8, 3.); (8, 0, 5.);
        (6, 1, 2.); (1, 6, 5.); (3, 7, 3.); (0, 6, 1.); (7, 4, 1.); (0, 6, 2.) ]
  in
  let positive (f : Maxflow.flow) e = f.Maxflow.on_edge.(e) > 1e-9 in
  let fl = Maxflow.max_flow g ~source:0 ~target:8 in
  Alcotest.(check bool) "max flow has a cycle" false (acyclic g ~keep:(positive fl));
  let fl' = Maxflow.acyclic_max_flow g ~source:0 ~target:8 in
  Alcotest.(check (float 1e-9)) "value kept" fl.Maxflow.value fl'.Maxflow.value;
  Alcotest.(check bool) "acyclic" true (acyclic g ~keep:(positive fl'));
  check_conservation g fl' ~source:0 ~target:8

let test_acyclic_maxflow_value () =
  let g = test_graph_random 11 in
  let f = Maxflow.max_flow g ~source:0 ~target:7 in
  let fa = Maxflow.acyclic_max_flow g ~source:0 ~target:7 in
  Alcotest.(check (float 1e-6)) "same value" f.Maxflow.value fa.Maxflow.value;
  Alcotest.(check bool) "acyclic" true
    (acyclic g ~keep:(fun e -> fa.Maxflow.on_edge.(e) > 1e-9))

let test_decompose () =
  let g = diamond () in
  let f = Maxflow.acyclic_max_flow g ~source:0 ~target:3 in
  let paths = Maxflow.decompose g ~source:0 ~target:3 f in
  let total = List.fold_left (fun acc (a, _) -> acc +. a) 0. paths in
  Alcotest.(check (float 1e-9)) "decomposition sums to flow" f.Maxflow.value total;
  List.iter
    (fun (_, p) ->
      match p with
      | [] -> Alcotest.fail "empty path"
      | first :: _ ->
        Alcotest.(check int) "starts at source" 0 (Digraph.src g first))
    paths

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let arb_graph =
  (* Random connected digraph: spine 0..n-1 plus chords, caps in [1,10]. *)
  let gen =
    QCheck.Gen.(
      int_range 3 12 >>= fun n ->
      int_range 0 (3 * n) >>= fun extra ->
      let edge = triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 1. 10.) in
      list_size (return extra) edge >>= fun chords ->
      let spine = List.init (n - 1) (fun i -> (i, i + 1, 5.)) in
      let chords = List.filter (fun (u, v, _) -> u <> v) chords in
      return (n, spine @ chords))
  in
  QCheck.make gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d m=%d" n (List.length es))

let prop_maxflow_le_cut_degree =
  QCheck.Test.make ~name:"maxflow bounded by source out-capacity" ~count:100 arb_graph
    (fun (n, es) ->
      let g = Digraph.of_edges ~n es in
      let f = Maxflow.max_flow g ~source:0 ~target:(n - 1) in
      let out_cap =
        Array.fold_left (fun acc e -> acc +. Digraph.cap g e) 0. (Digraph.out_edges g 0)
      in
      f.Maxflow.value <= out_cap +. 1e-6)

let prop_maxflow_equals_mincut =
  QCheck.Test.make ~name:"maxflow = mincut" ~count:100 arb_graph (fun (n, es) ->
      let g = Digraph.of_edges ~n es in
      let f = Maxflow.max_flow g ~source:0 ~target:(n - 1) in
      let side = residual_side g f ~source:0 in
      let cut = cut_capacity g side in
      abs_float (f.Maxflow.value -. cut) <= 1e-6 *. (1. +. cut))

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra satisfies triangle inequality on edges" ~count:100
    arb_graph (fun (n, es) ->
      let g = Digraph.of_edges ~n es in
      let w = Array.init (Digraph.edge_count g) (fun e -> 1. +. float_of_int (e mod 3)) in
      let d = Paths.dijkstra_to g ~weights:w ~target:(n - 1) in
      let ok = ref true in
      for e = 0 to Digraph.edge_count g - 1 do
        let u = Digraph.src g e and v = Digraph.dst g e in
        if d.(v) < infinity && d.(u) > d.(v) +. w.(e) +. 1e-9 then ok := false
      done;
      !ok)

(* Bellman–Ford towards [target] as an independent oracle for Dijkstra. *)
let bellman_ford g weights target =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let dist = Array.make n infinity in
  dist.(target) <- 0.;
  for _ = 1 to n - 1 do
    for e = 0 to m - 1 do
      let u = Digraph.src g e and v = Digraph.dst g e in
      if dist.(v) +. weights.(e) < dist.(u) then
        dist.(u) <- dist.(v) +. weights.(e)
    done
  done;
  dist

let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford" ~count:100 arb_graph
    (fun (n, es) ->
      let g = Digraph.of_edges ~n es in
      let st = Random.State.make [| n; List.length es |] in
      let w =
        Array.init (Digraph.edge_count g) (fun _ ->
            0.1 +. Random.State.float st 5.)
      in
      let a = Paths.dijkstra_to g ~weights:w ~target:(n - 1) in
      let b = bellman_ford g w (n - 1) in
      let ok = ref true in
      for v = 0 to n - 1 do
        if
          not
            (a.(v) = b.(v)
            || abs_float (a.(v) -. b.(v)) <= 1e-9 *. (1. +. abs_float b.(v)))
        then ok := false
      done;
      !ok)

(* The settle record of an incremental repair on a fresh arena, over
   random walks of weight changes in [1, 4] (with an occasional
   infinite weight, as a failed link): nondecreasing in the repaired
   distance, each node at most once, and holding every node whose
   distance changed and is still finite. *)
let prop_update_settled =
  QCheck.Test.make ~name:"update settle record sorted and complete" ~count:200
    (QCheck.pair arb_graph QCheck.small_nat) (fun ((n, es), seed) ->
      let g = Digraph.of_edges ~n es in
      let m = Digraph.edge_count g in
      let st = Random.State.make [| 0x5e7; seed |] in
      let weight () =
        if Random.State.int st 5 = 0 then infinity
        else float_of_int (1 + Random.State.int st 4)
      in
      let w = Array.init m (fun _ -> float_of_int (1 + Random.State.int st 4)) in
      let dist = Paths.dijkstra_to g ~weights:w ~target:(Random.State.int st n) in
      let scratch = Paths.Scratch.create () in
      let ok = ref true in
      for _ = 1 to 10 do
        let edge = Random.State.int st m in
        let old = Array.copy dist in
        (Paths.Scratch.farg scratch).(0) <- w.(edge);
        w.(edge) <- weight ();
        ignore (Paths.dijkstra_update_prepared scratch g ~weights:w ~dist ~edge);
        let settled = Paths.Scratch.settled scratch in
        let seen = Array.make n false in
        for i = 0 to Paths.Scratch.settled_count scratch - 1 do
          let v = settled.(i) in
          if seen.(v) || (i > 0 && dist.(settled.(i - 1)) > dist.(v)) then
            ok := false;
          seen.(v) <- true
        done;
        for v = 0 to n - 1 do
          if dist.(v) <> old.(v) && dist.(v) < infinity && not seen.(v) then
            ok := false
        done
      done;
      !ok)

(* A weight decrease reports the number of distinct nodes whose
   distance changed, not the relaxations that got there: a node whose
   distance improves twice counts once. *)
let prop_update_decrease_count =
  QCheck.Test.make ~name:"update decrease counts changed nodes" ~count:200
    (QCheck.pair arb_graph QCheck.small_nat) (fun ((n, es), seed) ->
      let g = Digraph.of_edges ~n es in
      let m = Digraph.edge_count g in
      let st = Random.State.make [| 0xdec; seed |] in
      let w = Array.init m (fun _ -> float_of_int (1 + Random.State.int st 8)) in
      let dist = Paths.dijkstra_to g ~weights:w ~target:(Random.State.int st n) in
      let scratch = Paths.Scratch.create () in
      let ok = ref true in
      for _ = 1 to 10 do
        let edge = Random.State.int st m in
        let old = Array.copy dist in
        let oldw = w.(edge) in
        (Paths.Scratch.farg scratch).(0) <- oldw;
        w.(edge) <- float_of_int (1 + Random.State.int st 8);
        let touched =
          Paths.dijkstra_update_prepared scratch g ~weights:w ~dist ~edge
        in
        let changed = ref 0 in
        for v = 0 to n - 1 do
          if dist.(v) <> old.(v) then incr changed
        done;
        if w.(edge) < oldw && touched <> !changed then ok := false
      done;
      !ok)

let prop_decompose_conserves =
  QCheck.Test.make ~name:"flow decomposition sums to flow value" ~count:60 arb_graph
    (fun (n, es) ->
      let g = Digraph.of_edges ~n es in
      let f = Maxflow.acyclic_max_flow g ~source:0 ~target:(n - 1) in
      let paths = Maxflow.decompose g ~source:0 ~target:(n - 1) f in
      let total = List.fold_left (fun acc (a, _) -> acc +. a) 0. paths in
      abs_float (total -. f.Maxflow.value) <= 1e-6 *. (1. +. f.Maxflow.value))

(* ------------------------------------------------------------------ *)
(* Demand                                                              *)
(* ------------------------------------------------------------------ *)

let test_demand_make_validation () =
  Alcotest.check_raises "self demand" (Invalid_argument "Demand.make: src = dst")
    (fun () -> ignore (Demand.make 1 1 1.));
  List.iter
    (fun size ->
      Alcotest.check_raises (Printf.sprintf "size %g" size)
        (Invalid_argument "Demand.make: size must be positive") (fun () ->
          ignore (Demand.make 0 1 size)))
    [ 0.; -1.; nan ];
  let d = Demand.make 2 0 1.5 in
  Alcotest.(check (triple int int (float 0.))) "fields" (2, 0, 1.5)
    (d.Demand.src, d.Demand.dst, d.Demand.size)

(* The merge [Demand.aggregate] replaced, kept as an independent oracle:
   a [Hashtbl] sums each pair's sizes in occurrence order starting from
   0., then the pairs are sorted under polymorphic [compare]. *)
let hashtbl_aggregate demands =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun { Demand.src; dst; size } ->
      let cur = try Hashtbl.find tbl (src, dst) with Not_found -> 0. in
      Hashtbl.replace tbl (src, dst) (cur +. size))
    demands;
  Hashtbl.fold
    (fun (src, dst) size acc -> { Demand.src; dst; size } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.Demand.src, a.Demand.dst) (b.src, b.dst))
  |> Array.of_list

(* Over seeded lists drawn from a few nodes (so pairs repeat), the
   stable-sort merge yields the oracle's pairs in the oracle's order
   with bit-identical per-pair sums. *)
let test_demand_aggregate_oracle () =
  let merged = ref 0 in
  for seed = 1 to 200 do
    let st = Random.State.make [| 0xa99; seed |] in
    let n = 2 + Random.State.int st 5 in
    let demands =
      Array.init (1 + Random.State.int st 40) (fun _ ->
          let s = Random.State.int st n in
          let t = (s + 1 + Random.State.int st (n - 1)) mod n in
          Demand.make s t (1e-3 +. Random.State.float st 10.))
    in
    let got = Demand.aggregate demands and want = hashtbl_aggregate demands in
    merged := !merged + Array.length demands - Array.length want;
    Alcotest.(check int) "pair count" (Array.length want) (Array.length got);
    Array.iteri
      (fun i (w : Demand.t) ->
        let g = got.(i) in
        Alcotest.(check (pair int int)) "pair order" (w.src, w.dst) (g.src, g.dst);
        Alcotest.(check int64) "sum bits" (Int64.bits_of_float w.size)
          (Int64.bits_of_float g.size))
      want
  done;
  Alcotest.(check bool) "lists repeat pairs" true (!merged > 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "netgraph"
    [
      ( "digraph",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "endpoints" `Quick test_endpoints;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "find_edge" `Quick test_find_edge;
          Alcotest.test_case "named nodes" `Quick test_names;
          Alcotest.test_case "bad edges rejected" `Quick test_bad_edges;
          Alcotest.test_case "add_biedge ids" `Quick test_add_biedge_ids;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "with_capacities" `Quick test_with_capacities;
          Alcotest.test_case "capacity extrema" `Quick test_capacity_extrema;
        ] );
      ( "paths",
        [
          Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
          Alcotest.test_case "dijkstra to target" `Quick test_dijkstra_to;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "rejects nonpositive" `Quick test_dijkstra_rejects_nonpositive;
          Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "topo cycle" `Quick test_topo_cycle;
          Alcotest.test_case "reachable" `Quick test_reachable;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_diamond;
          Alcotest.test_case "single edge" `Quick test_maxflow_single_edge;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "classic CLRS" `Quick test_maxflow_classic;
          Alcotest.test_case "conservation" `Quick test_flow_conservation;
          Alcotest.test_case "mincut = maxflow" `Quick test_mincut_matches_maxflow;
          Alcotest.test_case "remove cycles" `Quick test_remove_cycles;
          Alcotest.test_case "acyclic maxflow" `Quick test_acyclic_maxflow_value;
          Alcotest.test_case "decompose" `Quick test_decompose;
        ] );
      ( "demand",
        [
          Alcotest.test_case "make validation" `Quick test_demand_make_validation;
          Alcotest.test_case "aggregate matches hashtbl oracle" `Quick
            test_demand_aggregate_oracle;
        ] );
      ( "properties",
        qc
          [
            prop_maxflow_le_cut_degree;
            prop_maxflow_equals_mincut;
            prop_dijkstra_triangle;
            prop_dijkstra_matches_bellman_ford;
            prop_decompose_conserves;
            prop_update_settled;
            prop_update_decrease_count;
          ] );
    ]
