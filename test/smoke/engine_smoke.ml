(* Engine-equivalence smoke: drives a persistent evaluator through a
   long committed/probed perturbation sequence on synthetic topologies
   and cross-checks its loads after every move against a fresh
   evaluator's per-pair path: the size-scaled sum of each commodity's
   unit-flow row, folded here with [add_unit].  The two are different
   computations (one sweep per destination vs. one propagation per
   source), and GreedyWPO mixes them on every move, so they must agree
   within 1e-9.  Run with `dune build @engine-smoke'. *)

open Netgraph

let tol = 1e-9

let per_pair_loads g w demands =
  let ev = Engine.Evaluator.create g w in
  let acc = Array.make (Digraph.edge_count g) 0. in
  Array.iter
    (fun { Demand.src; dst; size } ->
      Engine.Evaluator.add_unit ev ~src ~dst ~scale:size ~into:acc)
    demands;
  acc

let run_seed seed =
  let nodes = 10 + ((seed mod 4) * 5) in
  let links = nodes + 6 in
  let g =
    Topology.Gen.synthetic ~seed ~name:(Printf.sprintf "smoke%d" seed) ~nodes
      ~links ()
  in
  let st = Random.State.make [| 0x50e; seed |] in
  let m = Digraph.edge_count g in
  let w = Array.init m (fun _ -> float_of_int (1 + Random.State.int st 10)) in
  let demands =
    Array.init 8 (fun _ ->
        let s = Random.State.int st nodes in
        let t = (s + 1 + Random.State.int st (nodes - 1)) mod nodes in
        { Demand.src = s; dst = t; size = float_of_int (1 + Random.State.int st 5) })
  in
  let stats = Engine.Stats.create () in
  let ev = Engine.Evaluator.create ~stats g w in
  Engine.Evaluator.set_commodities ev demands;
  let current = Array.copy w in
  let mismatches = ref 0 in
  let moves = 60 in
  for _ = 1 to moves do
    let e = Random.State.int st m in
    let wv = float_of_int (1 + Random.State.int st 14) in
    Engine.Evaluator.set_weight ev ~edge:e wv;
    ignore (Engine.Evaluator.mlu ev);
    if Random.State.bool st then begin
      Engine.Evaluator.commit ev;
      current.(e) <- wv
    end
    else Engine.Evaluator.undo ev;
    let live = Engine.Evaluator.loads ev in
    let reference = per_pair_loads g current demands in
    Array.iteri
      (fun i x -> if abs_float (x -. live.(i)) > tol then incr mismatches)
      reference
  done;
  Printf.printf
    "seed %d: %d nodes, %d edges, %d moves -> %d mismatches \
     (full SPF %d, incremental SPF %d)\n"
    seed nodes m moves !mismatches stats.Engine.Stats.full_spf
    stats.Engine.Stats.incr_spf;
  !mismatches = 0 && stats.Engine.Stats.incr_spf > 0

let () =
  let ok = List.for_all run_seed [ 1; 2; 3 ] in
  if ok then print_endline "engine-smoke OK"
  else begin
    print_endline "engine-smoke FAILED";
    exit 1
  end
