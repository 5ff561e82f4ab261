open Netgraph

type ec = { node : float array; edge : float array; kept : bool array }

let effective_capacities ?(prune = true) g ~usable ~source ~target =
  ignore source;
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  if Array.length usable <> m then
    invalid_arg "Lwo_apx.effective_capacities: usable length mismatch";
  let in_dag e = usable.(e) > 1e-12 in
  let order = Paths.topo_order g ~keep:in_dag in
  let node = Array.make n 0. in
  let edge = Array.make m 0. in
  let kept = Array.make m false in
  node.(target) <- infinity;
  (* Reverse topological order: children before parents. *)
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if v <> target then begin
      let outs =
        let acc = ref [] in
        Digraph.iter_out g v (fun e -> if in_dag e then acc := e :: !acc);
        Array.of_list (List.rev !acc)
      in
      let deg = Array.length outs in
      if deg > 0 then begin
        (* Effective capacity of each outgoing DAG link is already known
           (its head is later in the topological order). *)
        let ecs = Array.map (fun e -> (e, edge.(e))) outs in
        Array.sort (fun (_, a) (_, b) -> compare b a) ecs;
        if prune then begin
          (* Line 7: j* = argmax_j j * ec(l_j) over the sorted prefix;
             ties go to the larger j (splitting), matching the paper's
             tie-break in Figure 3. *)
          let jstar = ref 1 and best = ref (snd ecs.(0)) in
          for j = 2 to deg do
            let v = float_of_int j *. snd ecs.(j - 1) in
            if v >= !best -. 1e-12 then begin
              jstar := j;
              best := max !best v
            end
          done;
          node.(v) <- float_of_int !jstar *. snd ecs.(!jstar - 1);
          for j = 0 to !jstar - 1 do
            kept.(fst ecs.(j)) <- true
          done
        end
        else begin
          (* Ablation: split over every DAG out-link. *)
          node.(v) <- float_of_int deg *. snd ecs.(deg - 1);
          Array.iter (fun (e, _) -> kept.(e) <- true) ecs
        end
      end
    end;
    (* Effective capacity of incoming DAG links of v (Definition 5.1). *)
    Digraph.iter_in g v (fun e ->
        if in_dag e then edge.(e) <- min usable.(e) node.(v))
  done;
  { node; edge; kept }

(* Lemma 4.1: a weight setting under which the shortest-path DAG towards
   [target] is exactly the kept subgraph (potentials d(t) = 0,
   d(v) = 1 + max child potential; kept edge weight d(u) - d(v); all
   other edges get a weight larger than any path). *)
let weights_for_dag g ~keep ~target =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let order = Paths.topo_order g ~keep in
  let pot = Array.make n 0. in
  (* Reverse topological pass: d(v) = 1 + max over kept children. *)
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if v <> target then begin
      let best = ref neg_infinity in
      Digraph.iter_out g v (fun e ->
          if keep e then best := max !best pot.(Digraph.dst g e));
      if !best > neg_infinity then pot.(v) <- 1. +. !best
    end
  done;
  let max_pot = Array.fold_left max 0. pot in
  let big = (2. *. max_pot) +. float_of_int n +. 1. in
  Array.init m (fun e ->
      if keep e then pot.(Digraph.src g e) -. pot.(Digraph.dst g e) else big)

type result = {
  weights : Weights.t;
  es_flow_value : float;
  max_flow_value : float;
}

let solve ?(prune = true) g ~source ~target =
  let f = Maxflow.acyclic_max_flow g ~source ~target in
  if f.Maxflow.value <= 0. then
    failwith "Lwo_apx.solve: target unreachable from source";
  let ec = effective_capacities ~prune g ~usable:f.Maxflow.on_edge ~source ~target in
  let keep e = ec.kept.(e) in
  let weights = weights_for_dag g ~keep ~target in
  { weights; es_flow_value = ec.node.(source); max_flow_value = f.Maxflow.value }

let approximation_ratio r = r.max_flow_value /. r.es_flow_value

let uniform_optimal_weights g ~source ~target =
  (* Unit-capacity max flow is integral (augmenting paths carry 1), so
     its positive edges form |P| link-disjoint paths (Menger). *)
  let unit_g = Digraph.with_capacities g (Array.make (Digraph.edge_count g) 1.) in
  let f = Maxflow.acyclic_max_flow unit_g ~source ~target in
  if f.Maxflow.value <= 0. then
    failwith "Lwo_apx.uniform_optimal_weights: target unreachable";
  let keep e = f.Maxflow.on_edge.(e) > 0.5 in
  weights_for_dag g ~keep ~target

let widest_path_weights g ~source ~target =
  let f = Maxflow.acyclic_max_flow g ~source ~target in
  if f.Maxflow.value <= 0. then
    failwith "Lwo_apx.widest_path_weights: target unreachable";
  let paths = Maxflow.decompose g ~source ~target f in
  let bottleneck p =
    List.fold_left (fun acc e -> min acc (Digraph.cap g e)) infinity p
  in
  let widest =
    List.fold_left
      (fun acc (_, p) ->
        match acc with
        | None -> Some p
        | Some best -> if bottleneck p > bottleneck best then Some p else acc)
      None paths
  in
  let path = match widest with Some p -> p | None -> assert false in
  let on_path = Array.make (Digraph.edge_count g) false in
  List.iter (fun e -> on_path.(e) <- true) path;
  let n = float_of_int (Digraph.node_count g) in
  Array.init (Digraph.edge_count g) (fun e -> if on_path.(e) then 1. else n)
