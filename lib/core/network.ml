open Netgraph

type demand = { src : int; dst : int; size : float }

type t = { graph : Digraph.t; demands : demand array }

let demand src dst size =
  if src = dst then invalid_arg "Network.demand: src = dst";
  if not (size > 0.) then invalid_arg "Network.demand: size must be positive";
  { src; dst; size }

let make graph demands =
  let n = Digraph.node_count graph in
  Array.iter
    (fun d ->
      if d.src < 0 || d.src >= n || d.dst < 0 || d.dst >= n then
        invalid_arg "Network.make: demand endpoint outside graph")
    demands;
  { graph; demands }

let total_demand t = Array.fold_left (fun acc d -> acc +. d.size) 0. t.demands

let aggregate demands =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun d ->
      let key = (d.src, d.dst) in
      let cur = try Hashtbl.find tbl key with Not_found -> 0. in
      Hashtbl.replace tbl key (cur +. d.size))
    demands;
  let out =
    Hashtbl.fold (fun (src, dst) size acc -> { src; dst; size } :: acc) tbl []
  in
  (* Deterministic order for reproducibility. *)
  let out = List.sort (fun a b -> compare (a.src, a.dst) (b.src, b.dst)) out in
  Array.of_list out

let targets t =
  List.sort_uniq compare (Array.to_list (Array.map (fun d -> d.dst) t.demands))

let sources_for t target =
  Array.to_list t.demands
  |> List.filter_map (fun d -> if d.dst = target then Some d.src else None)
  |> List.sort_uniq compare

let to_commodities demands =
  Array.map (fun d -> (d.src, d.dst, d.size)) demands

let split_demands ~parts demands =
  if parts < 1 then invalid_arg "Network.split_demands: parts < 1";
  Array.concat
    (Array.to_list
       (Array.map
          (fun d ->
            Array.make parts { d with size = d.size /. float_of_int parts })
          demands))

let is_routable t =
  Array.for_all
    (fun d -> (Paths.reachable t.graph ~source:d.src).(d.dst))
    t.demands
