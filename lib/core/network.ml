open Netgraph

type demand = Demand.t = { src : int; dst : int; size : float }

type t = { graph : Digraph.t; demands : demand array }

let demand = Demand.make

let make graph demands =
  let n = Digraph.node_count graph in
  Array.iter
    (fun d ->
      if d.src < 0 || d.src >= n || d.dst < 0 || d.dst >= n then
        invalid_arg "Network.make: demand endpoint outside graph")
    demands;
  { graph; demands }

let total_demand t = Array.fold_left (fun acc d -> acc +. d.size) 0. t.demands

let split_demands ~parts demands =
  if parts < 1 then invalid_arg "Network.split_demands: parts < 1";
  Array.concat
    (Array.to_list
       (Array.map
          (fun d ->
            Array.make parts { d with size = d.size /. float_of_int parts })
          demands))
