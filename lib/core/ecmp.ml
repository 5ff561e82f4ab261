open Netgraph

let loads ?waypoints ev demands =
  (match waypoints with
  | Some w when Array.length w <> Array.length demands ->
    invalid_arg "Ecmp.loads: waypoints length mismatch"
  | _ -> ());
  let acc = Array.make (Digraph.edge_count (Engine.Evaluator.graph ev)) 0. in
  Array.iteri
    (fun i (d : Network.demand) ->
      let wps = match waypoints with Some w -> w.(i) | None -> [] in
      List.iter
        (fun (a, b) ->
          Engine.Evaluator.add_unit ev ~src:a ~dst:b ~scale:d.Network.size
            ~into:acc)
        (Segments.segment_endpoints d wps))
    demands;
  acc

let mlu = Engine.Evaluator.mlu_of_loads

let utilizations g loads =
  Array.init (Digraph.edge_count g) (fun e -> loads.(e) /. Digraph.cap g e)

let mlu_of ?waypoints g w demands =
  mlu g (loads ?waypoints (Engine.Evaluator.create g w) demands)

let max_es_flow_value g w ~src ~dst =
  let u = Engine.Evaluator.unit_load (Engine.Evaluator.create g w) ~src ~dst in
  let worst = ref 0. in
  for i = 0 to Array.length u.Engine.Evaluator.edges - 1 do
    let r =
      u.Engine.Evaluator.flows.(i) /. Digraph.cap g u.Engine.Evaluator.edges.(i)
    in
    if r > !worst then worst := r
  done;
  if !worst = 0. then infinity else 1. /. !worst
