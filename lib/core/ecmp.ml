open Netgraph

let mlu_of ?stats ?waypoints g w demands =
  let ev = Engine.Evaluator.create ?stats g w in
  Engine.Evaluator.set_commodities ev
    (match waypoints with
    | None -> demands
    | Some wps -> Segments.expand demands wps);
  let s = Engine.Evaluator.stats ev in
  s.Engine.Stats.evaluations <- s.Engine.Stats.evaluations + 1;
  Engine.Evaluator.mlu ev

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
