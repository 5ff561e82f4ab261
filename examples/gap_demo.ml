(* The paper's core analytical story on a concrete instance: why joint
   optimization beats link weights or waypoints alone (§3).

     dune exec examples/gap_demo.exe [m]

   Builds TE-Instance 1 (Figure 1), evaluates the three strategies, and
   prints the per-link utilizations so the congestion is visible. *)

open Te

let show_utilizations g loads =
  Array.iteri
    (fun e l ->
      let u = l /. Netgraph.Digraph.cap g e in
      if u > 1e-9 then
        Printf.printf "    %-6s -> %-6s  util %5.2f%s\n"
          (Netgraph.Digraph.node_name g (Netgraph.Digraph.src g e))
          (Netgraph.Digraph.node_name g (Netgraph.Digraph.dst g e))
          u
          (if u > 1. +. 1e-9 then "  <-- congested" else ""))
    loads

(* Per-link loads of the demands, each routed through its waypoints. *)
let loads_of ?waypoints g w demands =
  let ev = Engine.Evaluator.create g w in
  Engine.Evaluator.set_commodities ev
    (match waypoints with
    | None -> demands
    | Some wps -> Segments.expand demands wps);
  Engine.Evaluator.loads ev

let () =
  let m = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 6 in
  let inst = Instances.Gap_instances.instance1 ~m in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Network.graph in
  Printf.printf
    "TE-Instance 1 (m = %d): %d unit demands s->t; thin exits have capacity \
     1, the spine has capacity %d.\n\n"
    m m m;

  (* Strategy 1: the optimal link weights alone (Lemma 3.6). *)
  let lwo_w = Option.get inst.Instances.Gap_instances.lwo_weights in
  let loads = loads_of g lwo_w net.Network.demands in
  Printf.printf "1. Optimal LWO alone: MLU = %.2f (paper: m/2 = %.1f)\n"
    (Engine.Evaluator.mlu_of_loads g loads)
    (float_of_int m /. 2.);
  show_utilizations g loads;

  (* Strategy 2: optimal waypoints under unit weights (Lemma 3.7). *)
  let wpo =
    Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g (Weights.unit g)
      net.Network.demands
  in
  Printf.printf
    "\n2. Waypoints alone (greedy, unit weights): MLU = %.2f (paper: >= \
     (n-1)/3 = %.1f)\n"
    wpo.Greedy_wpo.mlu
    (float_of_int m /. 3.);

  (* Strategy 3: the joint setting of Lemma 3.5 - one waypoint per
     demand plus matching weights. *)
  let loads =
    loads_of ~waypoints:inst.Instances.Gap_instances.joint_waypoints g
      inst.Instances.Gap_instances.joint_weights net.Network.demands
  in
  Printf.printf "\n3. Joint weights + waypoints (Lemma 3.5): MLU = %.2f\n"
    (Engine.Evaluator.mlu_of_loads g loads);
  show_utilizations g loads;
  Printf.printf
    "\nGap of separate optimizations over Joint: %.1fx - it grows linearly \
     with the network size (Theorem 3.4).\n"
    (min
       (Ecmp.mlu_of g lwo_w net.Network.demands)
       wpo.Greedy_wpo.mlu)
