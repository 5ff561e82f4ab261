(* An ISP-style what-if sweep: how does the benefit of joint
   optimization change as the traffic grows?

     dune exec examples/isp_sweep.exe [topology]

   Scales an MCF-normalized demand matrix from 50% to 150% of capacity
   and tracks the MLU of the standard setting, optimized weights, and
   the joint optimization - the kind of headroom study an operator runs
   before a capacity upgrade. *)

open Te

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "Germany50" in
  let g =
    try Topology.Datasets.load name
    with Not_found ->
      Printf.eprintf "unknown topology %s\n" name;
      exit 2
  in
  Printf.printf "What-if sweep on %s (%d nodes, %d links)\n\n" name
    (Netgraph.Digraph.node_count g)
    (Netgraph.Digraph.edge_count g / 2);
  let base = Demand_gen.mcf_synthetic ~seed:7 ~flows_per_pair:4 g in
  Printf.printf "%8s %16s %12s %12s %14s\n" "traffic" "InverseCapacity"
    "HeurOSPF" "JointHeur" "joint headroom";
  List.iter
    (fun scale ->
      let demands =
        Array.map
          (fun d -> { d with Network.size = d.Network.size *. scale })
          base
      in
      let inv = Ecmp.mlu_of g (Weights.inverse_capacity g) demands in
      let ls_params =
        { Local_search.default_params with max_evals = 600; seed = 7 }
      in
      let ls = Local_search.optimize_ctx (Obs.Ctx.make ()) ~params:ls_params g demands in
      let joint = Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params g demands in
      (* Headroom: how much more traffic fits before the joint setting
         congests (MLU 1). *)
      let headroom = (1. /. joint.Joint.mlu -. 1.) *. 100. in
      Printf.printf "%7.0f%% %16.3f %12.3f %12.3f %13.1f%%\n" (scale *. 100.)
        inv ls.Local_search.mlu joint.Joint.mlu headroom)
    [ 0.5; 0.75; 1.0; 1.25; 1.5 ]
