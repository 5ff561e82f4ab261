type trial = { joint : float; weights : float }

type summary = {
  trials : trial list;
  joint_median : float;
  weights_median : float;
  weights_min : float;
  weights_max : float;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run ?(m = 4) ?(trials = 10) ?(streams_per_demand = 32) ?(noise = 0.014) () =
  let inst = Instances.Gap_instances.instance1 ~m in
  let net = inst.Instances.Gap_instances.network in
  let g = net.Te.Network.graph in
  let demands = net.Te.Network.demands in
  let lwo_weights =
    match inst.Instances.Gap_instances.lwo_weights with
    | Some w -> w
    | None -> assert false (* instance1 always carries them *)
  in
  let no_waypoints = Te.Segments.none demands in
  let results = ref [] in
  for salt = 1 to trials do
    let st = Random.State.make [| salt; 0xa40e7 |] in
    let noisy loads =
      (* Background chatter: a small random extra load on every link
         that carries traffic. *)
      Array.map
        (fun l -> if l > 0. then l *. (1. +. Random.State.float st (2. *. noise)) else l)
        loads
    in
    let weights_streams =
      Flowsim.streams_of_demands ~streams_per_demand demands no_waypoints
    in
    let weights_mlu =
      Engine.Evaluator.mlu_of_loads g
        (noisy (Flowsim.route ~salt g lwo_weights weights_streams))
    in
    let joint_streams =
      Flowsim.streams_of_demands ~streams_per_demand demands
        inst.Instances.Gap_instances.joint_waypoints
    in
    let joint_mlu =
      Engine.Evaluator.mlu_of_loads g
        (noisy
           (Flowsim.route ~salt g inst.Instances.Gap_instances.joint_weights
              joint_streams))
    in
    results := { joint = joint_mlu; weights = weights_mlu } :: !results
  done;
  let trials_list = List.rev !results in
  let js = List.map (fun t -> t.joint) trials_list in
  let ws = List.map (fun t -> t.weights) trials_list in
  {
    trials = trials_list;
    joint_median = median js;
    weights_median = median ws;
    weights_min = List.fold_left min infinity ws;
    weights_max = List.fold_left max neg_infinity ws;
  }
