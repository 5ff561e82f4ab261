open Netgraph

let reachable_pairs ?(exclude_stubs = false) g =
  let n = Digraph.node_count g in
  (* Demands touching a degree-1 stub node are carried on its pendant
     link by every routing scheme, so after MCF rescaling they pin the
     MLU of all algorithms to 1 and hide the comparison; excluding them
     matches the backbone-to-backbone traffic of the paper's matrices. *)
  let ok v = (not exclude_stubs) || Digraph.out_degree g v > 1 in
  let pairs = ref [] in
  for s = n - 1 downto 0 do
    if ok s then begin
      let r = Paths.reachable g ~source:s in
      for t = n - 1 downto 0 do
        if s <> t && ok t && r.(t) then pairs := (s, t) :: !pairs
      done
    end
  done;
  Array.of_list !pairs

let select_pairs ~seed ~frac g =
  if not (frac > 0. && frac <= 1.) then
    invalid_arg "Demand_gen.select_pairs: frac must be in (0, 1]";
  let st = Random.State.make [| seed; 0xd6 |] in
  let pairs = reachable_pairs ~exclude_stubs:true g in
  let pairs = if Array.length pairs = 0 then reachable_pairs g else pairs in
  (* Fisher–Yates, then take a prefix. *)
  for i = Array.length pairs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t
  done;
  let k = max 1 (int_of_float (frac *. float_of_int (Array.length pairs))) in
  Array.sub pairs 0 k

let scale_to_opt g demands =
  let opt = Mcf.opt_mlu g demands in
  Array.map (fun d -> { d with Network.size = d.Network.size /. opt }) demands

let mcf_synthetic ?(frac = 0.2) ?flows_per_pair ~seed g =
  let st = Random.State.make [| seed; 0xac |] in
  let pairs = select_pairs ~seed ~frac g in
  let base =
    Array.map
      (fun (s, t) ->
        { Network.src = s; dst = t; size = 0.5 +. Random.State.float st 1. })
      pairs
  in
  let scaled = scale_to_opt g base in
  let parts =
    match flows_per_pair with
    | Some p -> p
    | None -> max 1 (Digraph.edge_count g / 4)
  in
  Network.split_demands ~parts scaled

let gravity ?(flows_per_pair = 1) ~seed g =
  let st = Random.State.make [| seed; 0x9a |] in
  let n = Digraph.node_count g in
  (* Pareto(1.2) node masses give the heavy skew of real matrices. *)
  let mass =
    Array.init n (fun _ ->
        (1. -. Random.State.float st 0.999) ** (-1. /. 1.2))
  in
  let pairs = reachable_pairs g in
  let base =
    Array.map
      (fun (s, t) -> { Network.src = s; dst = t; size = mass.(s) *. mass.(t) })
      pairs
  in
  Network.split_demands ~parts:flows_per_pair (scale_to_opt g base)
