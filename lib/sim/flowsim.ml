open Netgraph

type stream = {
  flow : int;
  src : int;
  dst : int;
  rate : float;
  waypoints : int list;
}

let route ?(salt = 0) g weights streams =
  let ev = Engine.Evaluator.create g weights in
  let loads = Array.make (Digraph.edge_count g) 0. in
  Array.iter
    (fun s ->
      let d = { Te.Network.src = s.src; dst = s.dst; size = s.rate } in
      List.iter
        (fun (a, b) ->
          let dag = Engine.Evaluator.dag ev ~target:b in
          if dag.Engine.Evaluator.dist.(a) = infinity then
            raise (Engine.Evaluator.Unroutable (a, b));
          (* Walk from [a] to [b]; the hash picks one equal-cost next
             hop at every node.  Distances strictly decrease, so the
             walk terminates. *)
          let rec walk v =
            if v <> b then begin
              let hops = dag.Engine.Evaluator.out_sp.(v) in
              let i =
                Hashing.next_hop_index ~flow:s.flow ~node:v ~salt
                  ~choices:(Array.length hops)
              in
              let e = hops.(i) in
              loads.(e) <- loads.(e) +. s.rate;
              walk (Digraph.dst g e)
            end
          in
          walk a)
        (Te.Segments.segment_endpoints d s.waypoints))
    streams;
  loads

let streams_of_demands ~streams_per_demand demands setting =
  if streams_per_demand < 1 then
    invalid_arg "Flowsim.streams_of_demands: streams_per_demand >= 1";
  if Array.length setting <> Array.length demands then
    invalid_arg "Flowsim.streams_of_demands: setting length mismatch";
  let out = ref [] in
  Array.iteri
    (fun i (d : Te.Network.demand) ->
      for k = streams_per_demand - 1 downto 0 do
        out :=
          {
            flow = (i * streams_per_demand) + k;
            src = d.Te.Network.src;
            dst = d.Te.Network.dst;
            rate = d.Te.Network.size /. float_of_int streams_per_demand;
            waypoints = setting.(i);
          }
          :: !out
      done)
    demands;
  Array.of_list !out
