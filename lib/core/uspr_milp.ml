open Netgraph
module Simplex = Linprog.Simplex
module Milp = Linprog.Milp

type t = {
  weights : Weights.t;
  mlu : float;
  exact : bool;
  nodes_explored : int;
}

(* Variable layout:
     0                          U
     1 + e                      w_e
     doff + ti*n + v            d_v^t
     yoff + ti*m + e            y_{e,t}   (binary)
     xoff + di*m + e            x_{d,e}   (continuous in [0,1]) *)
let lwo_ctx (octx : Obs.Ctx.t) ?wmax ?(epsilon = 0.1) ?(max_nodes = 20_000)
    ?warm g demands =
  Obs.Ctx.span octx "milp:lwo" @@ fun () ->
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let demands = Demand.aggregate demands in
  let k = Array.length demands in
  let wmax = match wmax with Some w -> w | None -> 4. *. float_of_int n in
  if wmax < 1. then invalid_arg "Uspr_milp.lwo: wmax >= 1 required";
  let big = (float_of_int n *. wmax) +. 1. in
  let targets =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun d -> d.Network.dst) demands))
  in
  let nt = List.length targets in
  let tindex = Hashtbl.create 8 in
  List.iteri (fun i t -> Hashtbl.replace tindex t i) targets;
  (* Which nodes reach each target (computed on the reversed graph). *)
  let reaches =
    Array.of_list
      (List.map
         (fun t -> Paths.reachable (Digraph.reverse g) ~source:t)
         targets)
  in
  Array.iter
    (fun (d : Network.demand) ->
      let ti = Hashtbl.find tindex d.Network.dst in
      if not reaches.(ti).(d.Network.src) then
        failwith
          (Printf.sprintf "Uspr_milp.lwo: demand %d->%d is not routable"
             d.Network.src d.Network.dst))
    demands;
  let uvar = 0 in
  let wvar e = 1 + e in
  let doff = 1 + m in
  let dvar ti v = doff + (ti * n) + v in
  let yoff = doff + (nt * n) in
  let yvar ti e = yoff + (ti * m) + e in
  let xoff = yoff + (nt * m) in
  let xvar di e = xoff + (di * m) + e in
  let nvars = xoff + (k * m) in
  (* Rows are collected newest-first and fed to the builder in that
     order: the row order fixes the simplex's pivot sequence, and with
     it the branch-and-bound tree the node and pivot counts were pinned
     on. *)
  let rows = ref [] in
  let add row rel rhs = rows := (row, rel, rhs) :: !rows in
  (* Weight bounds. *)
  for e = 0 to m - 1 do
    add [ (wvar e, 1.) ] Simplex.Ge 1.;
    add [ (wvar e, 1.) ] Simplex.Le wmax
  done;
  List.iteri
    (fun ti t ->
      (* Root potential. *)
      add [ (dvar ti t, 1.) ] Simplex.Eq 0.;
      for e = 0 to m - 1 do
        let v = Digraph.src g e and u = Digraph.dst g e in
        (* d_v <= w_e + d_u  (shortest-path lower bound). *)
        add [ (dvar ti v, 1.); (dvar ti u, -1.); (wvar e, -1.) ] Simplex.Le 0.;
        if reaches.(ti).(v) && v <> t then begin
          if reaches.(ti).(u) then begin
            (* Selected edge is tight: w_e + d_u - d_v <= M (1 - y). *)
            add
              [ (wvar e, 1.); (dvar ti u, 1.); (dvar ti v, -1.);
                (yvar ti e, big) ]
              Simplex.Le big;
            (* Non-selected edges are longer by the margin:
               w_e + d_u - d_v + M y >= epsilon. *)
            add
              [ (wvar e, 1.); (dvar ti u, 1.); (dvar ti v, -1.);
                (yvar ti e, big) ]
              Simplex.Ge epsilon
          end
          else
            (* Heads that cannot reach the target are never selected. *)
            add [ (yvar ti e, 1.) ] Simplex.Eq 0.
        end
        else
          (* Nodes that cannot reach t (or t itself) select nothing. *)
          add [ (yvar ti e, 1.) ] Simplex.Eq 0.
      done;
      (* Exactly one forwarding edge per reaching node. *)
      for v = 0 to n - 1 do
        if v <> t && reaches.(ti).(v) then begin
          let row =
            Array.to_list (Digraph.out_edges g v)
            |> List.map (fun e -> (yvar ti e, 1.))
          in
          add row Simplex.Eq 1.
        end
      done)
    targets;
  (* Per-demand unit flow on the forwarding tree. *)
  Array.iteri
    (fun di (d : Network.demand) ->
      let ti = Hashtbl.find tindex d.Network.dst in
      for v = 0 to n - 1 do
        if v <> d.Network.dst then begin
          let row = ref [] in
          Array.iter (fun e -> row := (xvar di e, 1.) :: !row) (Digraph.out_edges g v);
          Array.iter (fun e -> row := (xvar di e, -1.) :: !row) (Digraph.in_edges g v);
          add !row Simplex.Eq (if v = d.Network.src then 1. else 0.)
        end
      done;
      for e = 0 to m - 1 do
        add [ (xvar di e, 1.); (yvar ti e, -1.) ] Simplex.Le 0.
      done)
    demands;
  (* Capacity rows. *)
  for e = 0 to m - 1 do
    let row =
      (uvar, -.Digraph.cap g e)
      :: List.init k (fun di -> (xvar di e, demands.(di).Network.size))
    in
    add row Simplex.Le 0.
  done;
  let problem =
    let b = Simplex.Sparse.builder ~minimize:true nvars in
    Simplex.Sparse.set_obj b uvar 1.;
    List.iter
      (fun (row, rel, rhs) -> Simplex.Sparse.add_row b row rel rhs)
      !rows;
    Simplex.Sparse.finish b
  in
  let integer_vars =
    List.concat_map
      (fun ti -> List.init m (fun e -> yvar ti e))
      (List.init nt Fun.id)
  in
  (* Warm start: the hop-count shortest-path trees (Dijkstra parents on
     unit weights), with non-tree weights lifted to satisfy the margin. *)
  let initial =
    let x0 = Array.make nvars 0. in
    let w0 = Array.make m 1. in
    let loads = Array.make m 0. in
    let dist_tbl = Hashtbl.create 8 in
    List.iteri
      (fun ti t ->
        let unit_w = Array.make m 1. in
        let dist = Paths.dijkstra_to g ~weights:unit_w ~target:t in
        Hashtbl.replace dist_tbl ti dist;
        (* Parent = first out-edge achieving dist(v) = 1 + dist(u). *)
        for v = 0 to n - 1 do
          if v <> t && reaches.(ti).(v) then begin
            let chosen = ref (-1) in
            Array.iter
              (fun e ->
                let u = Digraph.dst g e in
                if
                  !chosen < 0
                  && dist.(u) < infinity
                  && abs_float (1. +. dist.(u) -. dist.(v)) < 1e-9
                then chosen := e)
              (Digraph.out_edges g v);
            if !chosen >= 0 then x0.(yvar ti !chosen) <- 1.
          end;
          if reaches.(ti).(v) && dist.(v) < infinity then
            x0.(dvar ti v) <- dist.(v)
        done)
      targets;
    (* Lift weights of all non-selected edges so every margin holds for
       every target simultaneously: w_e >= max_t (d_v^t - d_u^t) + eps. *)
    for e = 0 to m - 1 do
      let v = Digraph.src g e and u = Digraph.dst g e in
      let needed = ref 1. in
      List.iteri
        (fun ti _t ->
          if x0.(yvar ti e) < 0.5 && reaches.(ti).(v) then begin
            let dist = Hashtbl.find dist_tbl ti in
            if dist.(v) < infinity && dist.(u) < infinity then
              needed := max !needed (dist.(v) -. dist.(u) +. (2. *. epsilon))
          end)
        targets;
      w0.(e) <- min wmax !needed
    done;
    (* Selected edges must stay tight at weight 1 — if a lifted weight
       clashes with a selection for another target, the warm start is
       simply rejected by the feasibility check (harmless). *)
    List.iteri
      (fun ti _ ->
        for e = 0 to m - 1 do
          if x0.(yvar ti e) > 0.5 then w0.(e) <- 1.
        done)
      targets;
    for e = 0 to m - 1 do
      x0.(wvar e) <- w0.(e)
    done;
    (* Route demands along the trees. *)
    Array.iteri
      (fun di (d : Network.demand) ->
        let ti = Hashtbl.find tindex d.Network.dst in
        let rec walk v =
          if v <> d.Network.dst then begin
            let next = ref (-1) in
            Array.iter
              (fun e -> if x0.(yvar ti e) > 0.5 then next := e)
              (Digraph.out_edges g v);
            if !next >= 0 then begin
              x0.(xvar di !next) <- 1.;
              loads.(!next) <- loads.(!next) +. d.Network.size;
              walk (Digraph.dst g !next)
            end
          end
        in
        walk d.Network.src)
      demands;
    x0.(uvar) <- Engine.Evaluator.mlu_of_loads g loads;
    x0
  in
  let result, effort =
    Obs.Ctx.span octx "milp:branch-and-bound" (fun () ->
        Milp.solve ~max_nodes ~initial ?warm
          ~probe:(Obs.Tracer.lp_probe octx.Obs.Ctx.tracer) problem
          ~integer_vars)
  in
  (let nodes =
     match result with
     | Milp.Solution sol -> sol.Milp.nodes_explored
     | Milp.Infeasible | Milp.Unbounded | Milp.NoIncumbent -> max_nodes
   in
   let s = octx.Obs.Ctx.stats in
   Engine.Stats.record_lp s ~solves:effort.Milp.lp_solves
     ~pivots:effort.Milp.lp_pivots ~warm:effort.Milp.warm_solves;
   s.Engine.Stats.milp_nodes <- s.milp_nodes + nodes;
   s.milp_cycle_limits <- s.milp_cycle_limits + effort.Milp.cycle_limits);
  match result with
  | Milp.Solution s ->
    let weights = Array.init m (fun e -> s.Milp.point.(wvar e)) in
    { weights; mlu = s.Milp.value; exact = s.Milp.status = Milp.Optimal;
      nodes_explored = s.Milp.nodes_explored }
  | Milp.Infeasible -> failwith "Uspr_milp.lwo: infeasible (internal)"
  | Milp.Unbounded -> failwith "Uspr_milp.lwo: unbounded (internal)"
  | Milp.NoIncumbent -> failwith "Uspr_milp.lwo: node limit with no incumbent"

type joint_result = {
  setting : t;
  waypoints : Segments.setting;
}

let joint_ctx (octx : Obs.Ctx.t) ?wmax ?epsilon ?max_nodes ?candidates
    ?(max_combos = 512) g demands =
  let n = Digraph.node_count g in
  let k = Array.length demands in
  let candidates =
    match candidates with Some c -> c | None -> List.init n Fun.id
  in
  let options_for (d : Network.demand) =
    []
    :: List.filter_map
         (fun w ->
           if w = d.Network.src || w = d.Network.dst then None else Some [ w ])
         candidates
  in
  let options = Array.map options_for demands in
  let combos =
    Array.fold_left (fun acc o -> acc *. float_of_int (List.length o)) 1. options
  in
  if combos > float_of_int max_combos then
    invalid_arg
      (Printf.sprintf "Uspr_milp.joint: %.0f assignments exceed max_combos=%d"
         combos max_combos);
  let best = ref None in
  let setting = Array.make k [] in
  let rec enumerate i =
    if i = k then begin
      let split = Segments.expand demands setting in
      let r = lwo_ctx octx ?wmax ?epsilon ?max_nodes g split in
      match !best with
      | Some (bs, _) when bs.mlu <= r.mlu +. 1e-12 -> ()
      | _ -> best := Some (r, Array.copy setting)
    end
    else
      List.iter
        (fun opt ->
          setting.(i) <- opt;
          enumerate (i + 1))
        options.(i)
  in
  Obs.Ctx.span octx
    ~attrs:[ Obs.Attr.int "assignments" (int_of_float combos) ]
    "milp:joint" (fun () -> enumerate 0);
  match !best with
  | Some (s, wps) -> { setting = s; waypoints = wps }
  | None -> assert false (* at least the all-direct assignment is tried *)
