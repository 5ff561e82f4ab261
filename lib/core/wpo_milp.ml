open Netgraph
module Simplex = Linprog.Simplex
module Milp = Linprog.Milp

type t = {
  waypoints : Segments.setting;
  mlu : float;
  exact : bool;
  nodes_explored : int;
}

let solve_ctx (octx : Obs.Ctx.t) ?(max_nodes = 50_000) ?candidates
    ?(max_waypoints = 1) ?warm ?prune g weights demands =
  if max_waypoints < 1 then invalid_arg "Wpo_milp.solve: max_waypoints >= 1";
  Obs.Ctx.span octx "milp:wpo" @@ fun () ->
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let k = Array.length demands in
  let ev = Engine.Evaluator.create g weights in
  let candidates =
    match candidates with Some c -> c | None -> List.init n Fun.id
  in
  (* The preprocessing pass restricts each demand's waypoint universe
     before any z variable is created, shrinking the MILP itself. *)
  let pruner =
    Option.map
      (fun spec ->
        let ev =
          Engine.Evaluator.create ~stats:octx.Obs.Ctx.stats
            ~probe:(Obs.Ctx.probe octx) g weights
        in
        Engine.Evaluator.set_commodities ev demands;
        Prune.prepare octx spec ev demands)
      prune
  in
  (* Per demand: the list of options (ordered waypoint sequences of
     length 0..max_waypoints) with their sparse load vectors.  Options
     with an unroutable segment are dropped. *)
  let options =
    Array.map
      (fun (d : Network.demand) ->
        let usable =
          List.filter
            (fun w -> w <> d.Network.src && w <> d.Network.dst)
            candidates
        in
        let usable =
          match pruner with
          | None -> usable
          | Some p ->
            let keep =
              Prune.candidates p ~src:d.Network.src ~dst:d.Network.dst
            in
            let kept = List.filter (fun w -> Array.exists (( = ) w) keep) usable in
            Engine.Stats.record_pruning octx.Obs.Ctx.stats
              ~pruned:(List.length usable - List.length kept)
              ~kept:(List.length kept);
            kept
        in
        (* All ordered sequences up to the length cap, without immediate
           repeats (a repeat is a degenerate hop). *)
        let rec sequences len =
          if len = 0 then [ [] ]
          else
            List.concat_map
              (fun seq ->
                List.filter_map
                  (fun w ->
                    match seq with
                    | last :: _ when last = w -> None
                    | _ -> Some (w :: seq))
                  usable)
              (sequences (len - 1))
        in
        let all_seqs =
          List.concat_map
            (fun len -> List.map List.rev (sequences len))
            (List.init (max_waypoints + 1) Fun.id)
        in
        let with_loads =
          List.filter_map
            (fun seq ->
              let hops = Segments.segment_endpoints d seq in
              match
                List.map
                  (fun (a, b) -> Engine.Evaluator.unit_load ev ~src:a ~dst:b)
                  hops
              with
              | exception Engine.Evaluator.Unroutable _ -> None
              | segs -> Some (seq, segs))
            all_seqs
        in
        Array.of_list with_loads)
      demands
  in
  (* Variable layout: z variables first, then U last. *)
  let offsets = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    offsets.(i + 1) <- offsets.(i) + Array.length options.(i)
  done;
  let nz = offsets.(k) in
  let uvar = nz in
  let nvars = nz + 1 in
  (* Edge rows: accumulate coefficient of each z on each edge. *)
  let edge_rows = Array.make m [] in
  Array.iteri
    (fun i opts ->
      Array.iteri
        (fun oi (_, segs) ->
          let zvar = offsets.(i) + oi in
          let coeff = Array.make m 0. in
          List.iter
            (fun (s : Engine.Evaluator.sparse) ->
              Array.iteri
                (fun j e ->
                  coeff.(e) <-
                    coeff.(e)
                    +. (demands.(i).Network.size *. s.Engine.Evaluator.flows.(j)))
                s.Engine.Evaluator.edges)
            segs;
          for e = 0 to m - 1 do
            if coeff.(e) <> 0. then edge_rows.(e) <- (zvar, coeff.(e)) :: edge_rows.(e)
          done)
        opts)
    options;
  (* Rows go in last-first, convexity rows before edge rows: the row
     order fixes the simplex's pivot sequence, and with it the
     branch-and-bound tree the node and pivot counts were pinned on. *)
  let b = Simplex.Sparse.builder ~minimize:true nvars in
  Simplex.Sparse.set_obj b uvar 1.;
  for i = k - 1 downto 0 do
    let row = List.init (Array.length options.(i)) (fun oi -> (offsets.(i) + oi, 1.)) in
    Simplex.Sparse.add_row b row Simplex.Eq 1.
  done;
  for e = m - 1 downto 0 do
    if edge_rows.(e) <> [] then
      Simplex.Sparse.add_row b
        ((uvar, -.Digraph.cap g e) :: edge_rows.(e))
        Simplex.Le 0.
  done;
  (* z <= 1 comes from the convexity rows; no explicit bound needed. *)
  let p = Simplex.Sparse.finish b in
  let integer_vars = List.init nz Fun.id in
  let direct_mlu =
    Engine.Evaluator.set_commodities ev demands;
    Engine.Evaluator.mlu ev
  in
  (* Warm start from GreedyWPO (Algorithm 3): the branch and bound then
     acts as an exact verifier/improver and can never return a worse
     setting even when the node limit stops it early. *)
  let initial =
    let greedy =
      Obs.Ctx.span octx "milp:warm-start" (fun () ->
          Greedy_wpo.optimize_ctx octx ?prune g weights demands)
    in
    let x = Array.make nvars 0. in
    let loads = Array.make m 0. in
    Array.iteri
      (fun i opts ->
        let want =
          match greedy.Greedy_wpo.waypoints.(i) with
          | Some w -> [ w ]
          | None -> []
        in
        let oi =
          (* Fall back to the direct option (index 0) when the greedy
             pick is not among this demand's usable options. *)
          let found = ref 0 in
          Array.iteri (fun j (opt, _) -> if opt = want then found := j) opts;
          !found
        in
        x.(offsets.(i) + oi) <- 1.;
        let _, segs = opts.(oi) in
        List.iter
          (fun (s : Engine.Evaluator.sparse) ->
            Array.iteri
              (fun j e ->
                loads.(e) <-
                  loads.(e)
                  +. (demands.(i).Network.size *. s.Engine.Evaluator.flows.(j)))
              s.Engine.Evaluator.edges)
          segs)
      options;
    x.(uvar) <- Engine.Evaluator.mlu_of_loads g loads;
    x
  in
  let result, effort =
    Obs.Ctx.span octx "milp:branch-and-bound" (fun () ->
        Milp.solve ~max_nodes ~initial ?warm
          ~probe:(Obs.Tracer.lp_probe octx.Obs.Ctx.tracer) p ~integer_vars)
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
  | Milp.Solution s when s.Milp.value > direct_mlu +. 1e-9 ->
    (* The node limit stopped the search on a poor incumbent; direct
       routing (all z_{i,none} = 1) is feasible and better. *)
    { waypoints = Array.make k []; mlu = direct_mlu; exact = false;
      nodes_explored = s.Milp.nodes_explored }
  | Milp.Solution s ->
    let waypoints =
      Array.init k (fun i ->
          let choice = ref [] in
          Array.iteri
            (fun oi (opt, _) ->
              if s.Milp.point.(offsets.(i) + oi) > 0.5 then choice := opt)
            options.(i);
          !choice)
    in
    { waypoints; mlu = s.Milp.value; exact = s.Milp.status = Milp.Optimal;
      nodes_explored = s.Milp.nodes_explored }
  | Milp.Infeasible | Milp.Unbounded | Milp.NoIncumbent ->
    (* The direct routing is always feasible, so only a node-limit
       without incumbent can land here; fall back to it. *)
    { waypoints = Array.make k []; mlu = direct_mlu; exact = false;
      nodes_explored = max_nodes }
