(* Reproduction harness: one experiment per table/figure of the paper.

     dune exec bench/main.exe                 -- run everything (quick)
     dune exec bench/main.exe -- fig4 fig7    -- selected experiments
     dune exec bench/main.exe -- --full fig4  -- paper-scale parameters

   Quick mode shrinks seeds / evaluation budgets so the whole harness
   finishes in a few minutes; --full restores the paper's scale.
   EXPERIMENTS.md records paper-vs-measured numbers.  The measuring
   experiments (engine ... solvers) also write BENCH_*.json files, and
   the harness exits 1 if any of their fatal gates failed. *)

open Netgraph
open Te

let full = ref false

(* --scale: the engine experiment's size-scaling sweep loads real
   TopologyZoo GraphML files from [data_dir] when present (see
   examples/fetch_topologyzoo.sh) instead of the synthetic stand-ins. *)
let scale = ref false

let data_dir = ref "examples/data"

(* Worker domains for the sharded sweeps (--jobs N).  The pool is
   created once in the driver; every experiment prints the same output
   for every pool size. *)
let the_pool = ref Par.Pool.sequential

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let fmin xs = List.fold_left min infinity xs

let fmax xs = List.fold_left max neg_infinity xs

(* ------------------------------------------------------------------ *)
(* Registry entries on one shared run (Figures 4, 5, 6)                *)
(* ------------------------------------------------------------------ *)

let ls_params ~seed ~evals =
  { Local_search.default_params with max_evals = evals; seed }

(* The registry entries [names] solved together on one instance, so
   their shared HeurOSPF prefix runs once. *)
let solve_entries names g demands ~seed ~evals =
  let config = { Solver.default_config with Solver.seed; evals } in
  Solver.solve_many config (Obs.Ctx.make ()) g demands
    (List.map (fun n -> Option.get (Solver.find n)) names)
  |> List.map2 (fun n (r, _) -> (n, r)) names

(* The four heuristics of Figure 4, in the paper's order, plus the two
   diversity backends (OMW splitting on top of the HeurOSPF weights,
   GradWO descending on the exact min-MLU LP's edge flows): header,
   registry entry, value.  InverseCapacity is HeurOSPF's start. *)
let fig_columns =
  let mlu r = r.Solver.mlu in
  [ ("InverseCapacity", "lwo", fun r -> r.Solver.initial_mlu);
    ("HeurOSPF", "lwo", mlu); ("GreedyWaypoints", "wpo", mlu);
    ("JointHeur", "joint", mlu); ("OMW", "omw", mlu); ("GradWO", "grad", mlu) ]

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let exp_table1 () =
  section "Table 1: TE gaps for single source-target demands";
  row "Lower bounds (measured gap = separate-optimization MLU / Joint MLU):\n\n";
  row "%-34s %-12s %4s %12s %14s\n" "instance / weight setting" "capacities" "W"
    "measured" "paper bound";
  let sizes = if !full then [ 4; 8; 16; 32 ] else [ 4; 8; 16 ] in
  (* W = 1 rows: TE-Instance 1 (Theorem 3.4). *)
  List.iter
    (fun m ->
      let inst = Instances.Gap_instances.instance1 ~m in
      let net = inst.Instances.Gap_instances.network in
      let g = net.Network.graph in
      let joint =
        Ecmp.mlu_of ~waypoints:inst.Instances.Gap_instances.joint_waypoints g
          inst.Instances.Gap_instances.joint_weights net.Network.demands
      in
      let lwo =
        Ecmp.mlu_of g
          (Option.get inst.Instances.Gap_instances.lwo_weights)
          net.Network.demands
      in
      let wpo_unit =
        if m <= 4 then
          snd (Exact.wpo g (Weights.unit g) net.Network.demands)
        else
          (Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g (Weights.unit g) net.Network.demands).Greedy_wpo.mlu
      in
      row "%-34s %-12s %4d %12.2f %14s\n"
        (Printf.sprintf "I1(m=%d) optimal-LWO weights" m)
        "arbitrary" 1 (lwo /. joint)
        (Printf.sprintf "Omega(n)=%g" (float_of_int m /. 2.));
      row "%-34s %-12s %4d %12.2f %14s\n"
        (Printf.sprintf "I1(m=%d) unit weights, WPO" m)
        "arbitrary" 1 (wpo_unit /. joint)
        (Printf.sprintf ">=(n-1)/3=%g" (float_of_int m /. 3.)))
    sizes;
  (* W = 2 rows: TE-Instance 3 (Theorem 3.15 flavour). *)
  List.iter
    (fun m ->
      let inst = Instances.Gap_instances.instance3 ~m in
      let net = inst.Instances.Gap_instances.network in
      let g = net.Network.graph in
      let joint =
        Ecmp.mlu_of ~waypoints:inst.Instances.Gap_instances.joint_waypoints g
          inst.Instances.Gap_instances.joint_weights net.Network.demands
      in
      (* Approximately optimal LWO weights from Algorithm 1; on this
         instance they achieve the max ES-flow of 2, i.e. MLU = D/2. *)
      let apx =
        Lwo_apx.solve g ~source:inst.Instances.Gap_instances.source
          ~target:inst.Instances.Gap_instances.target
      in
      let lwo_apx = Ecmp.mlu_of g apx.Lwo_apx.weights net.Network.demands in
      let d = Network.total_demand net in
      row "%-34s %-12s %4d %12.2f %14s\n"
        (Printf.sprintf "I3(m=%d) LWO-APX weights" m)
        "arbitrary" 2 (lwo_apx /. joint)
        (Printf.sprintf "Omega(nlogn)~%.1f" (d /. 2.)))
    (if !full then [ 4; 8; 16 ] else [ 4; 8 ]);
  row "\nUpper bounds:\n\n";
  (* Theorem 4.2: uniform capacities -> gap 1. *)
  let g =
    Digraph.of_edges ~n:8
      [ (0, 1, 3.); (1, 7, 3.); (0, 2, 3.); (2, 7, 3.); (0, 3, 3.); (3, 4, 3.);
        (4, 7, 3.); (1, 4, 3.); (2, 3, 3.); (0, 7, 3.) ]
  in
  let demands = [| Network.demand 0 7 6. |] in
  let w = Lwo_apx.uniform_optimal_weights g ~source:0 ~target:7 in
  let lwo = Ecmp.mlu_of g w demands in
  let opt = Mcf.opt_mlu g demands in
  row "%-34s %-12s %4s %12.2f %14s\n" "Theorem 4.2 construction" "uniform" "-"
    (lwo /. opt) "= 1";
  (* Theorem 4.3: widest-path weights -> gap <= |P| <= |E|. *)
  let inst = Instances.Gap_instances.instance2 ~m:8 in
  let net = inst.Instances.Gap_instances.network in
  let g2 = net.Network.graph in
  let w2 =
    Lwo_apx.widest_path_weights g2 ~source:inst.Instances.Gap_instances.source
      ~target:inst.Instances.Gap_instances.target
  in
  let lwo2 = Ecmp.mlu_of g2 w2 net.Network.demands in
  let opt2 = Mcf.opt_mlu g2 net.Network.demands in
  row "%-34s %-12s %4s %12.2f %14s\n" "Theorem 4.3 (I2 m=8, widest path)"
    "arbitrary" "-" (lwo2 /. opt2)
    (Printf.sprintf "<=|E|=%d" (Digraph.edge_count g2));
  (* Corollary 4.4 via LWO-APX on instance 3. *)
  let inst3 = Instances.Gap_instances.instance3 ~m:6 in
  let g3 = inst3.Instances.Gap_instances.network.Network.graph in
  let r =
    Lwo_apx.solve g3 ~source:inst3.Instances.Gap_instances.source
      ~target:inst3.Instances.Gap_instances.target
  in
  let n3 = float_of_int (Digraph.node_count g3) in
  row "%-34s %-12s %4s %12.2f %14s\n" "LWO-APX ratio (I3 m=6)" "arbitrary" "-"
    (Lwo_apx.approximation_ratio r)
    (Printf.sprintf "<=n*ln n=%.0f" (n3 *. Float.round (log n3)))

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let exp_fig1 () =
  section "Figure 1 / Lemmas 3.5-3.7: TE-Instance 1 gaps vs n";
  row "%6s %6s %10s %12s %12s %16s\n" "m" "n" "Joint" "LWO(opt w)" "WPO(unit)"
    "paper: m/2, >=m/3";
  let sizes = if !full then [ 4; 8; 16; 32; 64 ] else [ 4; 8; 16; 32 ] in
  List.iter
    (fun m ->
      let inst = Instances.Gap_instances.instance1 ~m in
      let net = inst.Instances.Gap_instances.network in
      let g = net.Network.graph in
      let joint =
        Ecmp.mlu_of ~waypoints:inst.Instances.Gap_instances.joint_waypoints g
          inst.Instances.Gap_instances.joint_weights net.Network.demands
      in
      let lwo =
        Ecmp.mlu_of g
          (Option.get inst.Instances.Gap_instances.lwo_weights)
          net.Network.demands
      in
      let wpo =
        (Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) g (Weights.unit g) net.Network.demands).Greedy_wpo.mlu
      in
      row "%6d %6d %10.3f %12.3f %12.3f %16s\n" m (m + 1) joint lwo wpo
        (Printf.sprintf "%.1f, %.1f" (float_of_int m /. 2.) (float_of_int m /. 3.)))
    sizes

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let exp_fig2 () =
  section "Figure 2 / Lemmas 3.10-3.14: harmonic instances";
  row "(a) TE-Instance 2: max ES-flow vs max flow\n";
  row "%6s %12s %12s %14s\n" "m" "max-flow" "max ES-flow" "paper: H_m, 1";
  List.iter
    (fun m ->
      let inst = Instances.Gap_instances.instance2 ~m in
      let g = inst.Instances.Gap_instances.network.Network.graph in
      let f =
        Maxflow.max_flow g ~source:inst.Instances.Gap_instances.source
          ~target:inst.Instances.Gap_instances.target
      in
      let es =
        Ecmp.max_es_flow_value g (Weights.unit g)
          ~src:inst.Instances.Gap_instances.source
          ~dst:inst.Instances.Gap_instances.target
      in
      row "%6d %12.3f %12.3f %14.3f\n" m f.Maxflow.value es
        (Instances.Gap_instances.harmonic m))
    (if !full then [ 4; 8; 16; 32; 64 ] else [ 4; 8; 16 ]);
  row "\n(b,c) TE-Instances 3/4/5: Joint = 1 with 2 waypoints per half\n";
  row "%-14s %6s %10s %14s %18s\n" "instance" "n" "Joint" "LWO(APX w)" "paper: 1, ~D/2";
  List.iter
    (fun (name, inst) ->
      let net = inst.Instances.Gap_instances.network in
      let g = net.Network.graph in
      let joint =
        Ecmp.mlu_of ~waypoints:inst.Instances.Gap_instances.joint_waypoints g
          inst.Instances.Gap_instances.joint_weights net.Network.demands
      in
      let apx =
        Lwo_apx.solve g ~source:inst.Instances.Gap_instances.source
          ~target:inst.Instances.Gap_instances.target
      in
      let apx_mlu = Ecmp.mlu_of g apx.Lwo_apx.weights net.Network.demands in
      row "%-14s %6d %10.3f %14.3f %18.1f\n" name (Digraph.node_count g) joint
        apx_mlu
        (Network.total_demand net /. 2.))
    [ ("instance3", Instances.Gap_instances.instance3 ~m:6);
      ("instance4", Instances.Gap_instances.instance4 ~m:6);
      ("instance5", Instances.Gap_instances.instance5 ~m:4) ]

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

let exp_fig3 () =
  section "Figure 3: effective capacities (Definition 5.1)";
  let show name (g, s, t) expected =
    row "%s:\n" name;
    let usable = Array.init (Digraph.edge_count g) (Digraph.cap g) in
    let ec = Lwo_apx.effective_capacities g ~usable ~source:s ~target:t in
    List.iter
      (fun (node, paper) ->
        let v = Digraph.node_of_name g node in
        row "  ec(%-3s) = %8.4f   (paper: %s)\n" node ec.Lwo_apx.node.(v) paper)
      expected;
    ignore s
  in
  show "Figure 3a" (Instances.Gap_instances.fig3a ())
    [ ("v1", "1/2"); ("v2", "2 x 1/4 = 1/2"); ("v3", "3/4"); ("s", "3/2") ];
  show "Figure 3b" (Instances.Gap_instances.fig3b ())
    [ ("v1", "2 x 1/6 = 1/3"); ("v2", "2 x 1/3 = 2/3"); ("v3", "1/2");
      ("v4", "1"); ("s", "2 x 1/3 = 2/3") ]

(* ------------------------------------------------------------------ *)
(* Figures 4 and 6                                                     *)
(* ------------------------------------------------------------------ *)

let run_ladder_table ~title ~names ~gen_demands ~seeds ~evals =
  section title;
  row "%-14s" "topology";
  List.iter (fun (a, _, _) -> row " %15s" a) fig_columns;
  row "\n";
  (* One shard per (topology, demand matrix); the shards are mutually
     independent, so they fan out over the pool.  Each shard loads its
     own graph and generates its own demands, so no mutable state is
     shared between domains.  Aggregation walks the results in shard
     index order, which keeps the printed table identical for every
     --jobs. *)
  let shards =
    List.concat_map (fun name -> List.init seeds (fun s -> (name, s + 1))) names
    |> Array.of_list
  in
  let entries = List.sort_uniq compare (List.map (fun (_, e, _) -> e) fig_columns) in
  let results =
    Par.Pool.map !the_pool ~tasks:(Array.length shards) (fun ~worker:_ i ->
        let name, seed = shards.(i) in
        let g = Topology.Datasets.load name in
        let rs = solve_entries entries g (gen_demands g seed) ~seed ~evals in
        List.map (fun (_, e, f) -> f (List.assoc e rs)) fig_columns)
  in
  let print_row label rs =
    row "%-14s" label;
    List.iteri
      (fun k _ -> row " %15.3f" (mean (List.map (fun r -> List.nth r k) rs)))
      fig_columns;
    row "\n%!"
  in
  List.iteri
    (fun ni name ->
      print_row name (List.init seeds (fun s -> results.((ni * seeds) + s))))
    names;
  print_row "AVERAGE" (Array.to_list results)

let exp_fig4 () =
  let seeds = if !full then 10 else 2 in
  let evals = if !full then 3000 else 400 in
  let gen g seed =
    let flows =
      if !full then max 1 (Digraph.edge_count g / 4)
      else max 2 (Digraph.edge_count g / 16)
    in
    Demand_gen.mcf_synthetic ~seed ~flows_per_pair:flows g
  in
  run_ladder_table
    ~title:
      (Printf.sprintf
         "Figure 4: MLU on the 10 largest topologies, MCF synthetic demands \
          (%d seeds; paper averages: 2.74 / 1.65 / - / 1.58)"
         seeds)
    ~names:Topology.Datasets.fig4_names ~gen_demands:gen ~seeds ~evals

let exp_fig6 () =
  let seeds = if !full then 10 else 3 in
  let evals = if !full then 3000 else 500 in
  let gen g seed = Demand_gen.gravity ~seed g in
  run_ladder_table
    ~title:
      (Printf.sprintf
         "Figure 6: MLU under skewed all-pairs (real-like) demands (%d seeds; \
          paper averages: HeurOSPF 1.11 -> Joint 1.05)"
         seeds)
    ~names:Topology.Datasets.fig6_names ~gen_demands:gen ~seeds ~evals

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let exp_fig5 () =
  section
    "Figure 5: heuristics vs exact references on Abilene (paper averages: \
     WPO 1.17, LWO 1.04, Joint 1.03)";
  let g = Topology.Datasets.abilene () in
  let seeds = if !full then 10 else 3 in
  let evals = if !full then 4000 else 800 in
  let flows = if !full then 7 else 2 in
  let acc = Hashtbl.create 16 in
  let push k v =
    Hashtbl.replace acc k (v :: (try Hashtbl.find acc k with Not_found -> []))
  in
  for seed = 1 to seeds do
    let demands =
      Demand_gen.mcf_synthetic ~seed ~flows_per_pair:flows g
    in
    push "UnitWeights" (Ecmp.mlu_of g (Weights.unit g) demands);
    let rs = solve_entries [ "lwo"; "wpo"; "joint" ] g demands ~seed ~evals in
    let mlu n = (List.assoc n rs).Solver.mlu in
    push "InverseCapacity" (List.assoc "lwo" rs).Solver.initial_mlu;
    push "HeurOSPF" (mlu "lwo");
    (* ILP-Weights proxy: the best of several deeper local searches
       (see DESIGN.md: the weight MILP is out of reach for our B&B). *)
    let deep =
      List.fold_left
        (fun best s ->
          let r =
            Local_search.optimize_ctx (Obs.Ctx.make ())
              ~params:
                { Local_search.default_params with
                  max_evals = 2 * evals; seed = s; wmax = 24 }
              g demands
          in
          min best r.Local_search.mlu)
        infinity
        [ seed; seed + 100; seed + 200 ]
    in
    push "ILP-Weights*" deep;
    push "GreedyWaypoints" (mlu "wpo");
    (* ILP Waypoints: the WPO MILP under the standard (inverse-capacity)
       weight setting, as in the paper's WPO-with-fixed-weights MILP. *)
    let milp =
      Wpo_milp.solve_ctx (Obs.Ctx.make ())
        ~max_nodes:(if !full then 20_000 else 3_000)
        g (Weights.inverse_capacity g) (Demand.aggregate demands)
    in
    push
      (if milp.Wpo_milp.exact then "ILP-Waypoints" else "ILP-Waypoints(cap)")
      milp.Wpo_milp.mlu;
    push "JointHeur" (mlu "joint");
    (* ILP-Joint proxy: deep weights + exact WPO MILP on top. *)
    let deep_w =
      (Local_search.optimize_ctx (Obs.Ctx.make ())
         ~params:
           { Local_search.default_params with max_evals = 2 * evals;
             seed = seed + 300; wmax = 24 }
         g demands)
        .Local_search.weights
    in
    let milp2 =
      Wpo_milp.solve_ctx (Obs.Ctx.make ())
        ~max_nodes:(if !full then 20_000 else 3_000)
        g (Weights.of_ints deep_w) (Demand.aggregate demands)
    in
    (* Best joint setting any of our searches found. *)
    push "ILP-Joint*" (min (min deep milp2.Wpo_milp.mlu) (mlu "joint"))
  done;
  row "%-22s %10s %10s %10s\n" "algorithm" "mean" "min" "max";
  List.iter
    (fun k ->
      match Hashtbl.find_opt acc k with
      | Some vs -> row "%-22s %10.3f %10.3f %10.3f\n" k (mean vs) (fmin vs) (fmax vs)
      | None -> ())
    [ "UnitWeights"; "InverseCapacity"; "HeurOSPF"; "ILP-Weights*";
      "GreedyWaypoints"; "ILP-Waypoints"; "ILP-Waypoints(cap)"; "JointHeur";
      "ILP-Joint*" ];
  row "(* = exhaustive-search proxy for the paper's weight MILP, see DESIGN.md)\n"

(* ------------------------------------------------------------------ *)
(* MILP demonstration on small networks (§7.1 "Small Networks")        *)
(* ------------------------------------------------------------------ *)

let exp_milp () =
  section
    "MILP on small networks (the paper's exact-solver demonstration, \
     USPR regime; see DESIGN.md)";
  row "%-22s %10s %10s %12s %12s %12s\n" "instance" "LWO-MILP" "WPO-MILP"
    "Joint-MILP" "brute Joint" "Joint(lemma)";
  List.iter
    (fun m ->
      let inst = Instances.Gap_instances.instance1 ~m in
      let net = inst.Instances.Gap_instances.network in
      let g = net.Network.graph in
      let lwo = Uspr_milp.lwo_ctx (Obs.Ctx.make ()) g net.Network.demands in
      let wpo =
        Wpo_milp.solve_ctx (Obs.Ctx.make ()) g (Weights.unit g)
          net.Network.demands
      in
      let jm =
        Uspr_milp.joint_ctx (Obs.Ctx.make ()) ~max_combos:300 g
          net.Network.demands
      in
      let (_, _, brute), _ = Exact.joint ~weight_domain:[ 1; 3 ] g net.Network.demands in
      let lemma =
        Ecmp.mlu_of ~waypoints:inst.Instances.Gap_instances.joint_waypoints g
          inst.Instances.Gap_instances.joint_weights net.Network.demands
      in
      row "%-22s %9.3f%s %9.3f%s %11.3f%s %12.3f %12.3f\n"
        (Printf.sprintf "TE-Instance-1 (m=%d)" m)
        lwo.Uspr_milp.mlu
        (if lwo.Uspr_milp.exact then "" else "~")
        wpo.Wpo_milp.mlu
        (if wpo.Wpo_milp.exact then "" else "~")
        jm.Uspr_milp.setting.Uspr_milp.mlu
        (if jm.Uspr_milp.setting.Uspr_milp.exact then "" else "~")
        brute lemma)
    [ 2; 3 ];
  row "(~ = node-limit hit; USPR LWO cannot split same-pair demands, so its\n";
  row " optimum is m while the joint MILP reaches the true optimum 1.)\n"

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let exp_fig7 () =
  section
    "Figure 7: Nanonet substitute - hash-based ECMP on TE-Instance 1 (paper: \
     Joint ~1.014; Weights median ~2.27, range 2.14-2.52)";
  let s = Netsim.Nanonet.run ~trials:10 () in
  row "%-8s %12s %12s\n" "trial" "Joint" "Weights";
  List.iteri
    (fun i t ->
      row "%-8d %12.4f %12.4f\n" (i + 1) t.Netsim.Nanonet.joint
        t.Netsim.Nanonet.weights)
    s.Netsim.Nanonet.trials;
  row "\nJoint median   %.4f\n" s.Netsim.Nanonet.joint_median;
  row "Weights median %.4f (range %.4f - %.4f)\n" s.Netsim.Nanonet.weights_median
    s.Netsim.Nanonet.weights_min s.Netsim.Nanonet.weights_max

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let exp_ablation () =
  section "Ablations (design choices, see DESIGN.md)";
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g
  in
  let evals = if !full then 2000 else 500 in
  (* 1. HeurOSPF objective: Phi vs MLU. *)
  row "HeurOSPF guiding objective (Abilene, %d evals):\n" evals;
  List.iter
    (fun (label, use_phi) ->
      let r =
        Local_search.optimize_ctx (Obs.Ctx.make ())
          ~params:
            { Local_search.default_params with max_evals = evals; seed = 5; use_phi }
          g demands
      in
      row "  %-18s MLU %.3f\n" label r.Local_search.mlu)
    [ ("Fortz-Thorup Phi", true); ("raw MLU", false) ];
  (* 2. GreedyWPO demand order. *)
  row "GreedyWPO demand order (Abilene, inverse-capacity weights):\n";
  let inv_w = Weights.inverse_capacity g in
  List.iter
    (fun (label, order) ->
      let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) ~order g inv_w demands in
      row "  %-18s MLU %.3f (from %.3f)\n" label r.Greedy_wpo.mlu
        r.Greedy_wpo.initial_mlu)
    [ ("descending (paper)", Greedy_wpo.Desc); ("ascending", Greedy_wpo.Asc);
      ("random", Greedy_wpo.Random 42) ];
  (* 3. JOINT-Heur pipeline depth. *)
  row "JOINT-Heur stages (paper: steps 3-4 gains negligible):\n";
  let r =
    Joint.optimize_ctx (Obs.Ctx.make ()) ~ls_params:(ls_params ~seed:5 ~evals)
      ~full_pipeline:true g demands
  in
  row "  %-18s MLU %.3f\n" "steps 1-2" (List.assoc "GreedyWPO" r.Joint.stage_mlu);
  row "  %-18s MLU %.3f\n" "steps 1-4" r.Joint.mlu;
  (* 4. LWO-APX pruning. *)
  row "LWO-APX argmax pruning (instance 3, m=6):\n";
  let inst = Instances.Gap_instances.instance3 ~m:6 in
  let g3 = inst.Instances.Gap_instances.network.Network.graph in
  List.iter
    (fun (label, prune) ->
      let r =
        Lwo_apx.solve ~prune g3 ~source:inst.Instances.Gap_instances.source
          ~target:inst.Instances.Gap_instances.target
      in
      row "  %-18s ES-flow %.3f (of max-flow %.3f)\n" label
        r.Lwo_apx.es_flow_value r.Lwo_apx.max_flow_value)
    [ ("with pruning", true); ("no pruning", false) ];
  (* 4b. Improvement passes over Algorithm 3 (extension): revisiting
     demands repairs part of the sequential greedy's order-dependence. *)
  row "GreedyWPO improvement passes (Germany50, inverse-capacity weights):\n";
  let g50 = Topology.Datasets.load "Germany50" in
  let d50 =
    Demand_gen.mcf_synthetic ~seed:3 ~flows_per_pair:4 g50
  in
  List.iter
    (fun passes ->
      let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ()) ~passes g50 (Weights.inverse_capacity g50) d50 in
      row "  %d pass%s            MLU %.3f\n" passes
        (if passes = 1 then " " else "es")
        r.Greedy_wpo.mlu)
    [ 1; 2; 3 ];
  (* 5. How many waypoints suffice?  (the paper's §8 open question) —
     multi-round greedy on instance 3, where 1 waypoint is provably not
     enough but 2 are (Lemma 3.11). *)
  row "Waypoints per demand (multi-round greedy, instance 3 m=4, lemma weights):\n";
  let i3 = Instances.Gap_instances.instance3 ~m:4 in
  let n3 = i3.Instances.Gap_instances.network in
  List.iter
    (fun rounds ->
      let r =
        Greedy_wpo.optimize_multi_ctx (Obs.Ctx.make ()) ~rounds n3.Network.graph
          i3.Instances.Gap_instances.joint_weights n3.Network.demands
      in
      row "  W <= %d             MLU %.3f\n" rounds r.Greedy_wpo.mlu)
    [ 1; 2; 3 ];
  (* 6. How many weight/waypoint iterations?  (also §8). *)
  row "Iterated JOINT-Heur (Abilene):\n";
  List.iter
    (fun iterations ->
      let r =
        Joint.optimize_iterated_ctx (Obs.Ctx.make ())
          ~ls_params:(ls_params ~seed:5 ~evals:(evals / iterations))
          ~iterations g demands
      in
      row "  %d iterations       MLU %.3f\n" iterations r.Joint.mlu)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* BENCH experiments: records, gates and the runner                    *)
(* ------------------------------------------------------------------ *)

(* Each measuring experiment below is one [experiment] value: its [run]
   returns records, and {!run_bench} does the rest — prints the
   declared console tables from those records, evaluates the declared
   gates over them, writes BENCH_<bench>.json (the records, then one
   record per gate) and counts failed fatal gates, which make the
   harness exit non-zero after every selected experiment has run. *)

module A = Obs.Attr

(* One BENCH record: a JSON object in the file and a row in the console
   table.  Keys that start with '_' are gate inputs only: the gates read
   them, the file and the tables never show them. *)
type record = A.t list

let num key (r : record) =
  match List.assoc_opt key r with
  | Some (A.Float f) -> f
  | Some (A.Int i) -> float_of_int i
  | _ -> nan

(* The records holding every field of [fields]. *)
let matching fields (rs : record list) =
  List.filter (fun r -> List.for_all (fun f -> List.mem f r) fields) rs

(* [key] of the first record; nan if there is none. *)
let first key = function r :: _ -> num key r | [] -> nan

(* A declared check over an experiment's records.  Its result lands in
   the BENCH file as one gate record; a failed [fatal] gate fails the
   run, an advisory one is only reported. *)
type gate = {
  gate : string;
  fatal : bool;
  threshold : A.value;
  check : record list -> A.value * bool;  (* measured, passed *)
}

(* [measure records] must compare [ok] against [threshold]; a missing
   measurement (nan) fails either way. *)
let bound ok ?(fatal = true) gate threshold measure =
  { gate; fatal; threshold = A.Float threshold;
    check = (fun rs ->
        let m = measure rs in
        (A.Float m, ok m threshold)) }

let at_least ?fatal = bound ( >= ) ?fatal

let at_most ?fatal = bound ( <= ) ?fatal

(* Every record carrying [key] holds [true] there, and some record
   carries it. *)
let all_true ?(fatal = true) gate key =
  { gate; fatal; threshold = A.Bool true;
    check = (fun rs ->
        let vs = List.filter_map (List.assoc_opt key) rs in
        let ok = vs <> [] && List.for_all (( = ) (A.Bool true)) vs in
        (A.Bool ok, ok)) }

let status_name passed = if passed then "passed" else "failed"

let gate_record g (measured, passed) : record =
  [ A.str "gate" g.gate; A.str "status" (status_name passed);
    A.bool "fatal" g.fatal; ("threshold", g.threshold);
    ("measured", measured) ]

(* Console rendering of a field: whole units at 1000 and above, four
   significant digits below. *)
let rec show = function
  | A.Int i -> string_of_int i
  | A.Float f when abs_float f >= 1000. -> Printf.sprintf "%.0f" f
  | A.Float f -> Printf.sprintf "%.4g" f
  | A.Str s -> s
  | A.Bool b -> string_of_bool b
  | A.List vs -> "[" ^ String.concat ", " (List.map show vs) ^ "]"

(* Prints the [cols] of every record carrying all of them, headed by the
   keys themselves. *)
let table (caption, cols) records =
  let rows =
    List.filter
      (fun r -> List.for_all (fun k -> List.mem_assoc k r) cols)
      records
  in
  if rows <> [] then begin
    let lines =
      cols
      :: List.map (fun r -> List.map (fun k -> show (List.assoc k r)) cols) rows
    in
    let widths =
      List.fold_left
        (List.map2 (fun w c -> max w (String.length c)))
        (List.map (fun _ -> 0) cols)
        lines
    in
    row "\n%s\n" caption;
    List.iter
      (fun cs ->
        List.iteri
          (fun i (w, c) -> if i = 0 then row "%-*s" w c else row "  %*s" w c)
          (List.combine widths cs);
        row "\n")
      lines
  end

type experiment = {
  title : string;
  bench : string;  (* BENCH_<bench>.json, schema bench/<bench>/<version> *)
  version : int;
  fields : record;  (* extra envelope fields *)
  run : Obs.Ctx.t -> record list;
  tables : (string * string list) list;  (* caption, columns *)
  gates : gate list;
}

let fatal_failures = ref 0

let run_bench e () =
  section e.title;
  (* A live tracer for the envelope's per-phase breakdown, over the
     driver's pool. *)
  let ctx = Obs.Ctx.make ~tracer:(Obs.Tracer.create ()) ~pool:!the_pool () in
  let records = e.run ctx in
  let results = List.map (fun g -> (g, g.check records)) e.gates in
  let shown =
    List.map
      (List.filter (fun (k, _) -> not (String.starts_with ~prefix:"_" k)))
      records
  in
  List.iter (fun t -> table t shown) e.tables;
  let file = Printf.sprintf "BENCH_%s.json" e.bench in
  let written = shown @ List.map (fun (g, r) -> gate_record g r) results in
  Obs.Export.write_envelope ~path:file
    ~schema:(Printf.sprintf "bench/%s/%d" e.bench e.version)
    ~phases:(Obs.Tracer.phase_totals ctx.Obs.Ctx.tracer)
    ~fields:e.fields written;
  row "\nwrote %s (%d records)\n" file (List.length written);
  List.iter
    (fun (g, (measured, passed)) ->
      row "gate %-32s %-18s measured %s, threshold %s%s\n" g.gate
        (status_name passed)
        (show measured) (show g.threshold)
        (if g.fatal then "" else " (advisory)");
      if g.fatal && not passed then incr fatal_failures)
    results;
  row "%!"

(* ------------------------------------------------------------------ *)
(* Shared pieces of the measuring experiments                          *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t0 = Engine.Mono.now () in
  let r = f () in
  (r, Engine.Mono.now () -. t0)

(* Best-of-[reps] wall clock; the solvers are deterministic, so the
   result of any repetition stands for all of them. *)
let time_best reps f =
  let runs = List.init reps (fun _ -> timed f) in
  ( fst (List.hd runs),
    List.fold_left (fun b (_, dt) -> Float.min b dt) infinity runs )

(* The quick-scale Figure 4 demand set most experiments measure on. *)
let fig4_demands g =
  Demand_gen.mcf_synthetic ~seed:1
    ~flows_per_pair:(max 2 (Digraph.edge_count g / 16))
    g

(* A zoo-ladder topology: the real GraphML file under --data-dir when
   --scale finds it, else the synthetic stand-in; [real] says which. *)
let load_ladder name =
  let real =
    !scale && Sys.file_exists (Filename.concat !data_dir (name ^ ".graphml"))
  in
  let g =
    Topology.Datasets.load
      ?data_dir:(if real then Some !data_dir else None)
      name
  in
  (g, real)

let source real = A.str "source" (if real then "graphml" else "synthetic")

(* Up to [target] random demands that [ev]'s graph can route (real zoo
   files may have isolated fragments). *)
let sample_demands st ev ~target =
  let n = Digraph.node_count (Engine.Evaluator.graph ev) in
  let out = ref [] and tries = ref 0 and got = ref 0 in
  while !got < target && !tries < 40 * target do
    incr tries;
    let src = Random.State.int st n and dst = Random.State.int st n in
    if src <> dst && Engine.Evaluator.reachable ev ~src ~dst then begin
      let size = float_of_int (1 + Random.State.int st 9) in
      out := { Demand.src; dst; size } :: !out;
      incr got
    end
  done;
  Array.of_list (List.rev !out)

let random_weights st m =
  Array.init m (fun _ -> float_of_int (1 + Random.State.int st 16))

(* A fixed sequence of single-weight moves, so the sides of a race do
   identical work. *)
let random_moves st m moves =
  Array.init moves (fun _ ->
      (Random.State.int st m, float_of_int (1 + Random.State.int st 20)))

(* ------------------------------------------------------------------ *)
(* Evaluation engine: incremental vs from-scratch                      *)
(* ------------------------------------------------------------------ *)

(* Measures the move protocol the local searches live on: probe one
   weight change, evaluate, undo.  The baseline rebuilds the full ECMP
   state per candidate (a fresh evaluator each time, i.e. what a
   one-shot evaluation costs); the engine repairs only the destinations
   the changed edge can affect. *)
let probe_race name =
  let g = Topology.Datasets.load name in
  let m = Digraph.edge_count g in
  let comms = fig4_demands g in
  let st = Random.State.make [| 0xbe; 42 |] in
  let base = random_weights st m in
  let moves = if !full then 500 else 200 in
  let seq = random_moves st m moves in
  let w = Array.copy base in
  let scratch_sum, t_scratch =
    timed (fun () ->
        Array.fold_left
          (fun acc (e, wv) ->
            let old = w.(e) in
            w.(e) <- wv;
            let u = Ecmp.mlu_of g w comms in
            w.(e) <- old;
            acc +. u)
          0. seq)
  in
  let stats = Engine.Stats.create () in
  let ev = Engine.Evaluator.create ~stats g base in
  Engine.Evaluator.set_commodities ev comms;
  let r = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  Engine.Evaluator.evaluate_into ev r;
  (* warm start = the state any search holds between moves *)
  Engine.Stats.reset stats;
  let engine_sum, t_engine =
    timed (fun () ->
        Array.fold_left
          (fun acc (e, wv) ->
            Engine.Evaluator.set_weight ev ~edge:e wv;
            Engine.Evaluator.evaluate_into ev r;
            let u = r.Engine.Evaluator.mlu in
            Engine.Evaluator.undo ev;
            acc +. u)
          0. seq)
  in
  let fm = float_of_int moves in
  let full_spf = stats.Engine.Stats.full_spf in
  let incr_spf = stats.Engine.Stats.incr_spf in
  [ A.str "topology" name; A.str "algorithm" "single-weight-probe";
    A.int "moves" moves; A.float "scratch_evals_per_sec" (fm /. t_scratch);
    A.float "engine_evals_per_sec" (fm /. t_engine);
    A.float "speedup" (t_scratch /. t_engine);
    A.float "wall_seconds_scratch" t_scratch;
    A.float "wall_seconds_engine" t_engine; A.int "full_spf" full_spf;
    A.int "incr_spf" incr_spf;
    A.float "incremental_vs_full_ratio"
      (float_of_int incr_spf /. float_of_int (max 1 full_spf));
    A.float "_mlu_sum_rel_diff"
      (abs_float (scratch_sum -. engine_sum) /. abs_float scratch_sum) ]

(* Probe/evaluate/undo throughput as a function of topology size.  The
   demand set is a fixed seeded pair sample per topology — no MCF
   normalization, whose LP would dwarf the measurement on the 754-node
   instance. *)
let size_scaling name =
  let g, real = load_ladder name in
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let st = Random.State.make [| 0x5ca1e; n |] in
  let stats = Engine.Stats.create () in
  let ev = Engine.Evaluator.create ~stats g (random_weights st m) in
  let comms = sample_demands st ev ~target:(4 * n) in
  Engine.Evaluator.set_commodities ev comms;
  let moves = if !full then 1000 else 300 in
  let seq = random_moves st m moves in
  let cell = { Engine.Evaluator.mlu = 0.; phi = 0. } in
  Engine.Evaluator.evaluate_into ev cell;
  (* warm start: pools, DAGs and unit caches at steady state *)
  Engine.Stats.reset stats;
  let (), wall =
    timed (fun () ->
        Array.iter
          (fun (e, wv) ->
            Engine.Evaluator.set_weight ev ~edge:e wv;
            Engine.Evaluator.evaluate_into ev cell;
            Engine.Evaluator.undo ev)
          seq)
  in
  let ht = Engine.Stats.hot_times stats in
  [ A.str "topology" name; A.str "algorithm" "size-scaling-probe"; source real;
    A.int "nodes" n; A.int "edges" m; A.int "commodities" (Array.length comms);
    A.int "moves" moves; A.float "evals_per_sec" (float_of_int moves /. wall);
    A.float "wall_seconds" wall; A.int "full_spf" stats.Engine.Stats.full_spf;
    A.int "incr_spf" stats.Engine.Stats.incr_spf;
    A.int "spf_nodes_touched" stats.Engine.Stats.spf_nodes_touched;
    A.float "seconds_spf_incr" ht.(Engine.Stats.hot_spf_incr);
    A.float "seconds_units" ht.(Engine.Stats.hot_units);
    A.float "seconds_loads" ht.(Engine.Stats.hot_loads) ]

(* The same instrumentation through a whole HeurOSPF run. *)
let heurospf_engine () =
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g
  in
  let evals = if !full then 3000 else 600 in
  let s = Engine.Stats.create () in
  let _, wall =
    timed (fun () ->
        Local_search.optimize_ctx (Obs.Ctx.make ~stats:s ())
          ~params:(ls_params ~seed:5 ~evals) g demands)
  in
  let open Engine.Stats in
  [ A.str "topology" "Abilene"; A.str "algorithm" "HeurOSPF";
    A.int "evaluations" s.evaluations;
    A.float "evals_per_sec" (float_of_int s.evaluations /. wall);
    A.float "wall_seconds" wall; A.int "full_spf" s.full_spf;
    A.int "incr_spf" s.incr_spf;
    A.float "incremental_vs_full_ratio"
      (float_of_int s.incr_spf /. float_of_int (max 1 s.full_spf));
    A.int "dirty_dests" s.dirty_dests; A.int "clean_dests" s.clean_dests ]

let engine =
  { title = "Engine: incremental vs from-scratch single-weight-move evaluation";
    bench = "engine"; version = 1; fields = [];
    run = (fun ctx ->
        let topos =
          if !full then [ "Abilene"; "Germany50"; "Ta2" ]
          else [ "Abilene"; "Germany50" ]
        in
        let race =
          Obs.Ctx.phase ctx "probe-race" (fun () -> List.map probe_race topos)
        in
        let scaling =
          Obs.Ctx.phase ctx "size-scaling" (fun () ->
              List.map size_scaling Topology.Datasets.scale_names)
        in
        let heur = Obs.Ctx.phase ctx "heurospf" heurospf_engine in
        race @ scaling @ [ heur ]);
    tables =
      [ ( "Probe race (probe / evaluate / undo):",
          [ "topology"; "moves"; "scratch_evals_per_sec";
            "engine_evals_per_sec"; "speedup"; "full_spf"; "incr_spf" ] );
        ( "Size scaling (probe / evaluate / undo per topology size):",
          [ "topology"; "nodes"; "edges"; "commodities"; "evals_per_sec";
            "full_spf"; "seconds_spf_incr"; "seconds_units"; "seconds_loads";
            "wall_seconds" ] );
        ( "HeurOSPF through the engine (Abilene):",
          [ "algorithm"; "evaluations"; "evals_per_sec";
            "incremental_vs_full_ratio"; "dirty_dests"; "clean_dests" ] ) ];
    gates =
      [ at_most "scratch_engine_mlu_agree" 1e-6 (fun rs ->
            List.fold_left Float.max 0.
              (List.map (num "_mlu_sum_rel_diff")
                 (matching [ A.str "algorithm" "single-weight-probe" ] rs))) ] }

(* ------------------------------------------------------------------ *)
(* Parallel search runtime                                             *)
(* ------------------------------------------------------------------ *)

(* Scheduling never leaks into results: GreedyWPO (which leaves the
   pool idle) and a two-restart HeurOSPF (whose walks run as pool
   tasks) at pool sizes 1/2/4/8, each compared bit for bit with the
   jobs = 1 run. *)
let parallel_sweep name =
  let g = Topology.Datasets.load name in
  let demands = fig4_demands g in
  let inv_w = Weights.inverse_capacity g in
  let evals = if !full then 2000 else 400 in
  let measure pool =
    let ctx = Obs.Ctx.make ~pool () in
    let wpo = Greedy_wpo.optimize_ctx ctx g inv_w demands in
    let heur =
      Local_search.optimize_ctx ctx ~restarts:2
        ~params:(ls_params ~seed:3 ~evals) g demands
    in
    (wpo.Greedy_wpo.waypoints, wpo.Greedy_wpo.mlu, heur.Local_search.weights,
     heur.Local_search.mlu, heur.Local_search.evals)
  in
  let runs =
    List.map (fun jobs -> (jobs, Par.Pool.with_pool ~jobs measure)) [ 1; 2; 4; 8 ]
  in
  let ref_result = snd (List.hd runs) in
  List.map
    (fun (jobs, result) ->
      [ A.str "topology" name; A.int "jobs" jobs;
        A.bool "identical_to_jobs1" (result = ref_result) ])
    runs

let parallel =
  { title = "Parallel search runtime: shared-counter scheduler (lib/par)";
    bench = "parallel"; version = 5; fields = [];
    run = (fun ctx ->
        List.concat_map
          (fun name -> Obs.Ctx.phase ctx name (fun () -> parallel_sweep name))
          [ "Abilene"; "Germany50" ]);
    tables =
      [ ( "GreedyWPO and two-restart HeurOSPF per pool size:",
          [ "topology"; "jobs"; "identical_to_jobs1" ] ) ];
    gates = [ all_true "jobs_bit_identical" "identical_to_jobs1" ] }

(* ------------------------------------------------------------------ *)
(* Robustness sweep throughput                                         *)
(* ------------------------------------------------------------------ *)

(* lib/scenario streaming throughput: the engine path (one warm master
   per sweep and a copy of it per further worker, disable_edge probes,
   dirty-destination repair) against the rebuild oracle (fresh subgraph
   + ECMP state per scenario), then scenarios/sec at several pool
   sizes.  Every run is compared with the oracle and with the jobs = 1
   run. *)
let robust_sweep name =
  let g = Topology.Datasets.load name in
  let demands = fig4_demands g in
  let evals = if !full then 2000 else 300 in
  let joint =
    Joint.optimize_ctx (Obs.Ctx.make ())
      ~ls_params:(ls_params ~seed:1 ~evals) g demands
  in
  let deployed =
    { Scenario.weights = joint.Joint.int_weights;
      Scenario.waypoints = joint.Joint.waypoints }
  in
  let cfg =
    { Scenario.default_config with
      Scenario.seed = 1; dual_failures = (if !full then 40 else 10);
      scales = [ 0.8; 1.2 ]; jitters = 4; hotspots = 2; diurnal = 4 }
  in
  let specs = Scenario.generate cfg g in
  let n = float_of_int (Array.length specs) in
  let oracle, t_rebuild =
    timed (fun () -> Scenario.static_sweep_rebuild ~deployed g demands specs)
  in
  let close a b =
    (Float.is_nan a && Float.is_nan b)
    || abs_float (a -. b) <= 1e-9 *. (1. +. abs_float b)
  in
  let matches out =
    Array.for_all2
      (fun o (om, od) ->
        o.Scenario.static_disconnected = od && close o.Scenario.static_mlu om)
      out oracle
  in
  let run pool =
    timed (fun () ->
        Scenario.sweep_ctx (Obs.Ctx.make ~pool ()) ~deployed g demands specs)
  in
  let runs =
    List.map
      (fun jobs -> (jobs, Par.Pool.with_pool ~jobs run))
      (if !full then [ 1; 2; 4; 8 ] else [ 1; 2; 4 ])
  in
  let ref_out, base_wall = snd (List.hd runs) in
  List.map
    (fun (jobs, (out, wall)) ->
      [ A.str "topology" name; A.int "scenarios" (Array.length specs);
        A.int "jobs" jobs;
        (* compare treats nan = nan, unlike (=) *)
        A.bool "identical_to_jobs1" (compare out ref_out = 0);
        A.float "wall_seconds" wall; A.float "scenarios_per_sec" (n /. wall);
        A.float "speedup_vs_jobs1" (base_wall /. wall);
        A.float "rebuild_wall_seconds" t_rebuild;
        A.float "rebuild_scenarios_per_sec" (n /. t_rebuild);
        A.float "engine_vs_rebuild_speedup" (t_rebuild /. wall);
        A.bool "engine_at_least_rebuild" (n /. wall >= n /. t_rebuild);
        A.bool "_matches_rebuild" (matches out) ])
    runs

let robust =
  { title = "Robustness sweep: engine path vs rebuild oracle (lib/scenario)";
    bench = "robustness"; version = 1; fields = [];
    run = (fun ctx ->
        List.concat_map
          (fun name -> Obs.Ctx.phase ctx name (fun () -> robust_sweep name))
          (if !full then [ "Abilene"; "Germany50" ] else [ "Abilene" ]));
    tables =
      [ ( "Scenario sweep throughput:",
          [ "topology"; "scenarios"; "jobs"; "scenarios_per_sec";
            "speedup_vs_jobs1"; "engine_vs_rebuild_speedup";
            "identical_to_jobs1" ] ) ];
    gates =
      [ all_true "jobs_bit_identical" "identical_to_jobs1";
        all_true "engine_matches_rebuild" "_matches_rebuild" ] }

(* ------------------------------------------------------------------ *)
(* LP layer: sparse revised simplex vs dense tableau                   *)
(* ------------------------------------------------------------------ *)

module Simplex = Linprog.Simplex
module Oracle = Lp_oracle

let lp_reps () = if !full then 5 else 3

let agree a b = abs_float (a -. b) <= 1e-6 *. (1. +. abs_float b)

(* Dense vs sparse simplex (and the Mcf entry point) on one min-MLU LP. *)
let lp_race (name, g, comms) =
  let reps = lp_reps () in
  let p = Oracle.mlu_problem g comms in
  let sp = Oracle.of_problem p in
  let dres, t_dense = time_best reps (fun () -> Oracle.Dense.solve p) in
  let sres, t_sparse = time_best reps (fun () -> Simplex.Sparse.solve sp) in
  let dval = match dres with Oracle.Optimal { value; _ } -> value | _ -> nan in
  let sval, iters =
    match sres with
    | Simplex.Sparse.Optimal { value; iters; _ } -> (value, iters)
    | _ -> (nan, 0)
  in
  let mcf, t_mcf = time_best reps (fun () -> Mcf.opt_mlu_lp g comms) in
  [ A.str "instance" name; A.str "kind" "lp-race";
    A.int "rows" sp.Simplex.Sparse.nrows; A.int "cols" sp.Simplex.Sparse.ncols;
    A.float "dense_wall_seconds" t_dense;
    A.float "sparse_wall_seconds" t_sparse;
    A.float "speedup" (t_dense /. t_sparse); A.int "sparse_pivots" iters;
    A.float "pivots_per_sec" (float_of_int iters /. t_sparse);
    A.float "mcf_entry_wall_seconds" t_mcf; A.float "objective" sval;
    A.bool "objectives_agree" (agree dval sval && agree mcf.Mcf.value sval) ]

(* The raced LPs: Abilene under seeded demands, two gap instances, and a
   medium instance: Germany50 with the demand matrix capped to the
   first few distinct destinations.  At that size the dense tableau's
   O(rows * cols) pivot cost stops being affordable. *)
let germany50_lp () =
  let cap = if !full then 14 else 10 in
  (Printf.sprintf "Germany50(%dt)" cap, cap)

let lp_instances abilene =
  let seeded seed =
    ( Printf.sprintf "Abilene(seed=%d)" seed, abilene,
      Demand_gen.mcf_synthetic ~seed ~flows_per_pair:2 abilene )
  in
  let gap (name, inst) =
    let net = inst.Instances.Gap_instances.network in
    (name, net.Network.graph, net.Network.demands)
  in
  let g50 = Topology.Datasets.load "Germany50" in
  let name, cap = germany50_lp () in
  let seen = Hashtbl.create 16 in
  let keep c =
    Hashtbl.mem seen c.Demand.dst
    || Hashtbl.length seen < cap
       && (Hashtbl.replace seen c.dst ();
           true)
  in
  let d50 =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:4 g50
  in
  List.map seeded (if !full then [ 1; 2; 3 ] else [ 1; 2 ])
  @ List.map gap
      [ ("I1(m=32)", Instances.Gap_instances.instance1 ~m:32);
        ("I3(m=8)", Instances.Gap_instances.instance3 ~m:8) ]
  @ [ (name, g50, Array.of_list (List.filter keep (Array.to_list d50))) ]

(* Warm vs cold branch and bound: same tree, children re-solved from
   the parent basis vs from scratch.  Warm starting never changes any
   LP result, so node counts and MLU must match; only pivots differ. *)
let milp_case (name, solve) =
  let go warm =
    let ctx = Obs.Ctx.make () in
    let mlu, wall = timed (fun () -> solve warm ctx) in
    let s = ctx.Obs.Ctx.stats in
    (s, s.Engine.Stats.milp_nodes, mlu, wall)
  in
  let sw, nodes_w, mlu_w, wall_w = go true in
  let sc, nodes_c, mlu_c, wall_c = go false in
  let open Engine.Stats in
  [ A.str "instance" name; A.str "kind" "milp-warm-start";
    A.int "nodes" nodes_w; A.int "lp_solves" sw.lp_solves;
    A.int "warm_pivots" sw.lp_pivots; A.int "cold_pivots" sc.lp_pivots;
    A.float "pivot_ratio"
      (float_of_int sw.lp_pivots /. float_of_int (max 1 sc.lp_pivots));
    A.bool "warm_fewer_pivots" (sw.lp_pivots < sc.lp_pivots);
    A.float "warm_wall_seconds" wall_w; A.float "cold_wall_seconds" wall_c;
    A.bool "_warm_cold_agree"
      (nodes_w = nodes_c && agree mlu_w mlu_c) ]

(* The branch-and-bound cases: USPR-LWO on two gap instances, and the
   WPO MILP on Abilene under inverse-capacity weights. *)
let milp_instances abilene =
  let lwo m =
    let net =
      (Instances.Gap_instances.instance1 ~m).Instances.Gap_instances.network
    in
    ( Printf.sprintf "I1(m=%d) USPR-LWO" m,
      fun warm ctx ->
        (Uspr_milp.lwo_ctx ctx ~warm net.Network.graph net.Network.demands)
          .Uspr_milp.mlu )
  in
  let demands =
    Demand.aggregate
      (Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 abilene)
  in
  let max_nodes = if !full then 5_000 else 1_500 in
  let inv_w = Weights.inverse_capacity abilene in
  [ lwo 2; lwo 3;
    ( "Abilene WPO",
      fun warm ctx ->
        (Wpo_milp.solve_ctx ctx ~max_nodes ~warm abilene inv_w demands)
          .Wpo_milp.mlu ) ]

(* Basis reuse across nearly-identical LPs: the Abilene min-MLU LP under
   scaled demand matrices, cold each time vs one warm session. *)
let basis_reuse abilene =
  let reps = lp_reps () in
  let comms =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 abilene
  in
  let scales = [ 0.7; 0.85; 1.0; 1.15; 1.3 ] in
  let scaled s =
    Array.map (fun c -> { c with Demand.size = c.Demand.size *. s }) comms
  in
  let cold, t_cold =
    time_best reps (fun () ->
        List.map
          (fun s -> (Mcf.opt_mlu_lp abilene (scaled s)).Mcf.value)
          scales)
  in
  let warm, t_warm =
    time_best reps (fun () ->
        let session = Mcf.session abilene in
        List.map (fun s -> (Mcf.solve session (scaled s)).Mcf.value) scales)
  in
  [ A.str "instance" "Abilene"; A.str "kind" "mcf-basis-reuse";
    A.int "solves" (List.length scales); A.float "cold_wall_seconds" t_cold;
    A.float "warm_wall_seconds" t_warm; A.float "speedup" (t_cold /. t_warm);
    A.bool "values_agree" (List.for_all2 (fun c w -> agree w c) cold warm) ]

(* The serving loop's LP readouts on Germany50: the demand matrices of
   the serve bench's replay, each solved four ways — cold from the slack
   basis (the cold solve before crash starts), cold from
   [Mcf.crash_basis], as a fresh LP warm-started from the previous
   optimal basis by the primal simplex (the readout before warm
   sessions; crash-started where the destination set changes), and
   through one [Mcf.session]. *)
let serve_readouts () =
  let g = Topology.Datasets.load "Germany50" in
  let demands = fig4_demands g in
  let steps = if !full then 200 else 40 in
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun d -> Hashtbl.replace tbl (d.Demand.src, d.Demand.dst) d.Demand.size)
    (Demand.aggregate demands);
  let matrix () =
    Demand.aggregate
      (Array.of_list
         (Hashtbl.fold
            (fun (src, dst) size acc -> { Demand.src; dst; size } :: acc)
            tbl []))
  in
  let matrices =
    List.filter_map
      (fun line ->
        match Serve.Event.parse g line with
        | Ok (Serve.Event.Delta changes) ->
          List.iter
            (fun c ->
              let pair = (c.Serve.Event.src, c.Serve.Event.dst) in
              if c.Serve.Event.size > 0. then Hashtbl.replace tbl pair c.size
              else Hashtbl.remove tbl pair)
            changes;
          Some (matrix ())
        | _ -> None)
      (Scenario.replay_events
         { Scenario.default_replay with replay_seed = 1; steps }
         demands)
  in
  let run solve =
    let t0 = Engine.Mono.now () in
    let rs = List.map solve matrices in
    (List.map fst rs, List.fold_left (fun a (_, p) -> a + p) 0 rs,
     Engine.Mono.now () -. t0)
  in
  let lp ?basis d =
    match Simplex.Sparse.solve ?basis (Mcf.build_mlu_lp g d) with
    | Simplex.Sparse.Optimal { value; basis; iters; _ } ->
      (value, iters, Some basis)
    | _ -> (nan, 0, None)
  in
  let first (v, p, _) = (v, p) in
  let slack, slack_piv, t_slack = run (fun d -> first (lp d)) in
  let crash, crash_piv, t_crash =
    run (fun d -> first (lp ~basis:(Mcf.crash_basis g d) d))
  in
  let kept = ref None in
  let primal, primal_piv, t_primal =
    run (fun d ->
        let key =
          List.sort_uniq Int.compare
            (Array.to_list (Array.map (fun c -> c.Demand.dst) d))
        in
        let basis =
          match !kept with
          | Some (k, b) when k = key -> b
          | _ -> Mcf.crash_basis g d
        in
        let value, iters, basis = lp ~basis d in
        kept := Option.map (fun b -> (key, b)) basis;
        (value, iters))
  in
  let session = Mcf.session g in
  let warm, warm_piv, t_warm =
    run (fun d ->
        let r = Mcf.solve session d in
        (r.Mcf.value, r.Mcf.pivots))
  in
  let n = List.length matrices in
  let per x = x /. float_of_int (max 1 n) in
  let close a b = abs_float (a -. b) <= 1e-9 *. abs_float b in
  [ A.str "instance" "Germany50"; A.str "kind" "serve-readouts";
    A.int "readouts" n;
    A.float "slack_cold_pivots_per_readout" (per (float_of_int slack_piv));
    A.float "crash_cold_pivots_per_readout" (per (float_of_int crash_piv));
    A.float "primal_pivots_per_readout" (per (float_of_int primal_piv));
    A.float "session_pivots_per_readout" (per (float_of_int warm_piv));
    A.float "pivot_reduction" (float_of_int primal_piv /. float_of_int (max 1 warm_piv));
    A.float "slack_cold_seconds_per_readout" (per t_slack);
    A.float "crash_cold_seconds_per_readout" (per t_crash);
    A.float "primal_seconds_per_readout" (per t_primal);
    A.float "session_seconds_per_readout" (per t_warm);
    A.bool "values_agree"
      (List.for_all2 close slack crash && List.for_all2 close primal crash
      && List.for_all2 close warm crash) ]

let lp =
  { title = "LP layer: sparse revised simplex vs dense tableau oracle";
    bench = "lp"; version = 2; fields = [];
    run = (fun ctx ->
        let abilene = Topology.Datasets.abilene () in
        let phase name f xs =
          Obs.Ctx.phase ctx name (fun () -> List.map f xs)
        in
        phase "lp-race" lp_race (lp_instances abilene)
        @ phase "milp-warm-start" milp_case (milp_instances abilene)
        @ phase "mcf-basis-reuse" basis_reuse [ abilene ]
        @ phase "mcf-serve-readouts" serve_readouts [ () ]);
    tables =
      [ ( "Dense tableau vs sparse revised simplex (min-MLU LP):",
          [ "instance"; "rows"; "cols"; "dense_wall_seconds";
            "sparse_wall_seconds"; "speedup"; "sparse_pivots";
            "objectives_agree" ] );
        ( "MILP warm starts (children re-solve from the parent basis):",
          [ "instance"; "nodes"; "warm_pivots"; "cold_pivots";
            "pivot_ratio" ] );
        ( "MCF warm-basis reuse across scaled demand matrices:",
          [ "instance"; "solves"; "cold_wall_seconds"; "warm_wall_seconds";
            "speedup"; "values_agree" ] );
        ( "Serve-stream LP readouts (per readout: slack cold, crash cold, \
           primal warm, session):",
          [ "instance"; "readouts"; "slack_cold_pivots_per_readout";
            "crash_cold_pivots_per_readout"; "primal_pivots_per_readout";
            "session_pivots_per_readout"; "slack_cold_seconds_per_readout";
            "crash_cold_seconds_per_readout"; "primal_seconds_per_readout";
            "session_seconds_per_readout"; "values_agree" ] ) ];
    gates =
      [ all_true "lp_objectives_agree" "objectives_agree";
        all_true "milp_warm_equals_cold" "_warm_cold_agree";
        all_true "mcf_warm_equals_cold" "values_agree";
        all_true "milp_warm_fewer_pivots" "warm_fewer_pivots";
        at_least ~fatal:false "germany50_session_pivots_3x" 3. (fun rs ->
            first "pivot_reduction" (matching [ A.str "kind" "serve-readouts" ] rs));
        at_least ~fatal:false "germany50_sparse_speedup_5x" 5. (fun rs ->
            first "speedup"
              (matching [ A.str "instance" (fst (germany50_lp ())) ] rs)) ] }

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

(* The cost of tracing in lib/obs: the same HeurOSPF run on Abilene
   through a noop-tracer {!Obs.Ctx.t} and through a live tracer with
   evaluator-level spans ([~engine_detail:true], the most expensive
   configuration), best-of-[reps] wall clock.  Both must return the
   identical result. *)
let obs_overhead ctx =
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:2 g
  in
  let evals = if !full then 4000 else 1000 in
  let reps = if !full then 15 else 11 in
  let params = ls_params ~seed:5 ~evals in
  let search octx () = Local_search.optimize_ctx octx ~params g demands in
  let noop, t_noop =
    Obs.Ctx.phase ctx "noop-ctx" (fun () ->
        time_best reps (fun () -> search (Obs.Ctx.make ()) ()))
  in
  let last_tracer = ref Obs.Tracer.noop in
  let traced, t_traced =
    Obs.Ctx.phase ctx "traced" (fun () ->
        time_best reps (fun () ->
            let tracer = Obs.Tracer.create ~engine_detail:true () in
            last_tracer := tracer;
            search (Obs.Ctx.make ~tracer ()) ()))
  in
  let same (a : Local_search.result) (b : Local_search.result) =
    a.Local_search.mlu = b.Local_search.mlu
    && a.Local_search.weights = b.Local_search.weights
    && a.Local_search.evals = b.Local_search.evals
  in
  [ [ A.str "topology" "Abilene"; A.str "algorithm" "HeurOSPF";
      A.int "evaluations" evals; A.int "reps" reps;
      A.bool "results_identical" (same noop traced);
      A.float "noop_ctx_wall_seconds" t_noop;
      A.float "traced_wall_seconds" t_traced;
      A.float "traced_overhead" ((t_traced -. t_noop) /. t_noop);
      A.int "trace_spans" (Obs.Tracer.span_count !last_tracer) ] ]

let obs =
  { title = "Observability: run-context overhead (lib/obs)";
    bench = "obs"; version = 2; fields = []; run = obs_overhead;
    tables =
      [ ( "HeurOSPF on Abilene, best of reps:",
          [ "evaluations"; "reps"; "noop_ctx_wall_seconds";
            "traced_wall_seconds"; "traced_overhead"; "trace_spans";
            "results_identical" ] ) ];
    gates = [ all_true "obs_results_identical" "results_identical" ] }

(* ------------------------------------------------------------------ *)
(* Candidate pruning                                                   *)
(* ------------------------------------------------------------------ *)

(* The Prune preprocessing pass: the quality-vs-k curve of GreedyWPO on
   the Figure 4 suite (objective delta vs the unpruned scan, candidates
   scanned, wall time) and the scale demonstration — a completed pruned
   run on the largest zoo-ladder topology, against the unpruned scan
   cost measured on a demand prefix and extrapolated (running it in full
   would dwarf the harness; the record says so). *)
let pruned_wpo ?prune pool g w demands =
  let ctx = Obs.Ctx.make ~pool () in
  let r, wall =
    timed (fun () -> Greedy_wpo.optimize_ctx ctx ?prune g w demands)
  in
  let s = ctx.Obs.Ctx.stats in
  (r, s.Engine.Stats.wpo_scanned, s, wall)

let prune_quality pool name =
  let g = Topology.Datasets.load name in
  let demands = fig4_demands g in
  let w = Weights.inverse_capacity g in
  let base, base_scanned, _, base_wall = pruned_wpo pool g w demands in
  let ks = if !full then [ 4; 8; 16; 32; 64 ] else [ 4; 8; 16; 32 ] in
  List.map
    (fun k ->
      let r, scanned, st, wall =
        pruned_wpo ~prune:(Prune.spec k) pool g w demands
      in
      let ratio a = float_of_int a /. float_of_int (max 1 scanned) in
      [ A.str "topology" name; A.str "mode" "centrality"; A.int "k" k;
        A.float "mlu" r.Greedy_wpo.mlu;
        A.float "unpruned_mlu" base.Greedy_wpo.mlu;
        A.float "objective_delta_pct"
          (100. *. (r.Greedy_wpo.mlu -. base.Greedy_wpo.mlu)
          /. base.Greedy_wpo.mlu);
        A.int "scanned" scanned; A.int "unpruned_scanned" base_scanned;
        (* Against the full scan, every candidate of every visit (what
           the pruned run's counters add up to); the unpruned run also
           skips the visits the exact residual bound rules out, so its
           count gives the pool's own share. *)
        A.float "scan_reduction"
          (ratio (st.Engine.Stats.candidates_pruned
                 + st.Engine.Stats.candidates_kept));
        A.float "pool_scan_reduction" (ratio base_scanned);
        A.int "candidates_pruned" st.Engine.Stats.candidates_pruned;
        A.int "candidates_kept" st.Engine.Stats.candidates_kept;
        A.float "wall_seconds" wall;
        A.float "unpruned_wall_seconds" base_wall ])
    ks

(* The unpruned run's cost is measured on a demand prefix and
   extrapolated linearly.  A visit scores its n-2 candidates only when
   removing its demand lowers the MLU (the exact residual bound), so
   [unpruned_extrapolated_seconds] is the prefix's per-demand cost, at
   the prefix's share of scanned visits, times the demand count — not
   the cost of scanning every demand in full. *)
let prune_scale pool =
  let name = "Kdl" in
  let g, real = load_ladder name in
  let n = Digraph.node_count g in
  let w = Weights.inverse_capacity g in
  let st = Random.State.make [| 0x5ca1e; n |] in
  let demands =
    sample_demands st (Engine.Evaluator.create g w)
      ~target:((if !full then 4 else 2) * n)
  in
  let kd = Prune.default_k in
  let r, scanned, stp, pruned_wall =
    pruned_wpo ~prune:(Prune.spec kd) pool g w demands
  in
  let prefix_len = min 24 (Array.length demands) in
  let _, _, _, prefix_wall =
    pruned_wpo pool g w (Array.sub demands 0 prefix_len)
  in
  let extrapolated =
    prefix_wall /. float_of_int prefix_len
    *. float_of_int (Array.length demands)
  in
  [ A.str "topology" name; A.str "check" "scale"; source real; A.int "nodes" n;
    A.int "edges" (Digraph.edge_count g);
    A.int "demands" (Array.length demands);
    A.str "mode" "centrality"; A.int "k" kd;
    A.float "pruned_mlu" r.Greedy_wpo.mlu;
    A.float "pruned_wall_seconds" pruned_wall; A.int "pruned_scanned" scanned;
    A.int "candidates_pruned" stp.Engine.Stats.candidates_pruned;
    A.int "unpruned_prefix_demands" prefix_len;
    A.float "unpruned_prefix_wall_seconds" prefix_wall;
    A.float "unpruned_extrapolated_seconds" extrapolated;
    A.bool "unpruned_extrapolated" true;
    A.bool "unpruned_exceeds_pruned_budget" (extrapolated > pruned_wall) ]

(* The acceptance point: Germany50, centrality pool, default k. *)
let prune_default rs =
  matching
    [ A.str "topology" "Germany50"; A.str "mode" "centrality";
      A.int "k" Prune.default_k ]
    rs

let prune =
  { title = "Candidate pruning: quality vs k, scale";
    bench = "prune"; version = 1;
    fields =
      [ A.str "prune_mode" "centrality"; A.int "prune_k" Prune.default_k ];
    run = (fun ctx ->
        let pool = ctx.Obs.Ctx.pool in
        Obs.Ctx.phase ctx "fig4-quality" (fun () ->
            List.concat_map (prune_quality pool) Topology.Datasets.fig4_names)
        @ [ Obs.Ctx.phase ctx "scale" (fun () -> prune_scale pool) ]);
    tables =
      [ ( "GreedyWPO quality vs k on the Figure 4 suite:",
          [ "topology"; "mode"; "k"; "mlu"; "unpruned_mlu";
            "objective_delta_pct"; "scan_reduction"; "wall_seconds" ] );
        ( "Scale demo (pruned run completes, unpruned extrapolated):",
          [ "topology"; "source"; "nodes"; "edges"; "demands"; "pruned_mlu";
            "pruned_wall_seconds"; "unpruned_extrapolated_seconds" ] ) ];
    gates =
      [ at_least "prune_scan_reduction_5x" 5. (fun rs ->
            first "scan_reduction" (prune_default rs));
        at_most "prune_objective_delta_1pct" 1. (fun rs ->
            first "objective_delta_pct" (prune_default rs)) ] }

(* ------------------------------------------------------------------ *)
(* Serving: streaming re-optimization latency and quality              *)
(* ------------------------------------------------------------------ *)

(* Drives a replay through [Serve.Daemon.handle_line] directly (no
   process boundary), returning the daemon, the response lines and the
   wall time spent inside the event loop. *)
let run_replay ?(timings = true) ?(deadline_ms = 10_000.) ?(lp_every = 1)
    ~pool ~deployed g demands lines =
  let weights, waypoints = deployed in
  let cfg =
    { Serve.Daemon.default_config with deadline_ms; timings; lp_every; seed = 1 }
  in
  let d =
    Serve.Daemon.create (Obs.Ctx.make ~pool ()) cfg ~deployed_weights:weights
      ~deployed_waypoints:waypoints g demands
  in
  let responses, wall =
    timed (fun () -> List.filter_map (Serve.Daemon.handle_line d) lines)
  in
  (d, responses, wall)

let serve_replay pool (name, steps, lp_every) =
  let g = Topology.Datasets.load name in
  let demands = fig4_demands g in
  let evals = if !full then 1500 else 300 in
  let joint d =
    Joint.optimize_ctx (Obs.Ctx.make ())
      ~ls_params:(ls_params ~seed:1 ~evals) g d
  in
  let j = joint demands in
  let deployed = (j.Joint.int_weights, j.Joint.waypoints) in
  let lines =
    Scenario.replay_events
      { Scenario.default_replay with replay_seed = 1; steps }
      demands
  in
  (* Timed pass: latency percentiles, throughput, gap trajectory. *)
  let d, responses, wall =
    run_replay ~lp_every ~pool ~deployed g demands lines
  in
  let s = Serve.Daemon.summary d in
  let lat = s.Serve.Daemon.latencies in
  let gaps =
    List.filter_map
      (fun r ->
        match Serve.Sjson.parse r with
        | Error _ -> None
        | Ok j -> Option.bind (Serve.Sjson.member "gap" j) Serve.Sjson.to_float)
      responses
  in
  (* Quality: the incumbent after the whole drift vs a from-scratch
     Joint re-solve on the final matrix. *)
  let _, final_demands, _ = Serve.Daemon.state d in
  let rescratch = (joint final_demands).Joint.mlu in
  (* Determinism: timings off, deadline off, sequential pool vs a
     2-domain pool must emit identical bytes.  LP off: the solver is
     single-threaded (its output cannot depend on the pool) and
     re-solving the whole bound trajectory twice more would dominate
     the experiment. *)
  let det_run pool =
    let _, rs, _ =
      run_replay ~timings:false ~deadline_ms:(-1.) ~lp_every:0 ~pool ~deployed g
        demands lines
    in
    rs
  in
  let deterministic =
    det_run Par.Pool.sequential = Par.Pool.with_pool ~jobs:2 det_run
  in
  let open Serve.Daemon in
  let ms q = 1000. *. quantile lat q in
  [ A.str "topology" name; A.int "lp_every" lp_every;
    A.int "events" (List.length lines); A.int "updates" s.updates;
    A.int "improved" s.improved; A.int "degraded" s.degraded;
    A.int "deadline_hits" s.deadline_hits; A.float "p50_ms" (ms 0.5);
    A.float "p99_ms" (ms 0.99);
    A.float "max_ms" (1000. *. Array.fold_left max 0. lat);
    (* Throughput over time spent inside updates: the wall also carries
       the off-clock LP solves, which [lp_every] makes a sampling
       choice, not a serving cost. *)
    A.float "updates_per_sec"
      (float_of_int s.updates /. Array.fold_left ( +. ) 0. lat);
    A.float "wall_seconds" wall;
    A.int "weight_churn_total" s.weight_churn_total;
    A.int "waypoint_churn_total" s.waypoint_churn_total;
    A.float "mlu_final" s.mlu; A.float "lp_bound_final" s.lp_bound;
    A.float "rescratch_mlu" rescratch;
    A.bool "within_10pct" (s.mlu <= (1.1 *. rescratch) +. 1e-9);
    A.float "mean_gap" (if gaps = [] then nan else mean gaps);
    A.float "final_gap" (match List.rev gaps with [] -> nan | gp :: _ -> gp);
    A.bool "deterministic_across_jobs" deterministic ]

let serve =
  { title = "Serving: diurnal + flash-crowd replays through the daemon";
    bench = "serve"; version = 1; fields = [];
    run = (fun ctx ->
        (* (name, steps, lp_every): a Germany50 LP solve dwarfs an
           update, so the bound trajectory samples every k-th update
           there. *)
        List.map
          (fun ((name, _, _) as topo) ->
            Obs.Ctx.phase ctx name (fun () ->
                serve_replay ctx.Obs.Ctx.pool topo))
          (if !full then [ ("Abilene", 1000, 1); ("Germany50", 1000, 100) ]
           else [ ("Abilene", 120, 1); ("Germany50", 60, 30) ]));
    tables =
      [ ( "Replays:",
          [ "topology"; "events"; "p50_ms"; "p99_ms"; "updates_per_sec";
            "mlu_final"; "rescratch_mlu"; "mean_gap"; "within_10pct";
            "deterministic_across_jobs" ] ) ];
    gates =
      [ all_true "serve_within_10pct" "within_10pct";
        all_true "serve_deterministic_across_jobs"
          "deterministic_across_jobs" ] }

(* ------------------------------------------------------------------ *)
(* Solver frontier                                                     *)
(* ------------------------------------------------------------------ *)

(* Every registered backend on Abilene + the Figure 4 suite: per
   (topology, solver) record the MLU, the wall time, and the fraction
   of the inverse-capacity -> OPT gap the solver closes — the
   quality-vs-time frontier the registry opens up.  OPT is 1: the
   demands are scaled by the exact LP optimum ({!Demand_gen}), so no
   second solve is needed.  On Abilene, grad and omw are also re-run on
   a sequential and a 4-domain pool, which must agree bit for bit. *)
let solver_frontier ctx name =
  let config =
    { Solver.default_config with
      Solver.evals = (if !full then 3000 else 400); Solver.seed = 1 }
  in
  let g = Topology.Datasets.load name in
  let demands =
    if !full then
      Demand_gen.mcf_synthetic ~seed:1
        ~flows_per_pair:(max 1 (Digraph.edge_count g / 4))
        g
    else fig4_demands g
  in
  (* One shared run of every entry, each stage a phase named after the
     first entry needing it; [wall] is the entry's standalone cost. *)
  let runs = Solver.solve_many config ctx g demands Solver.all in
  (* [Solver.all] lists lwo first: its start is the invcap MLU. *)
  let inv = (fst (List.hd runs)).Solver.initial_mlu in
  List.map2
    (fun s (r, wall) ->
      let alg = s.Solver.name in
      let gap_closed =
        if inv -. 1. > 1e-9 then (inv -. r.Solver.mlu) /. (inv -. 1.) else nan
      in
      let jobs_identical =
        if name = "Abilene" && (alg = "grad" || alg = "omw") then
          let solve pool =
            Solver.solve s config (Obs.Ctx.make ~pool ()) g demands
          in
          [ A.bool "_jobs_identical"
              (solve Par.Pool.sequential = Par.Pool.with_pool ~jobs:4 solve) ]
        else []
      in
      [ A.str "topology" name; A.str "solver" alg; A.float "mlu" r.Solver.mlu;
        A.float "invcap_mlu" inv; A.float "gap_closed" gap_closed;
        A.float "wall_seconds" wall; A.int "evaluations" r.Solver.evals ]
      @ jobs_identical)
    Solver.all runs

(* OMW must close a strictly larger share of the invcap -> OPT gap than
   single-weight HeurOSPF on at least one topology. *)
let omw_gate =
  { gate = "omw_beats_heurospf_on"; fatal = true; threshold = A.Int 1;
    check = (fun rs ->
        let wins =
          List.filter_map
            (fun r ->
              let topo = List.assoc "topology" r in
              let lwo =
                matching [ ("topology", topo); A.str "solver" "lwo" ] rs
              in
              if num "gap_closed" r > first "gap_closed" lwo then Some topo
              else None)
            (matching [ A.str "solver" "omw" ] rs)
        in
        (A.List wins, wins <> [])) }

let solvers =
  { title =
      "Solver frontier: registered backends on Abilene + the Figure 4 suite";
    bench = "solvers"; version = 2; fields = [];
    run = (fun ctx ->
        List.concat_map (solver_frontier ctx)
          ("Abilene" :: Topology.Datasets.fig4_names));
    tables =
      [ ( "Solved:",
          [ "topology"; "solver"; "mlu"; "gap_closed"; "wall_seconds";
            "evaluations" ] ) ];
    gates =
      [ omw_gate;
        (* OPT is a proven lower bound, so no solver closes more than
           the whole gap; [nan] (baseline already optimal) is skipped. *)
        at_most "gap_closed_at_most_1" (1. +. 1e-9) (fun rs ->
            fmax
              (List.filter (Fun.negate Float.is_nan)
                 (List.map (num "gap_closed") rs)));
        (* GradWO's MLU over OPT = 1. *)
        at_most "grad_within_10pct_of_lp" 1.1 (fun rs ->
            first "mlu"
              (matching [ A.str "topology" "Abilene"; A.str "solver" "grad" ] rs));
        all_true "grad_omw_jobs_identical" "_jobs_identical" ] }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", exp_table1); ("fig1", exp_fig1); ("fig2", exp_fig2);
    ("fig3", exp_fig3); ("fig4", exp_fig4); ("fig5", exp_fig5);
    ("fig6", exp_fig6); ("fig7", exp_fig7); ("milp", exp_milp);
    ("ablation", exp_ablation); ("engine", run_bench engine);
    ("parallel", run_bench parallel); ("robust", run_bench robust);
    ("lp", run_bench lp); ("obs", run_bench obs); ("prune", run_bench prune);
    ("serve", run_bench serve); ("solvers", run_bench solvers) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let jobs = ref 1 in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--full" :: rest ->
      full := true;
      parse acc rest
    | "--scale" :: rest ->
      scale := true;
      parse acc rest
    | "--data-dir" :: d :: rest ->
      data_dir := d;
      parse acc rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse acc rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      jobs := int_of_string (String.sub a 7 (String.length a - 7));
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  if !jobs > 1 then the_pool := Par.Pool.create ~jobs:!jobs ();
  let selected = if args = [] then List.map fst experiments else args in
  Printf.printf
    "Joint link-weight and segment optimization - reproduction harness%s%s\n"
    (if !full then " (FULL scale)" else " (quick scale; use --full for paper scale)")
    (if !jobs > 1 then Printf.sprintf " [%d worker domains]" !jobs else "");
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments)))
    selected;
  if !jobs > 1 then Par.Pool.shutdown !the_pool;
  if !fatal_failures > 0 then begin
    Printf.eprintf "%d fatal gate(s) failed\n" !fatal_failures;
    exit 1
  end
