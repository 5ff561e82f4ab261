(* Reproduction harness: one experiment per table/figure of the paper.

     dune exec bench/main.exe                 -- run everything (quick)
     dune exec bench/main.exe -- fig4 fig7    -- selected experiments
     dune exec bench/main.exe -- --full fig4  -- paper-scale parameters

   Quick mode shrinks seeds / evaluation budgets so the whole harness
   finishes in a few minutes; --full restores the paper's scale.
   EXPERIMENTS.md records paper-vs-measured numbers. *)

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

(* ------------------------------------------------------------------ *)
(* Shared BENCH_*.json writer                                          *)
(* ------------------------------------------------------------------ *)

(* Every benchmark JSON goes through {!Obs.Export.write_envelope}, so
   each file carries the same provenance stamp as the te-tool artifacts
   (schema version, git revision, host core count) plus a per-phase
   wall-time breakdown of the experiment that produced it.  [records]
   are pre-rendered JSON objects. *)
let phases_json phases =
  Printf.sprintf "{%s}"
    (String.concat ", "
       (List.map
          (fun (name, d) ->
            Printf.sprintf "%s: %.6f" (Obs.Export.json_str name) d)
          phases))

let write_bench ?(ctx : Obs.Ctx.t option) ?(version = 1) ?(extra = []) ~file
    ~bench records =
  let fields =
    (match ctx with
    | None -> []
    | Some ctx ->
      [ ("phases", phases_json (Obs.Tracer.phase_totals ctx.Obs.Ctx.tracer)) ])
    @ extra
  in
  Obs.Export.write_envelope ~path:file
    ~schema:(Printf.sprintf "bench/%s/%d" bench version)
    ~fields records;
  row "\nwrote %s (%d records)\n" file (List.length records)

(* The context a BENCH-writing experiment runs under: a live tracer (for
   the phase breakdown) over the driver's pool. *)
let bench_ctx () =
  Obs.Ctx.make ~tracer:(Obs.Tracer.create ()) ~pool:!the_pool ()

let fmin xs = List.fold_left min infinity xs

let fmax xs = List.fold_left max neg_infinity xs

(* ------------------------------------------------------------------ *)
(* Shared algorithm ladder (Figures 4, 5, 6)                           *)
(* ------------------------------------------------------------------ *)

let ls_params ~seed ~evals =
  { Local_search.default_params with max_evals = evals; seed }

(* GradWO needs the exact min-MLU LP (its gradient descends on the
   per-edge optimal flows); above this variable count the solve would
   dwarf the heuristics it is compared against, so the ladder and the
   solver frontier skip it and say so.  1 + |targets| * |E| mirrors the
   LP layout in lib/mcf. *)
let grad_lp_limit = 3000

let lp_var_count g demands =
  let targets = Hashtbl.create 16 in
  Array.iter
    (fun (_, d, _) -> Hashtbl.replace targets d ())
    (Network.to_commodities demands);
  1 + (Hashtbl.length targets * Digraph.edge_count g)

(* The four heuristics of Figure 4, in the paper's order, plus the two
   diversity backends: OMW splitting on top of the HeurOSPF weights,
   and GradWO where its LP fits under [grad_lp_limit]. *)
let ladder g demands ~seed ~evals =
  let inv_w = Weights.inverse_capacity g in
  let inv = Ecmp.mlu_of g inv_w demands in
  let ls = Local_search.optimize_ctx (Obs.Ctx.default ()) ~params:(ls_params ~seed ~evals) g demands in
  let greedy = Greedy_wpo.optimize_ctx (Obs.Ctx.default ()) g inv_w demands in
  let joint =
    Joint.optimize_ctx (Obs.Ctx.default ()) ~ls_params:(ls_params ~seed ~evals) g demands
  in
  let omw =
    Omw.optimize_ctx (Obs.Ctx.default ()) g ls.Local_search.weights demands
  in
  [ ("InverseCapacity", inv); ("HeurOSPF", ls.Local_search.mlu);
    ("GreedyWaypoints", greedy.Greedy_wpo.mlu); ("JointHeur", joint.Joint.mlu);
    ("OMW", omw.Omw.mlu) ]
  @
  if lp_var_count g demands <= grad_lp_limit then
    [ ("GradWO", (Grad_wo.optimize_ctx (Obs.Ctx.default ()) g demands).Grad_wo.mlu) ]
  else []

let alg_names =
  [ "InverseCapacity"; "HeurOSPF"; "GreedyWaypoints"; "JointHeur"; "OMW";
    "GradWO" ]

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
          (Greedy_wpo.optimize_ctx (Obs.Ctx.default ()) g (Weights.unit g) net.Network.demands).Greedy_wpo.mlu
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
  let opt = Mcf.opt_mlu g [| { Mcf.src = 0; dst = 7; demand = 6. } |] in
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
  let comms =
    Array.map
      (fun (d : Network.demand) ->
        { Mcf.src = d.Network.src; dst = d.Network.dst; demand = d.Network.size })
      net.Network.demands
  in
  let opt2 = Mcf.opt_mlu g2 comms in
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
        (Greedy_wpo.optimize_ctx (Obs.Ctx.default ()) g (Weights.unit g) net.Network.demands).Greedy_wpo.mlu
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
  List.iter (fun a -> row " %15s" a) alg_names;
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
  let results =
    Par.Pool.map !the_pool ~tasks:(Array.length shards) (fun ~worker:_ i ->
        let name, seed = shards.(i) in
        let g = Topology.Datasets.load name in
        let demands = gen_demands g seed in
        ladder g demands ~seed ~evals)
  in
  let sums = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace sums a []) alg_names;
  List.iteri
    (fun ni name ->
      let per_alg = Hashtbl.create 8 in
      List.iter (fun a -> Hashtbl.replace per_alg a []) alg_names;
      for s = 0 to seeds - 1 do
        List.iter
          (fun (a, v) ->
            Hashtbl.replace per_alg a (v :: Hashtbl.find per_alg a);
            Hashtbl.replace sums a (v :: Hashtbl.find sums a))
          results.((ni * seeds) + s)
      done;
      row "%-14s" name;
      List.iter
        (fun a ->
          match Hashtbl.find per_alg a with
          | [] -> row " %15s" "-"  (* GradWO skipped: LP too large *)
          | xs -> row " %15.3f" (mean xs))
        alg_names;
      row "\n%!")
    names;
  row "%-14s" "AVERAGE";
  List.iter
    (fun a ->
      match Hashtbl.find sums a with
      | [] -> row " %15s" "-"
      | xs -> row " %15.3f" (mean xs))
    alg_names;
  row "\n"

let exp_fig4 () =
  let seeds = if !full then 10 else 2 in
  let evals = if !full then 3000 else 400 in
  let gen g seed =
    let flows =
      if !full then max 1 (Digraph.edge_count g / 4)
      else max 2 (Digraph.edge_count g / 16)
    in
    let epsilon = if !full then 0.08 else 0.15 in
    Demand_gen.mcf_synthetic ~epsilon ~seed ~flows_per_pair:flows g
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
  let gen g seed = Demand_gen.gravity ~epsilon:0.15 ~seed g in
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
      Demand_gen.mcf_synthetic ~epsilon:0.05 ~seed ~flows_per_pair:flows g
    in
    push "UnitWeights" (Ecmp.mlu_of g (Weights.unit g) demands);
    let inv_w = Weights.inverse_capacity g in
    push "InverseCapacity" (Ecmp.mlu_of g inv_w demands);
    let ls = Local_search.optimize_ctx (Obs.Ctx.default ()) ~params:(ls_params ~seed ~evals) g demands in
    push "HeurOSPF" ls.Local_search.mlu;
    (* ILP-Weights proxy: the best of several deeper local searches
       (see DESIGN.md: the weight MILP is out of reach for our B&B). *)
    let deep =
      List.fold_left
        (fun best s ->
          let r =
            Local_search.optimize_ctx (Obs.Ctx.default ())
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
    push "GreedyWaypoints"
      (Greedy_wpo.optimize_ctx (Obs.Ctx.default ()) g inv_w demands).Greedy_wpo.mlu;
    (* ILP Waypoints: the WPO MILP under the standard (inverse-capacity)
       weight setting, as in the paper's WPO-with-fixed-weights MILP. *)
    let milp =
      Wpo_milp.solve_ctx (Obs.Ctx.default ())
        ~max_nodes:(if !full then 20_000 else 3_000)
        g inv_w (Network.aggregate demands)
    in
    push
      (if milp.Wpo_milp.exact then "ILP-Waypoints" else "ILP-Waypoints(cap)")
      milp.Wpo_milp.mlu;
    let joint = Joint.optimize_ctx (Obs.Ctx.default ()) ~ls_params:(ls_params ~seed ~evals) g demands in
    push "JointHeur" joint.Joint.mlu;
    (* ILP-Joint proxy: deep weights + exact WPO MILP on top. *)
    let deep_w =
      (Local_search.optimize_ctx (Obs.Ctx.default ())
         ~params:
           { Local_search.default_params with max_evals = 2 * evals;
             seed = seed + 300; wmax = 24 }
         g demands)
        .Local_search.weights
    in
    let milp2 =
      Wpo_milp.solve_ctx (Obs.Ctx.default ())
        ~max_nodes:(if !full then 20_000 else 3_000)
        g (Weights.of_ints deep_w) (Network.aggregate demands)
    in
    (* Best joint setting any of our searches found. *)
    push "ILP-Joint*" (min (min deep milp2.Wpo_milp.mlu) joint.Joint.mlu)
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
      let lwo = Uspr_milp.lwo_ctx (Obs.Ctx.default ()) g net.Network.demands in
      let wpo =
        Wpo_milp.solve_ctx (Obs.Ctx.default ()) g (Weights.unit g)
          net.Network.demands
      in
      let jm =
        Uspr_milp.joint_ctx (Obs.Ctx.default ()) ~max_combos:300 g
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
    Demand_gen.mcf_synthetic ~epsilon:0.05 ~seed:1 ~flows_per_pair:2 g
  in
  let evals = if !full then 2000 else 500 in
  (* 1. HeurOSPF objective: Phi vs MLU. *)
  row "HeurOSPF guiding objective (Abilene, %d evals):\n" evals;
  List.iter
    (fun (label, use_phi) ->
      let r =
        Local_search.optimize_ctx (Obs.Ctx.default ())
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
      let r = Greedy_wpo.optimize_ctx (Obs.Ctx.default ()) ~order g inv_w demands in
      row "  %-18s MLU %.3f (from %.3f)\n" label r.Greedy_wpo.mlu
        r.Greedy_wpo.initial_mlu)
    [ ("descending (paper)", Greedy_wpo.Desc); ("ascending", Greedy_wpo.Asc);
      ("random", Greedy_wpo.Random 42) ];
  (* 3. JOINT-Heur pipeline depth. *)
  row "JOINT-Heur stages (paper: steps 3-4 gains negligible):\n";
  List.iter
    (fun (label, full_pipeline) ->
      let r =
        Joint.optimize_ctx (Obs.Ctx.default ()) ~ls_params:(ls_params ~seed:5 ~evals) ~full_pipeline g demands
      in
      row "  %-18s MLU %.3f\n" label r.Joint.mlu)
    [ ("steps 1-2", false); ("steps 1-4", true) ];
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
    Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:3 ~flows_per_pair:4 g50
  in
  List.iter
    (fun passes ->
      let r = Greedy_wpo.optimize_ctx (Obs.Ctx.default ()) ~passes g50 (Weights.inverse_capacity g50) d50 in
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
        Greedy_wpo.optimize_multi_ctx (Obs.Ctx.default ()) ~rounds n3.Network.graph
          i3.Instances.Gap_instances.joint_weights n3.Network.demands
      in
      row "  W <= %d             MLU %.3f\n" rounds r.Greedy_wpo.mlu)
    [ 1; 2; 3 ];
  (* 6. How many weight/waypoint iterations?  (also §8). *)
  row "Iterated JOINT-Heur (Abilene):\n";
  List.iter
    (fun iterations ->
      let r =
        Joint.optimize_iterated_ctx (Obs.Ctx.default ())
          ~ls_params:(ls_params ~seed:5 ~evals:(evals / iterations))
          ~iterations g demands
      in
      row "  %d iterations       MLU %.3f\n" iterations r.Joint.mlu)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Evaluation engine: incremental vs from-scratch                      *)
(* ------------------------------------------------------------------ *)

(* Measures the move protocol the local searches live on: probe one
   weight change, evaluate, undo.  The baseline rebuilds the full ECMP
   state per candidate (a fresh evaluator each time, i.e. what a
   one-shot evaluation costs); the engine repairs only the destinations
   the changed edge can affect.  Results land in BENCH_engine.json. *)
let exp_engine () =
  section "Engine: incremental vs from-scratch single-weight-move evaluation";
  let bctx = bench_ctx () in
  let records = ref [] in
  let emit r = records := r :: !records in
  let topos = if !full then [ "Abilene"; "Germany50"; "Ta2" ]
              else [ "Abilene"; "Germany50" ] in
  row "%-12s %8s %14s %14s %9s %11s\n" "topology" "moves" "scratch ev/s"
    "engine ev/s" "speedup" "full/incr";
  Obs.Ctx.phase bctx "probe-race" (fun () ->
  List.iter
    (fun name ->
      let g = Topology.Datasets.load name in
      let m = Digraph.edge_count g in
      let demands =
        Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:1
          ~flows_per_pair:(max 2 (m / 16)) g
      in
      let comms = Network.to_commodities demands in
      let st = Random.State.make [| 0xbe; 42 |] in
      let base = Array.init m (fun _ -> float_of_int (1 + Random.State.int st 16)) in
      let moves = if !full then 500 else 200 in
      (* One fixed move sequence so both sides do identical work. *)
      let seq =
        Array.init moves (fun _ ->
            (Random.State.int st m, float_of_int (1 + Random.State.int st 20)))
      in
      (* Baseline: full rebuild per candidate. *)
      let w = Array.copy base in
      let sink = ref 0. in
      let t0 = Engine.Mono.now () in
      Array.iter
        (fun (e, wv) ->
          let old = w.(e) in
          w.(e) <- wv;
          sink := !sink +. Engine.Evaluator.mlu_of g w comms;
          w.(e) <- old)
        seq;
      let t_scratch = Engine.Mono.now () -. t0 in
      (* Engine: persistent evaluator, probe / evaluate / undo. *)
      let stats = Engine.Stats.create () in
      let ev = Engine.Evaluator.create ~stats g base in
      Engine.Evaluator.set_commodities ev comms;
      ignore (Engine.Evaluator.evaluate ev);
      (* warm start = the state any search holds between moves *)
      Engine.Stats.reset stats;
      let sink2 = ref 0. in
      let t0 = Engine.Mono.now () in
      Array.iter
        (fun (e, wv) ->
          Engine.Evaluator.set_weight ev ~edge:e wv;
          sink2 := !sink2 +. fst (Engine.Evaluator.evaluate ev);
          Engine.Evaluator.undo ev)
        seq;
      let t_engine = Engine.Mono.now () -. t0 in
      if abs_float (!sink -. !sink2) > 1e-6 *. abs_float !sink then
        row "  WARNING: scratch/engine MLU sums differ (%.9g vs %.9g)\n"
          !sink !sink2;
      let fm = float_of_int moves in
      let ev_scratch = fm /. t_scratch and ev_engine = fm /. t_engine in
      let ratio =
        float_of_int stats.Engine.Stats.full_spf
        /. float_of_int (max 1 stats.Engine.Stats.incr_spf)
      in
      row "%-12s %8d %14.0f %14.0f %8.1fx %11.4f\n" name moves ev_scratch
        ev_engine (ev_engine /. ev_scratch) ratio;
      emit
        (Printf.sprintf
           "{\"topology\": %S, \"algorithm\": \"single-weight-probe\", \
            \"moves\": %d, \"scratch_evals_per_sec\": %.1f, \
            \"engine_evals_per_sec\": %.1f, \"speedup\": %.3f, \
            \"wall_seconds_scratch\": %.6f, \"wall_seconds_engine\": %.6f, \
            \"full_spf\": %d, \"incr_spf\": %d, \
            \"incremental_vs_full_ratio\": %.4f}"
           name moves ev_scratch ev_engine (ev_engine /. ev_scratch) t_scratch
           t_engine stats.Engine.Stats.full_spf stats.Engine.Stats.incr_spf
           (float_of_int stats.Engine.Stats.incr_spf
           /. float_of_int (max 1 stats.Engine.Stats.full_spf))))
    topos);
  (* Size-scaling curve: probe/evaluate/undo throughput as a function
     of topology size, over the zoo-scale ladder (synthetic stand-ins
     unless --scale finds real GraphML files under the data dir).  The
     demand set is a fixed seeded pair sample per topology — no MCF
     normalization, whose LP would dwarf the measurement on the
     754-node instance. *)
  row "\nSize-scaling curve (probe/evaluate/undo per topology size):\n";
  row "%-12s %6s %6s %8s %7s %14s %11s\n" "topology" "nodes" "edges"
    "commods" "moves" "engine ev/s" "full/incr";
  Obs.Ctx.phase bctx "size-scaling" (fun () ->
  List.iter
    (fun name ->
      let real =
        !scale && Sys.file_exists (Filename.concat !data_dir (name ^ ".graphml"))
      in
      let g =
        Topology.Datasets.load
          ?data_dir:(if real then Some !data_dir else None)
          name
      in
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      let st = Random.State.make [| 0x5ca1e; n |] in
      let base =
        Array.init m (fun _ -> float_of_int (1 + Random.State.int st 16))
      in
      let stats = Engine.Stats.create () in
      let ev = Engine.Evaluator.create ~stats g base in
      (* ~4 commodities per node, reachable pairs only (real zoo files
         may have isolated fragments). *)
      let target = 4 * n in
      let comms = ref [] and tries = ref 0 and got = ref 0 in
      while !got < target && !tries < 40 * target do
        incr tries;
        let s = Random.State.int st n and d = Random.State.int st n in
        if s <> d && Engine.Evaluator.reachable ev ~src:s ~dst:d then begin
          comms := (s, d, float_of_int (1 + Random.State.int st 9)) :: !comms;
          incr got
        end
      done;
      Engine.Evaluator.set_commodities ev (Array.of_list (List.rev !comms));
      let moves = if !full then 1000 else 300 in
      let seq =
        Array.init moves (fun _ ->
            (Random.State.int st m, float_of_int (1 + Random.State.int st 20)))
      in
      let cell = { Engine.Evaluator.mlu = 0.; phi = 0. } in
      Engine.Evaluator.evaluate_into ev cell;
      (* warm start: pools, DAGs and unit caches at steady state *)
      Engine.Stats.reset stats;
      let sink = ref 0. in
      let t0 = Engine.Mono.now () in
      Array.iter
        (fun (e, wv) ->
          Engine.Evaluator.set_weight ev ~edge:e wv;
          Engine.Evaluator.evaluate_into ev cell;
          sink := !sink +. cell.Engine.Evaluator.mlu;
          Engine.Evaluator.undo ev)
        seq;
      let wall = Engine.Mono.now () -. t0 in
      let eps = float_of_int moves /. wall in
      let ratio =
        float_of_int stats.Engine.Stats.full_spf
        /. float_of_int (max 1 stats.Engine.Stats.incr_spf)
      in
      let ht = Engine.Stats.hot_times stats in
      row "%-12s %6d %6d %8d %7d %14.0f %11.4f  (incr %.0f%% units %.0f%% \
           loads %.0f%%)\n"
        name n m !got moves eps ratio
        (100. *. ht.(Engine.Stats.hot_spf_incr) /. wall)
        (100. *. ht.(Engine.Stats.hot_units) /. wall)
        (100. *. ht.(Engine.Stats.hot_loads) /. wall);
      emit
        (Printf.sprintf
           "{\"topology\": %S, \"algorithm\": \"size-scaling-probe\", \
            \"source\": %S, \"nodes\": %d, \"edges\": %d, \
            \"commodities\": %d, \"moves\": %d, \"evals_per_sec\": %.1f, \
            \"wall_seconds\": %.6f, \"full_spf\": %d, \"incr_spf\": %d, \
            \"spf_nodes_touched\": %d, \"seconds_spf_incr\": %.6f, \
            \"seconds_units\": %.6f, \"seconds_loads\": %.6f}"
           name
           (if real then "graphml" else "synthetic")
           n m !got moves eps wall stats.Engine.Stats.full_spf
           stats.Engine.Stats.incr_spf stats.Engine.Stats.spf_nodes_touched
           ht.(Engine.Stats.hot_spf_incr)
           ht.(Engine.Stats.hot_units)
           ht.(Engine.Stats.hot_loads)))
    Topology.Datasets.scale_names);
  (* The same instrumentation through a whole HeurOSPF run. *)
  row "\nHeurOSPF through the engine (Abilene):\n";
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~epsilon:0.05 ~seed:1 ~flows_per_pair:2 g
  in
  let evals = if !full then 3000 else 600 in
  let stats = Engine.Stats.create () in
  let t0 = Engine.Mono.now () in
  let ls =
    Obs.Ctx.phase bctx "heurospf" (fun () ->
        Local_search.optimize_ctx (Obs.Ctx.make ~stats ()) ~params:(ls_params ~seed:5 ~evals) g
          demands)
  in
  let wall = Engine.Mono.now () -. t0 in
  row "  MLU %.3f  %s\n" ls.Local_search.mlu
    (Format.asprintf "%a" Engine.Stats.pp stats);
  emit
    (Printf.sprintf
       "{\"topology\": \"Abilene\", \"algorithm\": \"HeurOSPF\", \
        \"evaluations\": %d, \"evals_per_sec\": %.1f, \
        \"wall_seconds\": %.6f, \"full_spf\": %d, \"incr_spf\": %d, \
        \"incremental_vs_full_ratio\": %.4f, \"dirty_dests\": %d, \
        \"clean_dests\": %d}"
       stats.Engine.Stats.evaluations
       (float_of_int stats.Engine.Stats.evaluations /. wall)
       wall stats.Engine.Stats.full_spf stats.Engine.Stats.incr_spf
       (float_of_int stats.Engine.Stats.incr_spf
       /. float_of_int (max 1 stats.Engine.Stats.full_spf))
       stats.Engine.Stats.dirty_dests stats.Engine.Stats.clean_dests);
  write_bench ~ctx:bctx ~file:"BENCH_engine.json" ~bench:"engine"
    (List.rev !records)

(* ------------------------------------------------------------------ *)
(* Parallel search runtime                                             *)
(* ------------------------------------------------------------------ *)

(* One measured (topology, jobs) point of the scheduler benchmark. *)
type parallel_rec = {
  pr_scan_evals : int;
  pr_wpo_wall : float;
  pr_ls_evals : int;
  pr_ls_wall : float;
  pr_overhead_us : float;  (* scheduler overhead per task, microseconds *)
  pr_syncs : int;  (* clone-cache delta syncs, both heuristics *)
  pr_copies : int;  (* clone-cache full copies, both heuristics *)
  pr_steals : int;  (* deque steals during the two runs *)
  pr_parks : int;  (* worker park events during the two runs *)
  pr_efficiency : float;  (* par_busy / (par_wall * jobs); nan at jobs=1 *)
}

(* Scaling of lib/par: the GreedyWPO candidate scan and the HeurOSPF
   probe fan-out, both running on cached per-worker clones under the
   work-stealing scheduler, at pool sizes 1/2/4/8.  Every run is checked
   bit-identical against the jobs = 1 reference before its timing is
   reported — a speedup that changes the answer would be a bug, not a
   result.  Each record carries the scheduler's own counters (steals,
   parks, per-task overhead) and the clone-cache amortization ratio;
   two extra records report the sync-vs-copy microbenchmark and the
   multicore efficiency gate, which is enforced only when the host
   actually has >= 4 cores and recorded as skipped otherwise.  Results
   land in BENCH_parallel.json under schema bench/parallel/2, stamped
   (like every envelope) with the host's core count so numbers from a
   single-core container are recognizable as such. *)
let exp_parallel () =
  section "Parallel search runtime: work-stealing scheduler (lib/par)";
  let bctx = bench_ctx () in
  let cores = Obs.Export.host_cores () in
  row "host: Domain.recommended_domain_count () = %d\n" cores;
  let records = ref [] in
  let emit r = records := r :: !records in
  let jobs_list = [ 1; 2; 4; 8 ] in
  let topos = [ "Abilene"; "Germany50" ] in
  List.iter
    (fun name ->
      Obs.Ctx.phase bctx name @@ fun () ->
      let g = Topology.Datasets.load name in
      let m = Digraph.edge_count g in
      let demands =
        Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:1
          ~flows_per_pair:(max 2 (m / 16)) g
      in
      let inv_w = Weights.inverse_capacity g in
      let evals = if !full then 2000 else 400 in
      let run_wpo pool =
        let stats = Engine.Stats.create () in
        let t0 = Engine.Mono.now () in
        let r = Greedy_wpo.optimize_ctx (Obs.Ctx.make ~stats ~pool ()) g inv_w demands in
        (r, stats, Engine.Mono.now () -. t0)
      in
      let run_ls pool =
        let stats = Engine.Stats.create () in
        let t0 = Engine.Mono.now () in
        let r =
          Local_search.optimize_ctx (Obs.Ctx.make ~stats ~pool ())
            ~params:(ls_params ~seed:3 ~evals)
            g demands
        in
        (r, stats, Engine.Mono.now () -. t0)
      in
      let ref_wpo = ref None and ref_ls = ref None in
      List.iter
        (fun jobs ->
          let measure pool =
            let m0 = Par.Pool.metrics pool in
            let wpo = run_wpo pool in
            let ls = run_ls pool in
            (wpo, ls, m0, Par.Pool.metrics pool)
          in
          let (wpo, wpo_stats, wpo_wall), (ls, ls_stats, ls_wall), m0, m1 =
            if jobs = 1 then measure Par.Pool.sequential
            else Par.Pool.with_pool ~jobs measure
          in
          (match !ref_wpo with
          | None -> ref_wpo := Some wpo
          | Some r ->
            if wpo.Greedy_wpo.waypoints <> r.Greedy_wpo.waypoints
               || wpo.Greedy_wpo.mlu <> r.Greedy_wpo.mlu then
              failwith
                (Printf.sprintf
                   "GreedyWPO result at --jobs %d differs from jobs=1 on %s"
                   jobs name));
          (match !ref_ls with
          | None -> ref_ls := Some ls
          | Some r ->
            if ls.Local_search.weights <> r.Local_search.weights
               || ls.Local_search.mlu <> r.Local_search.mlu
               || ls.Local_search.evals <> r.Local_search.evals then
              failwith
                (Printf.sprintf
                   "HeurOSPF result at --jobs %d differs from jobs=1 on %s"
                   jobs name));
          let tasks =
            wpo_stats.Engine.Stats.par_tasks + ls_stats.Engine.Stats.par_tasks
          in
          let overhead_us =
            if tasks = 0 then 0.
            else
              (wpo_stats.Engine.Stats.par_wall
              +. ls_stats.Engine.Stats.par_wall
              -. wpo_stats.Engine.Stats.par_busy
              -. ls_stats.Engine.Stats.par_busy)
              /. float_of_int tasks *. 1e6
          in
          emit
            ( (name, jobs),
              {
                pr_scan_evals =
                  Array.fold_left ( + ) 0 wpo_stats.Engine.Stats.worker_evals;
                pr_wpo_wall = wpo_wall;
                pr_ls_evals = ls_stats.Engine.Stats.evaluations;
                pr_ls_wall = ls_wall;
                pr_overhead_us = overhead_us;
                pr_syncs =
                  wpo_stats.Engine.Stats.clone_syncs
                  + ls_stats.Engine.Stats.clone_syncs;
                pr_copies =
                  wpo_stats.Engine.Stats.clone_copies
                  + ls_stats.Engine.Stats.clone_copies;
                pr_steals = m1.Par.Pool.steals - m0.Par.Pool.steals;
                pr_parks = m1.Par.Pool.parks - m0.Par.Pool.parks;
                pr_efficiency = Engine.Stats.parallel_efficiency ls_stats;
              } ))
        jobs_list)
    topos;
  (* Render and serialize: walk the records per topology so each row's
     speedup is measured against its own jobs = 1 wall time. *)
  let records = List.rev !records in
  let json = ref [] in
  List.iter
    (fun name ->
      let base = List.assoc (name, 1) records in
      row "\n%-12s %6s %12s %8s %12s %8s %9s %7s %7s\n" name "jobs"
        "scan ev/s" "speedup" "probe ev/s" "speedup" "ovh us/t" "steals"
        "amort";
      List.iter
        (fun jobs ->
          match List.assoc_opt (name, jobs) records with
          | None -> ()
          | Some r ->
            let amort =
              if r.pr_syncs + r.pr_copies = 0 then 0.
              else
                float_of_int r.pr_syncs
                /. float_of_int (r.pr_syncs + r.pr_copies)
            in
            row "%-12s %6d %12.0f %7.2fx %12.0f %7.2fx %9.2f %7d %7.2f\n"
              name jobs
              (float_of_int r.pr_scan_evals /. r.pr_wpo_wall)
              (base.pr_wpo_wall /. r.pr_wpo_wall)
              (float_of_int r.pr_ls_evals /. r.pr_ls_wall)
              (base.pr_ls_wall /. r.pr_ls_wall)
              r.pr_overhead_us r.pr_steals amort;
            json :=
              Printf.sprintf
                "{\"topology\": %S, \"jobs\": %d, \
                 \"identical_to_jobs1\": true, \
                 \"scan_candidates\": %d, \"scan_wall_seconds\": %.6f, \
                 \"scan_evals_per_sec\": %.1f, \"scan_speedup\": %.3f, \
                 \"probe_evaluations\": %d, \"probe_wall_seconds\": %.6f, \
                 \"probe_evals_per_sec\": %.1f, \"probe_speedup\": %.3f, \
                 \"sched_overhead_us_per_task\": %.3f, \
                 \"steals\": %d, \"parks\": %d, \
                 \"clone_syncs\": %d, \"clone_copies\": %d, \
                 \"clone_amortization\": %.3f, \"efficiency\": %s}"
                name jobs r.pr_scan_evals r.pr_wpo_wall
                (float_of_int r.pr_scan_evals /. r.pr_wpo_wall)
                (base.pr_wpo_wall /. r.pr_wpo_wall)
                r.pr_ls_evals r.pr_ls_wall
                (float_of_int r.pr_ls_evals /. r.pr_ls_wall)
                (base.pr_ls_wall /. r.pr_ls_wall)
                r.pr_overhead_us r.pr_steals r.pr_parks r.pr_syncs
                r.pr_copies amort
                (if Float.is_nan r.pr_efficiency then "null"
                 else Printf.sprintf "%.3f" r.pr_efficiency)
              :: !json)
        jobs_list)
    topos;
  row "\nall runs bit-identical to jobs=1\n";
  (* Sync-vs-copy microbenchmark on a warm Germany50 clone, two
     regimes.  Steady state: the clone is already in sync when the next
     fan-out arrives (repeated sweeps over an unchanged master, the
     serving daemon re-entering between updates) — sync_from is a pure
     O(m) diff scan and must beat a full copy by a wide margin; the
     gate below enforces 3x there.  Delta: the search committed one
     weight move since the last fan-out — sync_from pays a real
     incremental repair while copy free-rides on the source's
     just-repaired caches, so that regime is recorded honestly but not
     gated. *)
  let sync_us, copy_us =
    Obs.Ctx.phase bctx "sync_vs_copy" @@ fun () ->
    let g = Topology.Datasets.load "Germany50" in
    let m = Digraph.edge_count g in
    let demands =
      Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:1
        ~flows_per_pair:(max 2 (m / 16)) g
    in
    let src = Engine.Evaluator.create g (Weights.inverse_capacity g) in
    Engine.Evaluator.set_commodities src (Network.to_commodities demands);
    ignore (Engine.Evaluator.evaluate src);
    let clone = Engine.Evaluator.copy src in
    ignore (Engine.Evaluator.evaluate clone);
    let reps = if !full then 400 else 100 in
    let st = Random.State.make [| 0xc10e |] in
    let move () =
      Engine.Evaluator.set_weight src ~edge:(Random.State.int st m)
        (float_of_int (1 + Random.State.int st 20));
      Engine.Evaluator.commit src;
      ignore (Engine.Evaluator.evaluate src)
    in
    (* Steady state: clone in sync, source unchanged between syncs. *)
    Engine.Evaluator.sync_from ~src clone;
    ignore (Engine.Evaluator.evaluate clone);
    let t_sync = ref 0. in
    for _ = 1 to reps do
      let t0 = Engine.Mono.now () in
      Engine.Evaluator.sync_from ~src clone;
      t_sync := !t_sync +. (Engine.Mono.now () -. t0);
      ignore (Engine.Evaluator.evaluate clone)
    done;
    let t_copy = ref 0. in
    for _ = 1 to reps do
      let t0 = Engine.Mono.now () in
      let c = Engine.Evaluator.copy src in
      t_copy := !t_copy +. (Engine.Mono.now () -. t0);
      ignore (Engine.Evaluator.evaluate c)
    done;
    (* Delta: one committed move on the source between fan-outs. *)
    let t_dsync = ref 0. in
    for _ = 1 to reps do
      move ();
      let t0 = Engine.Mono.now () in
      Engine.Evaluator.sync_from ~src clone;
      t_dsync := !t_dsync +. (Engine.Mono.now () -. t0);
      ignore (Engine.Evaluator.evaluate clone)
    done;
    let t_dcopy = ref 0. in
    for _ = 1 to reps do
      move ();
      let t0 = Engine.Mono.now () in
      let c = Engine.Evaluator.copy src in
      t_dcopy := !t_dcopy +. (Engine.Mono.now () -. t0);
      ignore (Engine.Evaluator.evaluate c)
    done;
    let per t = !t /. float_of_int reps *. 1e6 in
    let sync_us = per t_sync and copy_us = per t_copy in
    let dsync_us = per t_dsync and dcopy_us = per t_dcopy in
    row "\nsync_from vs copy (Germany50, warm clone, %d reps)\n" reps;
    row "  steady state (in sync): %.1f us vs %.1f us (%.1fx)\n"
      sync_us copy_us (copy_us /. sync_us);
    row "  one-move delta:         %.1f us vs %.1f us (%.1fx)\n"
      dsync_us dcopy_us (dcopy_us /. dsync_us);
    json :=
      Printf.sprintf
        "{\"microbench\": \"sync_vs_copy\", \"topology\": \"Germany50\", \
         \"regime\": \"steady_state\", \"reps\": %d, \
         \"sync_us\": %.3f, \"copy_us\": %.3f, \"sync_speedup\": %.2f}"
        reps sync_us copy_us (copy_us /. sync_us)
      :: !json;
    json :=
      Printf.sprintf
        "{\"microbench\": \"sync_vs_copy\", \"topology\": \"Germany50\", \
         \"regime\": \"one_move_delta\", \"reps\": %d, \
         \"sync_us\": %.3f, \"copy_us\": %.3f, \"sync_speedup\": %.2f}"
        reps dsync_us dcopy_us (dcopy_us /. dsync_us)
      :: !json;
    (sync_us, copy_us)
  in
  (* Multicore efficiency gate: >= 0.7 at Germany50 jobs=4, enforced
     only where 4 workers can actually run in parallel.  On smaller
     hosts the honest answer is "skipped", not a vacuous pass. *)
  let g50_eff =
    match List.assoc_opt ("Germany50", 4) records with
    | Some r when not (Float.is_nan r.pr_efficiency) ->
      Some r.pr_efficiency
    | _ -> None
  in
  let status =
    if cores >= 4 then
      match g50_eff with
      | Some e when e >= 0.7 -> "passed"
      | _ -> "failed"
    else
      Printf.sprintf "skipped (%d core%s)" cores (if cores = 1 then "" else "s")
  in
  row "efficiency gate (Germany50 jobs=4, threshold 0.70): %s%s\n" status
    (match g50_eff with
    | Some e -> Printf.sprintf " [measured %.3f]" e
    | None -> "");
  json :=
    Printf.sprintf
      "{\"gate\": \"parallel_efficiency\", \"topology\": \"Germany50\", \
       \"jobs\": 4, \"threshold\": 0.7, \"efficiency\": %s, \
       \"host_cores\": %d, \"status\": %s}"
      (match g50_eff with
      | Some e -> Printf.sprintf "%.3f" e
      | None -> "null")
      cores
      (Obs.Export.json_str status)
    :: !json;
  write_bench ~ctx:bctx ~version:2 ~file:"BENCH_parallel.json"
    ~bench:"parallel" (List.rev !json);
  if copy_us /. sync_us < 3. then
    failwith
      (Printf.sprintf
         "sync_from only %.2fx cheaper than copy (gate: 3x)"
         (copy_us /. sync_us));
  if status = "failed" then
    failwith "parallel efficiency below 0.7 at Germany50 jobs=4"

(* ------------------------------------------------------------------ *)
(* Robustness sweep throughput                                         *)
(* ------------------------------------------------------------------ *)

(* lib/scenario streaming throughput: the engine path (persistent
   per-worker evaluators, disable_edge probes, dirty-destination
   repair) against the rebuild oracle (fresh subgraph + ECMP state per
   scenario), then scenarios/sec at several pool sizes.  Every engine
   run is checked against the oracle and against the jobs = 1 reference
   before its timing is reported.  Results land in
   BENCH_robustness.json. *)
let exp_robust () =
  section "Robustness sweep: engine path vs rebuild oracle (lib/scenario)";
  let bctx = bench_ctx () in
  let records = ref [] in
  let emit r = records := r :: !records in
  let topos = if !full then [ "Abilene"; "Germany50" ] else [ "Abilene" ] in
  let jobs_list = if !full then [ 1; 2; 4; 8 ] else [ 1; 2; 4 ] in
  row "%-12s %9s %6s %14s %9s %13s\n" "topology" "scenarios" "jobs"
    "scenarios/s" "speedup" "vs rebuild";
  List.iter
    (fun name ->
      Obs.Ctx.phase bctx name @@ fun () ->
      let g = Topology.Datasets.load name in
      let m = Digraph.edge_count g in
      let demands =
        Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:1
          ~flows_per_pair:(max 2 (m / 16)) g
      in
      let evals = if !full then 2000 else 300 in
      let joint = Joint.optimize_ctx (Obs.Ctx.default ()) ~ls_params:(ls_params ~seed:1 ~evals) g demands in
      let deployed =
        {
          Scenario.weights = joint.Joint.int_weights;
          Scenario.waypoints = joint.Joint.waypoints;
        }
      in
      let cfg =
        {
          Scenario.default_config with
          Scenario.seed = 1;
          Scenario.dual_failures = (if !full then 40 else 10);
          Scenario.scales = [ 0.8; 1.2 ];
          Scenario.jitters = 4;
          Scenario.hotspots = 2;
          Scenario.diurnal = 4;
        }
      in
      let specs = Scenario.generate cfg g in
      let n = Array.length specs in
      (* The historical path: rebuild the subgraph per scenario. *)
      let t0 = Engine.Mono.now () in
      let oracle = Scenario.static_sweep_rebuild ~deployed g demands specs in
      let t_rebuild = Engine.Mono.now () -. t0 in
      let run pool =
        let t0 = Engine.Mono.now () in
        let out = Scenario.sweep_ctx (Obs.Ctx.make ~pool ()) ~deployed g demands specs in
        (out, Engine.Mono.now () -. t0)
      in
      let reference = ref None in
      List.iter
        (fun jobs ->
          let out, wall =
            if jobs = 1 then run Par.Pool.sequential
            else Par.Pool.with_pool ~jobs run
          in
          (match !reference with
          | None ->
            (* jobs = 1: validate the engine path against the oracle. *)
            Array.iteri
              (fun i (om, od) ->
                let o = out.(i) in
                let close a b =
                  (Float.is_nan a && Float.is_nan b)
                  || abs_float (a -. b) <= 1e-9 *. (1. +. abs_float b)
                in
                if o.Scenario.static_disconnected <> od
                   || not (close o.Scenario.static_mlu om)
                then
                  failwith
                    (Printf.sprintf
                       "engine/oracle mismatch on %s scenario %d" name i))
              oracle;
            reference := Some (out, wall)
          | Some (ref_out, _) ->
            (* compare treats nan = nan, unlike (=). *)
            if compare out ref_out <> 0 then
              failwith
                (Printf.sprintf
                   "sweep at --jobs %d differs from jobs=1 on %s" jobs name));
          let base_wall = match !reference with Some (_, w) -> w | None -> wall in
          let fn = float_of_int n in
          row "%-12s %9d %6d %14.0f %8.2fx %12.1fx\n" name n jobs (fn /. wall)
            (base_wall /. wall)
            (t_rebuild /. wall);
          emit
            (Printf.sprintf
               "{\"topology\": %S, \"scenarios\": %d, \"jobs\": %d, \
                \"identical_to_jobs1\": true, \"wall_seconds\": %.6f, \
                \"scenarios_per_sec\": %.1f, \"speedup_vs_jobs1\": %.3f, \
                \"rebuild_wall_seconds\": %.6f, \
                \"rebuild_scenarios_per_sec\": %.1f, \
                \"engine_vs_rebuild_speedup\": %.3f, \
                \"engine_at_least_rebuild\": %b}"
               name n jobs wall (fn /. wall) (base_wall /. wall) t_rebuild
               (fn /. t_rebuild)
               (t_rebuild /. wall)
               (fn /. wall >= fn /. t_rebuild)))
        jobs_list)
    topos;
  write_bench ~ctx:bctx ~file:"BENCH_robustness.json" ~bench:"robustness"
    (List.rev !records)

(* ------------------------------------------------------------------ *)
(* LP layer: sparse revised simplex vs dense tableau                   *)
(* ------------------------------------------------------------------ *)

module Simplex = Linprog.Simplex

(* Best-of-[reps] wall clock; the solvers are deterministic, so the
   result of any repetition stands for all of them. *)
let time_best reps f =
  let best = ref infinity and last = ref None in
  for _ = 1 to reps do
    let t0 = Engine.Mono.now () in
    let r = f () in
    let dt = Engine.Mono.now () -. t0 in
    if dt < !best then best := dt;
    last := Some r
  done;
  (Option.get !last, !best)

let mcf_comms demands =
  Array.map
    (fun (d : Network.demand) ->
      { Mcf.src = d.Network.src; dst = d.Network.dst; demand = d.Network.size })
    demands

(* The min-MLU LP in legacy dense row form — the same formulation
   Mcf.build_mlu_lp assembles sparsely — so Simplex.Dense and
   Simplex.Sparse race on identical problems. *)
let dense_mlu_problem g comms =
  let n = Digraph.node_count g and m = Digraph.edge_count g in
  let comms = Mcf.aggregate comms in
  let targets =
    List.sort_uniq Int.compare
      (Array.to_list (Array.map (fun c -> c.Mcf.dst) comms))
  in
  let tindex = Hashtbl.create 16 in
  List.iteri (fun i t -> Hashtbl.replace tindex t i) targets;
  let nt = List.length targets in
  let fvar ti e = 1 + (ti * m) + e in
  let supply = Array.make_matrix nt n 0. in
  Array.iter
    (fun c ->
      let ti = Hashtbl.find tindex c.Mcf.dst in
      supply.(ti).(c.Mcf.src) <- supply.(ti).(c.Mcf.src) +. c.Mcf.demand)
    comms;
  let constrs = ref [] in
  List.iteri
    (fun ti t ->
      for v = 0 to n - 1 do
        if v <> t then begin
          let row = ref [] in
          Array.iter (fun e -> row := (fvar ti e, 1.) :: !row) (Digraph.out_edges g v);
          Array.iter (fun e -> row := (fvar ti e, -1.) :: !row) (Digraph.in_edges g v);
          constrs := Simplex.constr !row Simplex.Eq supply.(ti).(v) :: !constrs
        end
      done)
    targets;
  for e = 0 to m - 1 do
    let row = ref [ (0, -.Digraph.cap g e) ] in
    for ti = 0 to nt - 1 do
      row := (fvar ti e, 1.) :: !row
    done;
    constrs := Simplex.constr !row Simplex.Le 0. :: !constrs
  done;
  { Simplex.nvars = 1 + (nt * m); sense = Simplex.Minimize;
    objective = [ (0, 1.) ]; constrs = !constrs }

(* The LP/MILP layer after the sparse rewrite: the revised simplex vs
   the retained dense tableau oracle on identical min-MLU LPs, warm vs
   cold branch-and-bound re-solves, and warm-basis reuse across a
   demand-scaling sweep.  Results land in BENCH_lp.json. *)
let exp_lp () =
  section "LP layer: sparse revised simplex vs dense tableau oracle";
  let bctx = bench_ctx () in
  let records = ref [] in
  let emit r = records := r :: !records in
  let reps = if !full then 5 else 3 in
  row "%-22s %6s %6s %10s %10s %8s %8s %12s\n" "instance" "rows" "cols"
    "dense s" "sparse s" "speedup" "pivots" "pivots/sec";
  let race name g comms =
    Obs.Ctx.phase bctx "lp-race" @@ fun () ->
    let p = dense_mlu_problem g comms in
    let sp = Simplex.Sparse.of_problem p in
    let dres, t_dense = time_best reps (fun () -> Simplex.Dense.solve p) in
    let sres, t_sparse = time_best reps (fun () -> Simplex.Sparse.solve sp) in
    let dval =
      match dres with Simplex.Optimal { value; _ } -> value | _ -> nan
    in
    let sval, iters =
      match sres with
      | Simplex.Sparse.Optimal { value; iters; _ } -> (value, iters)
      | _ -> (nan, 0)
    in
    let mcf_val, t_mcf = time_best reps (fun () -> Mcf.opt_mlu_lp g comms) in
    let agree v = abs_float (v -. sval) <= 1e-6 *. (1. +. abs_float sval) in
    if not (agree dval) then
      row "  WARNING: dense/sparse objectives differ (%.9g vs %.9g)\n" dval sval;
    if not (agree mcf_val) then
      row "  WARNING: Mcf.opt_mlu_lp disagrees (%.9g vs %.9g)\n" mcf_val sval;
    let speedup = t_dense /. t_sparse in
    row "%-22s %6d %6d %10.4f %10.4f %7.1fx %8d %12.0f\n" name
      sp.Simplex.Sparse.nrows sp.Simplex.Sparse.ncols t_dense t_sparse speedup
      iters
      (float_of_int iters /. t_sparse);
    emit
      (Printf.sprintf
         "{\"instance\": %S, \"kind\": \"lp-race\", \"rows\": %d, \
          \"cols\": %d, \"dense_wall_seconds\": %.6f, \
          \"sparse_wall_seconds\": %.6f, \"speedup\": %.3f, \
          \"sparse_pivots\": %d, \"pivots_per_sec\": %.1f, \
          \"mcf_entry_wall_seconds\": %.6f, \"objective\": %.9g, \
          \"objectives_agree\": %b}"
         name sp.Simplex.Sparse.nrows sp.Simplex.Sparse.ncols t_dense t_sparse
         speedup iters
         (float_of_int iters /. t_sparse)
         t_mcf sval
         (agree dval && agree mcf_val))
  in
  let abilene = Topology.Datasets.abilene () in
  List.iter
    (fun seed ->
      let demands =
        Demand_gen.mcf_synthetic ~epsilon:0.1 ~seed ~flows_per_pair:2 abilene
      in
      race
        (Printf.sprintf "Abilene(seed=%d)" seed)
        abilene (mcf_comms demands))
    (if !full then [ 1; 2; 3 ] else [ 1; 2 ]);
  List.iter
    (fun (name, inst) ->
      let net = inst.Instances.Gap_instances.network in
      race name net.Network.graph (mcf_comms net.Network.demands))
    [ ("I1(m=32)", Instances.Gap_instances.instance1 ~m:32);
      ("I3(m=8)", Instances.Gap_instances.instance3 ~m:8) ];
  (* A medium instance from opt_mlu's LP-dispatch band (nvars below the
     3000-variable limit): Germany50 with the demand matrix capped to
     the first [cap] distinct destinations.  At this size the dense
     tableau's O(rows * cols) pivot cost stops being affordable and the
     sparse solver's advantage is an order of magnitude. *)
  (let g50 = Topology.Datasets.load "Germany50" in
   let d50 =
     Demand_gen.mcf_synthetic ~epsilon:0.1 ~seed:1 ~flows_per_pair:4 g50
   in
   let cap = if !full then 14 else 10 in
   let seen = Hashtbl.create 16 in
   let keep c =
     if Hashtbl.mem seen c.Mcf.dst then true
     else if Hashtbl.length seen < cap then begin
       Hashtbl.replace seen c.Mcf.dst ();
       true
     end
     else false
   in
   let capped = Array.of_list (List.filter keep (Array.to_list (mcf_comms d50))) in
   race (Printf.sprintf "Germany50(%dt)" cap) g50 capped);
  (* Warm vs cold branch and bound: same tree, children re-solved from
     the parent basis vs from scratch.  Warm starting never changes any
     LP result, so the node counts must match; only pivots differ. *)
  row "\nMILP warm starts (children re-solve from the parent basis):\n";
  row "%-22s %8s %13s %13s %8s\n" "instance" "nodes" "warm pivots"
    "cold pivots" "ratio";
  let milp_case name run =
    Obs.Ctx.phase bctx "milp-warm-start" @@ fun () ->
    let go warm =
      let stats = Engine.Stats.create () in
      let t0 = Engine.Mono.now () in
      run ~warm (Obs.Ctx.make ~stats ());
      (stats, Engine.Mono.now () -. t0)
    in
    let sw, wall_w = go true in
    let sc, wall_c = go false in
    if sw.Engine.Stats.milp_nodes <> sc.Engine.Stats.milp_nodes then
      row "  WARNING: warm/cold node counts differ (%d vs %d)\n"
        sw.Engine.Stats.milp_nodes sc.Engine.Stats.milp_nodes;
    let ratio =
      float_of_int sw.Engine.Stats.lp_pivots
      /. float_of_int (max 1 sc.Engine.Stats.lp_pivots)
    in
    row "%-22s %8d %13d %13d %8.2f\n" name sw.Engine.Stats.milp_nodes
      sw.Engine.Stats.lp_pivots sc.Engine.Stats.lp_pivots ratio;
    emit
      (Printf.sprintf
         "{\"instance\": %S, \"kind\": \"milp-warm-start\", \"nodes\": %d, \
          \"lp_solves\": %d, \"warm_pivots\": %d, \"cold_pivots\": %d, \
          \"pivot_ratio\": %.4f, \"warm_fewer_pivots\": %b, \
          \"warm_wall_seconds\": %.6f, \"cold_wall_seconds\": %.6f}"
         name sw.Engine.Stats.milp_nodes sw.Engine.Stats.lp_solves
         sw.Engine.Stats.lp_pivots sc.Engine.Stats.lp_pivots ratio
         (sw.Engine.Stats.lp_pivots < sc.Engine.Stats.lp_pivots)
         wall_w wall_c)
  in
  List.iter
    (fun m ->
      let net =
        (Instances.Gap_instances.instance1 ~m).Instances.Gap_instances.network
      in
      milp_case
        (Printf.sprintf "I1(m=%d) USPR-LWO" m)
        (fun ~warm ctx ->
          ignore
            (Uspr_milp.lwo_ctx ctx ~warm net.Network.graph net.Network.demands)))
    [ 2; 3 ];
  (let demands =
     Demand_gen.mcf_synthetic ~epsilon:0.05 ~seed:1 ~flows_per_pair:2 abilene
   in
   let inv_w = Weights.inverse_capacity abilene in
   let max_nodes = if !full then 5_000 else 1_500 in
   milp_case "Abilene WPO" (fun ~warm ctx ->
       ignore
         (Wpo_milp.solve_ctx ctx ~max_nodes ~warm abilene inv_w
            (Network.aggregate demands))));
  (* Basis reuse across nearly-identical LPs: re-solving the Abilene
     min-MLU LP under scaled demand matrices, cold each time vs chaining
     the previous optimum's basis. *)
  row "\nMCF warm-basis reuse across scaled demand matrices (Abilene):\n";
  let comms =
    mcf_comms
      (Demand_gen.mcf_synthetic ~epsilon:0.1 ~seed:1 ~flows_per_pair:2 abilene)
  in
  let scales = [ 0.7; 0.85; 1.0; 1.15; 1.3 ] in
  let scaled s =
    Array.map (fun c -> { c with Mcf.demand = c.Mcf.demand *. s }) comms
  in
  let (cold_vals, t_cold), (warm_vals, t_warm) =
    Obs.Ctx.phase bctx "mcf-basis-reuse" (fun () ->
        let cold =
          time_best reps (fun () ->
              List.map (fun s -> Mcf.opt_mlu_lp abilene (scaled s)) scales)
        in
        let warm =
          time_best reps (fun () ->
              let _, vals =
                List.fold_left
                  (fun (basis, acc) s ->
                    let v, b = Mcf.opt_mlu_lp_warm ?basis abilene (scaled s) in
                    (Some b, v :: acc))
                  (None, []) scales
              in
              List.rev vals)
        in
        (cold, warm))
  in
  List.iter2
    (fun c w ->
      if abs_float (c -. w) > 1e-6 *. (1. +. abs_float c) then
        row "  WARNING: warm/cold MLU differ (%.9g vs %.9g)\n" c w)
    cold_vals warm_vals;
  row "%d solves: cold %.4fs, warm-chained %.4fs (%.1fx)\n"
    (List.length scales) t_cold t_warm (t_cold /. t_warm);
  emit
    (Printf.sprintf
       "{\"instance\": \"Abilene\", \"kind\": \"mcf-basis-reuse\", \
        \"solves\": %d, \"cold_wall_seconds\": %.6f, \
        \"warm_wall_seconds\": %.6f, \"speedup\": %.3f, \
        \"values_agree\": true}"
       (List.length scales) t_cold t_warm (t_cold /. t_warm));
  write_bench ~ctx:bctx ~file:"BENCH_lp.json" ~bench:"lp" (List.rev !records)

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

(* The zero-cost-when-disabled guard for lib/obs: the same HeurOSPF run
   on Abilene through the shared default context, through a fresh
   noop-tracer {!Obs.Ctx.t}, and through a live tracer with
   evaluator-level spans ([~engine_detail:true], the most expensive
   configuration).  All three must return the identical result; the
   noop context must cost within 2% of the default-context baseline
   (best-of-[reps] wall clock).  Results land in BENCH_obs.json. *)
let exp_obs () =
  section "Observability: run-context overhead (lib/obs)";
  let bctx = bench_ctx () in
  let g = Topology.Datasets.abilene () in
  let demands =
    Demand_gen.mcf_synthetic ~epsilon:0.05 ~seed:1 ~flows_per_pair:2 g
  in
  let evals = if !full then 4000 else 1000 in
  let reps = if !full then 15 else 11 in
  let params = ls_params ~seed:5 ~evals in
  let base, t_base =
    Obs.Ctx.phase bctx "default-ctx" (fun () ->
        time_best reps (fun () ->
            Local_search.optimize_ctx (Obs.Ctx.default ()) ~params g demands))
  in
  let noop, t_noop =
    Obs.Ctx.phase bctx "noop-ctx" (fun () ->
        time_best reps (fun () ->
            Local_search.optimize_ctx (Obs.Ctx.make ()) ~params g demands))
  in
  let last_tracer = ref Obs.Tracer.noop in
  let traced, t_traced =
    Obs.Ctx.phase bctx "traced" (fun () ->
        time_best reps (fun () ->
            let tracer = Obs.Tracer.create ~engine_detail:true () in
            last_tracer := tracer;
            Local_search.optimize_ctx
              (Obs.Ctx.make ~tracer ())
              ~params g demands))
  in
  let same (a : Local_search.result) (b : Local_search.result) =
    a.Local_search.mlu = b.Local_search.mlu
    && a.Local_search.weights = b.Local_search.weights
    && a.Local_search.evals = b.Local_search.evals
  in
  let identical = same base noop && same base traced in
  if not identical then
    failwith "obs: default / noop-ctx / traced runs returned different results";
  let disabled_overhead = (t_noop -. t_base) /. t_base in
  let traced_overhead = (t_traced -. t_base) /. t_base in
  let spans = Obs.Tracer.span_count !last_tracer in
  row "HeurOSPF Abilene, %d evals, best of %d (identical results):\n" evals reps;
  row "  %-28s %10.4fs\n" "Obs.Ctx.default" t_base;
  row "  %-28s %10.4fs  %+6.2f%%\n" "Obs.Ctx, noop tracer" t_noop
    (100. *. disabled_overhead);
  row "  %-28s %10.4fs  %+6.2f%%  (%d spans)\n" "Obs.Ctx, engine_detail trace"
    t_traced
    (100. *. traced_overhead)
    spans;
  if disabled_overhead >= 0.02 then
    row "  WARNING: disabled-tracing overhead %.2f%% exceeds the 2%% budget\n"
      (100. *. disabled_overhead);
  write_bench ~ctx:bctx ~file:"BENCH_obs.json" ~bench:"obs"
    [
      Printf.sprintf
        "{\"topology\": \"Abilene\", \"algorithm\": \"HeurOSPF\", \
         \"evaluations\": %d, \"reps\": %d, \"results_identical\": %b, \
         \"default_ctx_wall_seconds\": %.6f, \"noop_ctx_wall_seconds\": %.6f, \
         \"traced_wall_seconds\": %.6f, \"disabled_overhead\": %.6f, \
         \"disabled_overhead_ok\": %b, \"traced_overhead\": %.6f, \
         \"trace_spans\": %d}"
        evals reps identical t_base t_noop t_traced disabled_overhead
        (disabled_overhead < 0.02)
        traced_overhead spans;
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Candidate pruning                                                   *)
(* ------------------------------------------------------------------ *)

(* The Prune preprocessing pass: the quality-vs-k curve of GreedyWPO on
   the Figure 4 suite (objective delta vs the unpruned scan, candidates
   scanned, wall time), the pool-mode comparison at the default k, and
   the scale demonstration — a completed pruned run on the largest
   zoo-ladder topology, against the unpruned scan cost measured on a
   demand prefix and extrapolated (running it in full would dwarf the
   harness; the record says so).  BENCH_prune.json. *)
let exp_prune () =
  section "Candidate pruning: quality vs k, pool modes, scale";
  let bctx = bench_ctx () in
  let records = ref [] in
  let emit r = records := r :: !records in
  let scanned (st : Engine.Stats.t) =
    Array.fold_left ( + ) 0 st.Engine.Stats.worker_evals
  in
  let run ?prune g w demands =
    let stats = Engine.Stats.create () in
    let ctx = Obs.Ctx.make ~stats ~pool:!the_pool () in
    let t0 = Engine.Mono.now () in
    let r = Greedy_wpo.optimize_ctx ctx ?prune g w demands in
    let wall = Engine.Mono.now () -. t0 in
    (r, stats, wall)
  in
  let ks = if !full then [ 4; 8; 16; 32; 64 ] else [ 4; 8; 16; 32 ] in
  let kd = Prune.default_k in
  row "%-14s %8s" "topology" "full";
  List.iter (fun k -> row " %8s" (Printf.sprintf "k=%d" k)) ks;
  row "   (GreedyWPO MLU; pool mode centrality)\n";
  Obs.Ctx.phase bctx "fig4-quality" (fun () ->
      List.iter
        (fun name ->
          let g = Topology.Datasets.load name in
          let flows = max 2 (Digraph.edge_count g / 16) in
          let demands =
            Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:1 ~flows_per_pair:flows
              g
          in
          let w = Weights.inverse_capacity g in
          let base, base_st, base_wall = run g w demands in
          let base_scanned = scanned base_st in
          row "%-14s %8.3f" name base.Greedy_wpo.mlu;
          let record ~mode ~k =
            let prune = Prune.spec ~mode k in
            let r, st, wall = run ~prune g w demands in
            let delta =
              100. *. (r.Greedy_wpo.mlu -. base.Greedy_wpo.mlu)
              /. base.Greedy_wpo.mlu
            in
            emit
              (Printf.sprintf
                 "{\"topology\": %S, \"mode\": %S, \"k\": %d, \"mlu\": %.6f, \
                  \"unpruned_mlu\": %.6f, \"objective_delta_pct\": %.4f, \
                  \"scanned\": %d, \"unpruned_scanned\": %d, \
                  \"scan_reduction\": %.2f, \"candidates_pruned\": %d, \
                  \"candidates_kept\": %d, \"wall_seconds\": %.6f, \
                  \"unpruned_wall_seconds\": %.6f}"
                 name (Prune.mode_name mode) k r.Greedy_wpo.mlu
                 base.Greedy_wpo.mlu delta (scanned st) base_scanned
                 (float_of_int base_scanned
                 /. float_of_int (max 1 (scanned st)))
                 st.Engine.Stats.candidates_pruned
                 st.Engine.Stats.candidates_kept wall base_wall);
            r
          in
          List.iter
            (fun k ->
              let r = record ~mode:Prune.Centrality ~k in
              row " %8.3f" r.Greedy_wpo.mlu)
            ks;
          ignore (record ~mode:Prune.Coverage ~k:kd);
          ignore (record ~mode:Prune.Reach ~k:kd);
          (* The acceptance check rides on Germany50 at the default k:
             >= 5x fewer scanned candidates, <= 1% objective delta. *)
          if name = "Germany50" then begin
            let r, st, _ = run ~prune:(Prune.spec kd) g w demands in
            let reduction =
              float_of_int base_scanned /. float_of_int (max 1 (scanned st))
            in
            let delta =
              100. *. (r.Greedy_wpo.mlu -. base.Greedy_wpo.mlu)
              /. base.Greedy_wpo.mlu
            in
            emit
              (Printf.sprintf
                 "{\"topology\": \"Germany50\", \"check\": \"acceptance\", \
                  \"mode\": \"centrality\", \"k\": %d, \
                  \"scan_reduction\": %.2f, \"objective_delta_pct\": %.4f, \
                  \"meets_reduction_5x\": %b, \"meets_delta_1pct\": %b}"
                 kd reduction delta (reduction >= 5.) (delta <= 1.))
          end;
          row "\n%!")
        Topology.Datasets.fig4_names);
  (* Scale demonstration on the largest zoo-ladder topology: the pruned
     scan completes; the unpruned scan cost is measured on a demand
     prefix and extrapolated linearly (each demand scans n-2 candidates
     regardless of how many demands follow). *)
  Obs.Ctx.phase bctx "scale" (fun () ->
      let name = "Kdl" in
      let real =
        !scale && Sys.file_exists (Filename.concat !data_dir (name ^ ".graphml"))
      in
      let g =
        Topology.Datasets.load
          ?data_dir:(if real then Some !data_dir else None)
          name
      in
      let n = Digraph.node_count g and m = Digraph.edge_count g in
      let w = Weights.inverse_capacity g in
      let st = Random.State.make [| 0x5ca1e; n |] in
      let probe = Engine.Evaluator.create g w in
      let target = (if !full then 4 else 2) * n in
      let ds = ref [] and tries = ref 0 and got = ref 0 in
      while !got < target && !tries < 40 * target do
        incr tries;
        let s = Random.State.int st n and d = Random.State.int st n in
        if s <> d && Engine.Evaluator.reachable probe ~src:s ~dst:d then begin
          ds :=
            Network.demand s d (float_of_int (1 + Random.State.int st 9))
            :: !ds;
          incr got
        end
      done;
      let demands = Array.of_list (List.rev !ds) in
      let r, stp, pruned_wall = run ~prune:(Prune.spec kd) g w demands in
      let prefix_len = min 24 (Array.length demands) in
      let prefix = Array.sub demands 0 prefix_len in
      let _, _, prefix_wall = run g w prefix in
      let extrapolated =
        prefix_wall /. float_of_int prefix_len
        *. float_of_int (Array.length demands)
      in
      row "\nScale demo (%s, %s): %d nodes, %d edges, %d demands\n" name
        (if real then "graphml" else "synthetic")
        n m (Array.length demands);
      row "  pruned (k=%d):       MLU %.3f in %.2f s (%d scanned, %d pruned)\n"
        kd r.Greedy_wpo.mlu pruned_wall (scanned stp)
        stp.Engine.Stats.candidates_pruned;
      row "  unpruned, estimated: %.2f s (measured %.2f s on a %d-demand \
           prefix, extrapolated)\n"
        extrapolated prefix_wall prefix_len;
      emit
        (Printf.sprintf
           "{\"topology\": %S, \"check\": \"scale\", \"source\": %S, \
            \"nodes\": %d, \"edges\": %d, \"demands\": %d, \
            \"mode\": \"centrality\", \"k\": %d, \"pruned_mlu\": %.6f, \
            \"pruned_wall_seconds\": %.6f, \"pruned_scanned\": %d, \
            \"candidates_pruned\": %d, \"unpruned_prefix_demands\": %d, \
            \"unpruned_prefix_wall_seconds\": %.6f, \
            \"unpruned_extrapolated_seconds\": %.6f, \
            \"unpruned_extrapolated\": true, \
            \"unpruned_exceeds_pruned_budget\": %b}"
           name
           (if real then "graphml" else "synthetic")
           n m (Array.length demands) kd r.Greedy_wpo.mlu pruned_wall
           (scanned stp) stp.Engine.Stats.candidates_pruned prefix_len
           prefix_wall extrapolated
           (extrapolated > pruned_wall)));
  write_bench ~ctx:bctx
    ~extra:
      [ ("prune_mode", Obs.Export.json_str "centrality");
        ("prune_k", string_of_int kd) ]
    ~file:"BENCH_prune.json" ~bench:"prune" (List.rev !records)

(* ------------------------------------------------------------------ *)
(* Serving: streaming re-optimization latency and quality              *)
(* ------------------------------------------------------------------ *)

let exp_serve () =
  section "Serving: diurnal + flash-crowd replays through the daemon";
  let bctx = bench_ctx () in
  let records = ref [] in
  let emit r = records := r :: !records in
  (* Drives a replay through [Serve.Daemon.handle_line] directly (no
     process boundary), returning the daemon, the response lines and
     the wall time spent inside the event loop. *)
  let run_replay ?(timings = true) ?(deadline_ms = 10_000.) ?(lp_every = 1)
      ?(lp = true) ~pool ~deployed g demands lines =
    let weights, waypoints = deployed in
    let stats = Engine.Stats.create () in
    let ctx = Obs.Ctx.make ~stats ~pool () in
    let cfg =
      { Serve.Daemon.default_config with
        deadline_ms; timings; lp_bound = lp; lp_every; seed = 1 }
    in
    let d =
      Serve.Daemon.create ctx cfg ~deployed_weights:weights
        ~deployed_waypoints:waypoints g demands
    in
    let responses = ref [] in
    let t0 = Engine.Mono.now () in
    List.iter
      (fun line ->
        match Serve.Daemon.handle_line d line with
        | Some r -> responses := r :: !responses
        | None -> ())
      lines;
    let wall = Engine.Mono.now () -. t0 in
    (d, List.rev !responses, wall)
  in
  let gap_of r =
    match Serve.Sjson.parse r with
    | Error _ -> None
    | Ok j -> Option.bind (Serve.Sjson.member "gap" j) Serve.Sjson.to_float
  in
  (* (name, steps, lp_every): on Germany50 even a warm LP solve costs
     ~30 s, so the bound trajectory samples every k-th update there. *)
  let topos =
    if !full then [ ("Abilene", 1000, 1); ("Germany50", 1000, 100) ]
    else [ ("Abilene", 120, 1); ("Germany50", 60, 30) ]
  in
  let evals = if !full then 1500 else 300 in
  row "%-12s %7s %9s %9s %9s %10s %8s %8s  %s\n" "topology" "events"
    "p50 ms" "p99 ms" "upd/s" "final MLU" "rescr." "gap" "deterministic";
  List.iter
    (fun (name, steps, lp_every) ->
      Obs.Ctx.phase bctx name (fun () ->
          let g = Topology.Datasets.load name in
          let flows = max 2 (Digraph.edge_count g / 16) in
          let demands =
            Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed:1 ~flows_per_pair:flows
              g
          in
          let joint =
            Joint.optimize_ctx (Obs.Ctx.default ()) ~ls_params:(ls_params ~seed:1 ~evals) g demands
          in
          let deployed = (joint.Joint.int_weights, joint.Joint.waypoints) in
          let replay =
            { Scenario.default_replay with replay_seed = 1; steps }
          in
          let lines = Scenario.replay_events replay demands in
          (* Timed pass: latency percentiles, throughput, gap
             trajectory. *)
          let d, responses, wall =
            run_replay ~lp_every ~pool:!the_pool ~deployed g demands lines
          in
          let s = Serve.Daemon.summary d in
          let lat = s.Serve.Daemon.latencies in
          let p50 = 1000. *. Serve.Daemon.quantile lat 0.5 in
          let p99 = 1000. *. Serve.Daemon.quantile lat 0.99 in
          let pmax = 1000. *. Array.fold_left max 0. lat in
          (* Throughput over time spent *inside* updates: the wall also
             carries the off-clock LP solves, which [lp_every] makes a
             sampling choice, not a serving cost. *)
          let ups =
            float_of_int s.Serve.Daemon.updates
            /. Array.fold_left ( +. ) 0. lat
          in
          let gaps = List.filter_map gap_of responses in
          let mean_gap = if gaps = [] then nan else mean gaps in
          let final_gap =
            match List.rev gaps with [] -> nan | gp :: _ -> gp
          in
          (* Quality gate: the incumbent after the whole drift vs a
             from-scratch Joint re-solve on the final matrix. *)
          let _, final_demands, _ = Serve.Daemon.state d in
          let rescratch =
            Joint.optimize_ctx (Obs.Ctx.default ()) ~ls_params:(ls_params ~seed:1 ~evals) g
              final_demands
          in
          let within10 =
            s.Serve.Daemon.mlu <= 1.1 *. rescratch.Joint.mlu +. 1e-9
          in
          (* Determinism gate: timings off, deadline off, sequential
             pool vs a 2-domain pool must emit identical bytes.  LP off:
             the solver is single-threaded (its output cannot depend on
             the pool) and re-solving the whole bound trajectory twice
             more would dominate the experiment. *)
          let det_run pool =
            let _, rs, _ =
              run_replay ~timings:false ~deadline_ms:(-1.) ~lp:false ~pool
                ~deployed g demands lines
            in
            String.concat "\n" rs
          in
          let seq_out = det_run Par.Pool.sequential in
          let par_out = Par.Pool.with_pool ~jobs:2 det_run in
          let deterministic = String.equal seq_out par_out in
          row "%-12s %7d %9.2f %9.2f %9.1f %10.3f %8.3f %8.3f  %b\n" name
            (List.length lines) p50 p99 ups s.Serve.Daemon.mlu
            rescratch.Joint.mlu mean_gap deterministic;
          emit
            (Printf.sprintf
               "{\"topology\": %S, \"lp_every\": %d, \"events\": %d, \
                \"updates\": %d, \
                \"improved\": %d, \"degraded\": %d, \"deadline_hits\": %d, \
                \"p50_ms\": %.4f, \"p99_ms\": %.4f, \"max_ms\": %.4f, \
                \"updates_per_sec\": %.2f, \"wall_seconds\": %.6f, \
                \"weight_churn_total\": %d, \"waypoint_churn_total\": %d, \
                \"mlu_final\": %.6f, \"lp_bound_final\": %.6f, \
                \"rescratch_mlu\": %.6f, \"within_10pct\": %b, \
                \"mean_gap\": %.6f, \"final_gap\": %.6f, \
                \"deterministic_across_jobs\": %b}"
               name lp_every (List.length lines) s.Serve.Daemon.updates
               s.Serve.Daemon.improved s.Serve.Daemon.degraded
               s.Serve.Daemon.deadline_hits p50 p99 pmax ups wall
               s.Serve.Daemon.weight_churn_total
               s.Serve.Daemon.waypoint_churn_total s.Serve.Daemon.mlu
               s.Serve.Daemon.lp_bound rescratch.Joint.mlu within10 mean_gap
               final_gap deterministic)))
    topos;
  write_bench ~ctx:bctx ~file:"BENCH_serve.json" ~bench:"serve"
    (List.rev !records)

(* ------------------------------------------------------------------ *)
(* Solver frontier                                                     *)
(* ------------------------------------------------------------------ *)

(* Every registered backend on Abilene + the Figure 4 suite: per
   (topology, solver) record the MLU, the wall time, and the fraction
   of the inverse-capacity -> LP-optimum gap the solver closes — the
   quality-vs-time frontier the registry opens up.  The LP bound is
   exact simplex where the LP fits under [grad_lp_limit] and the FPTAS
   fallback otherwise ({!Mcf.opt_mlu}'s own dispatch); GradWO runs only
   under the exact bound and skipped runs are emitted as records, not
   silently dropped.  The two headline checks land in a closing
   acceptance record: OMW must close a strictly larger gap fraction
   than single-weight HeurOSPF on at least one topology, GradWO must
   land within 10% of the LP bound on Abilene, and both new backends
   must return bit-identical results for every pool size.
   BENCH_solvers.json, schema bench/solvers/1. *)
let exp_solvers () =
  section "Solver frontier: registered backends on Abilene + the Figure 4 suite";
  let bctx = bench_ctx () in
  let records = ref [] in
  let emit r = records := r :: !records in
  let evals = if !full then 3000 else 400 in
  let seed = 1 in
  let config = { Solver.default_config with Solver.evals; Solver.seed } in
  let topo_names = "Abilene" :: Topology.Datasets.fig4_names in
  let heur_gap = Hashtbl.create 16 and omw_gap = Hashtbl.create 16 in
  let grad_abilene = ref nan and lp_abilene = ref nan in
  List.iter
    (fun name ->
      let g = Topology.Datasets.load name in
      let flows =
        if !full then max 1 (Digraph.edge_count g / 4)
        else max 2 (Digraph.edge_count g / 16)
      in
      let epsilon = if !full then 0.08 else 0.15 in
      let demands = Demand_gen.mcf_synthetic ~epsilon ~seed ~flows_per_pair:flows g in
      let comms =
        Array.map
          (fun (src, dst, size) -> Mcf.commodity src dst size)
          (Network.to_commodities demands)
      in
      let vars = lp_var_count g demands in
      let lp_exact = vars <= grad_lp_limit in
      let lp, t_lp =
        Obs.Ctx.phase bctx "lp-bound" (fun () ->
            time_best 1 (fun () ->
                Mcf.opt_mlu ~lp_var_limit:grad_lp_limit g comms))
      in
      let inv = Ecmp.mlu_of g (Weights.inverse_capacity g) demands in
      if name = "Abilene" then lp_abilene := lp;
      let gap_denominator = inv -. lp in
      row "%-14s invcap %.4f, LP bound %.4f (%s, %d vars, %.2fs)\n%!" name inv
        lp
        (if lp_exact then "exact" else "FPTAS")
        vars t_lp;
      let gap_closed mlu =
        if gap_denominator > 1e-9 then (inv -. mlu) /. gap_denominator else nan
      in
      let json_gap gc =
        if Float.is_nan gc then "null" else Printf.sprintf "%.6f" gc
      in
      List.iter
        (fun (alg, _doc) ->
          if (alg = "grad" || alg = "grad+wpo") && not lp_exact then begin
            row "  %-10s skipped (LP %d vars > %d)\n%!" alg vars grad_lp_limit;
            emit
              (Printf.sprintf
                 "{\"topology\": %s, \"solver\": %s, \"skipped\": true, \
                  \"invcap_mlu\": %.6f, \"lp_bound\": %.6f, \"lp_exact\": %b, \
                  \"lp_vars\": %d}"
                 (Obs.Export.json_str name) (Obs.Export.json_str alg) inv lp
                 lp_exact vars)
          end
          else
            match Solver.find alg with
            | None -> ()
            | Some builder ->
                let sv = builder config in
                let r, wall =
                  Obs.Ctx.phase bctx alg (fun () ->
                      time_best 1 (fun () ->
                          Solver.solve sv
                            (Obs.Ctx.make ~pool:!the_pool ())
                            g demands))
                in
                let gc = gap_closed r.Solver.mlu in
                if alg = "lwo" then Hashtbl.replace heur_gap name gc;
                if alg = "omw" then Hashtbl.replace omw_gap name gc;
                if alg = "grad" && name = "Abilene" then
                  grad_abilene := r.Solver.mlu;
                row "  %-10s MLU %.4f  gap closed %s  %8.3fs  (%d evals)\n%!"
                  alg r.Solver.mlu
                  (if Float.is_nan gc then "   -" else Printf.sprintf "%4.0f%%" (100. *. gc))
                  wall r.Solver.evals;
                emit
                  (Printf.sprintf
                     "{\"topology\": %s, \"solver\": %s, \"skipped\": false, \
                      \"mlu\": %.6f, \"invcap_mlu\": %.6f, \"lp_bound\": %.6f, \
                      \"lp_exact\": %b, \"gap_closed\": %s, \
                      \"wall_seconds\": %.6f, \"evaluations\": %d}"
                     (Obs.Export.json_str name) (Obs.Export.json_str alg)
                     r.Solver.mlu inv lp lp_exact (json_gap gc) wall
                     r.Solver.evals))
        (Solver.names ()))
    topo_names;
  (* Acceptance: OMW must close strictly more of the invcap->LP gap
     than HeurOSPF somewhere; GradWO must sit within 10% of the LP
     bound on Abilene; both backends bit-identical across pools. *)
  let omw_wins =
    List.filter
      (fun name ->
        match (Hashtbl.find_opt omw_gap name, Hashtbl.find_opt heur_gap name) with
        | Some o, Some h -> (not (Float.is_nan o)) && not (Float.is_nan h) && o > h
        | _ -> false)
      topo_names
  in
  let grad_ok = !grad_abilene <= 1.1 *. !lp_abilene in
  let jobs_identical =
    let g = Topology.Datasets.abilene () in
    let demands =
      Demand_gen.mcf_synthetic ~epsilon:0.15 ~seed ~flows_per_pair:2 g
    in
    let solve alg pool =
      match Solver.find alg with
      | None -> None
      | Some builder ->
          Some (Solver.solve (builder config) (Obs.Ctx.make ~pool ()) g demands)
    in
    List.for_all
      (fun alg ->
        let seq = solve alg Par.Pool.sequential in
        let par = Par.Pool.with_pool ~jobs:4 (solve alg) in
        seq = par && seq <> None)
      [ "grad"; "omw" ]
  in
  row "\nOMW closes a larger gap than HeurOSPF on: %s\n"
    (if omw_wins = [] then "NONE (acceptance violated)"
     else String.concat ", " omw_wins);
  row "GradWO on Abilene: %.4f vs LP %.4f (within 10%%: %b)\n" !grad_abilene
    !lp_abilene grad_ok;
  row "grad/omw bit-identical across --jobs: %b\n" jobs_identical;
  if omw_wins = [] || (not grad_ok) || not jobs_identical then
    row "WARNING: solver-frontier acceptance checks failed\n";
  emit
    (Printf.sprintf
       "{\"kind\": \"acceptance\", \"omw_beats_heurospf_on\": [%s], \
        \"grad_abilene_mlu\": %.6f, \"abilene_lp_bound\": %.6f, \
        \"grad_within_10pct_of_lp\": %b, \"jobs_identical\": %b}"
       (String.concat ", " (List.map Obs.Export.json_str omw_wins))
       !grad_abilene !lp_abilene grad_ok jobs_identical);
  write_bench ~ctx:bctx ~file:"BENCH_solvers.json" ~bench:"solvers"
    (List.rev !records)

let exp_perf () =
  section "Micro-benchmarks (bechamel; ns per run, OLS fit)";
  let open Bechamel in
  let abilene = Topology.Datasets.abilene () in
  let ta2 = Topology.Datasets.load "Ta2" in
  let demands =
    Demand_gen.mcf_synthetic ~epsilon:0.25 ~seed:1 ~flows_per_pair:2 abilene
  in
  let unit_w_ta2 = Weights.unit ta2 in
  let unit_w_ab = Weights.unit abilene in
  let inst1 = Instances.Gap_instances.instance1 ~m:16 in
  let g1 = inst1.Instances.Gap_instances.network.Network.graph in
  let lp =
    { Linprog.Simplex.nvars = 12; sense = Linprog.Simplex.Maximize;
      objective = List.init 12 (fun j -> (j, 1. +. float_of_int (j mod 3)));
      constrs =
        Linprog.Simplex.constr (List.init 12 (fun j -> (j, 1.))) Linprog.Simplex.Le 10.
        :: List.init 12 (fun j ->
               Linprog.Simplex.constr [ (j, 1.) ] Linprog.Simplex.Le 2.) }
  in
  let tests =
    [
      Test.make ~name:"dijkstra-ta2" (Staged.stage (fun () ->
          ignore (Paths.dijkstra ta2 ~weights:unit_w_ta2 ~source:0)));
      Test.make ~name:"ecmp-eval-abilene" (Staged.stage (fun () ->
          ignore (Ecmp.mlu_of abilene unit_w_ab demands)));
      Test.make ~name:"dinic-instance1" (Staged.stage (fun () ->
          ignore
            (Maxflow.max_flow g1 ~source:inst1.Instances.Gap_instances.source
               ~target:inst1.Instances.Gap_instances.target)));
      Test.make ~name:"simplex-12var" (Staged.stage (fun () ->
          ignore (Linprog.Simplex.solve lp)));
      Test.make ~name:"greedy-wpo-abilene" (Staged.stage (fun () ->
          ignore (Greedy_wpo.optimize_ctx (Obs.Ctx.default ()) abilene unit_w_ab demands)));
    ]
  in
  let grouped = Test.make_grouped ~name:"te" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> row "%-24s %14.0f ns/run\n" name est
      | _ -> row "%-24s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", exp_table1); ("fig1", exp_fig1); ("fig2", exp_fig2);
    ("fig3", exp_fig3); ("fig4", exp_fig4); ("fig5", exp_fig5);
    ("fig6", exp_fig6); ("fig7", exp_fig7); ("milp", exp_milp);
    ("ablation", exp_ablation); ("engine", exp_engine);
    ("parallel", exp_parallel); ("robust", exp_robust); ("lp", exp_lp);
    ("obs", exp_obs); ("prune", exp_prune); ("serve", exp_serve);
    ("solvers", exp_solvers); ("perf", exp_perf) ]

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
  if !jobs > 1 then Par.Pool.shutdown !the_pool
