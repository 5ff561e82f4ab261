(* Candidate-pruning smoke: the Prune pass on Germany50 must (1) leave
   the k = n no-op byte-identical to the unpruned greedy, (2) score at
   least 5x fewer candidates than the full scan at the default k while
   staying within 1% of the unpruned objective, and (3) stay
   bit-identical across pool sizes.  The full scan is every candidate of
   every visit, which the pruned run's own effectiveness counters add up
   to (candidates_pruned + candidates_kept); the unpruned run skips the
   visits the exact residual bound rules out too, so its count only
   gives the pool's own share, reported ungated.  Run with
   `dune build @prune-smoke'. *)

open Te

let mismatches = ref 0

let check name ok =
  if ok then Printf.printf "  ok   %s\n%!" name
  else begin
    incr mismatches;
    Printf.printf "  FAIL %s\n%!" name
  end

let scanned (ctx : Obs.Ctx.t) = ctx.Obs.Ctx.stats.Engine.Stats.wpo_scanned

let run ?prune ?pool g w demands =
  let ctx = Obs.Ctx.make ?pool () in
  (Greedy_wpo.optimize_ctx ctx ?prune g w demands, ctx)

let () =
  let g = Topology.Datasets.load "Germany50" in
  let n = Netgraph.Digraph.node_count g in
  (* The Figure 4 demand model (quick-scale parameters): the delta
     acceptance bar is defined against this suite. *)
  let flows = max 2 (Netgraph.Digraph.edge_count g / 16) in
  let demands =
    Demand_gen.mcf_synthetic ~seed:1 ~flows_per_pair:flows g
  in
  let w = Weights.inverse_capacity g in
  Printf.printf "prune smoke: Germany50, %d demands\n%!" (Array.length demands);
  let base, base_ctx = run g w demands in
  let noop, _ = run ~prune:(Prune.spec n) g w demands in
  check "k=n no-op byte-identical"
    (noop.Greedy_wpo.waypoints = base.Greedy_wpo.waypoints
    && noop.Greedy_wpo.mlu = base.Greedy_wpo.mlu);
  let pruned, pruned_ctx = run ~prune:(Prune.spec Prune.default_k) g w demands in
  let st = pruned_ctx.Obs.Ctx.stats in
  let full_scan =
    st.Engine.Stats.candidates_pruned + st.Engine.Stats.candidates_kept
  in
  let ratio a = float_of_int a /. float_of_int (max 1 (scanned pruned_ctx)) in
  let reduction = ratio full_scan and pool_only = ratio (scanned base_ctx) in
  let delta =
    (pruned.Greedy_wpo.mlu -. base.Greedy_wpo.mlu) /. base.Greedy_wpo.mlu
  in
  Printf.printf
    "  scan reduction %.1fx (%d of %d), pool-only %.1fx, objective delta \
     %+.2f%%\n%!"
    reduction (scanned pruned_ctx) full_scan pool_only (100. *. delta);
  check "scan reduction >= 5x" (reduction >= 5.);
  check "objective delta <= 1%" (delta <= 0.01);
  check "pruning counters populated"
    (st.Engine.Stats.candidates_pruned > 0
    && st.Engine.Stats.candidates_kept > 0);
  let par, _ =
    Par.Pool.with_pool ~jobs:4 (fun pool ->
        run ~prune:(Prune.spec Prune.default_k) ~pool g w demands)
  in
  check "pruned jobs 1 = jobs 4"
    (par.Greedy_wpo.waypoints = pruned.Greedy_wpo.waypoints
    && par.Greedy_wpo.mlu = pruned.Greedy_wpo.mlu);
  if !mismatches > 0 then begin
    Printf.printf "prune smoke: %d mismatch(es)\n" !mismatches;
    exit 1
  end;
  print_endline "prune smoke: pruning fast, faithful and deterministic"
