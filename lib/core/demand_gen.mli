(** Demand generation (§7 "Demand generation").

    MCF-synthetic demands: 20% of connection pairs are selected at
    random, given base sizes, and scaled so that the optimal
    multi-commodity flow routes them with MLU exactly 1 — every MLU
    reported by the benches is therefore already normalized by OPT.
    Each pair's demand is then split into |E|/4 equal sub-flows.

    Gravity demands substitute for the proprietary real matrices of
    Figure 6: all pairs active with a heavy skew (Pareto node masses),
    also MCF-rescaled. *)

val select_pairs :
  seed:int -> frac:float -> Netgraph.Digraph.t -> (int * int) array
(** Random [frac] of the mutually-reachable ordered node pairs (at least
    one pair), leaving out pairs touching degree-1 nodes, whose pendant
    links would otherwise pin every algorithm's normalized MLU to 1
    (falls back to all pairs if nothing remains). *)

val scale_to_opt : Netgraph.Digraph.t -> Network.demand array -> Network.demand array
(** Rescales all sizes by the same factor so OPT-MLU = 1 (exact
    {!Mcf.opt_mlu}). *)

val mcf_synthetic :
  ?frac:float ->
  ?flows_per_pair:int ->
  seed:int ->
  Netgraph.Digraph.t ->
  Network.demand array
(** The Figure 4 workload.  [frac] defaults to 0.2; [flows_per_pair]
    defaults to [max 1 (|E| / 4)]. *)

val gravity :
  ?flows_per_pair:int ->
  seed:int ->
  Netgraph.Digraph.t ->
  Network.demand array
(** The Figure 6 stand-in: all mutually-reachable pairs active, sizes
    proportional to the product of Pareto(1.2) node masses,
    MCF-rescaled, split into [flows_per_pair] (default 1) sub-flows. *)
