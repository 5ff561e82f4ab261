(** Candidate preprocessing for the waypoint optimizers.

    GreedyWPO and JOINT scan every (commodity x waypoint) pair — the
    O(n^2) cost that dominates at scale.  This pass shrinks the scan
    {e before} the solver runs, in the spirit of Brundiers et al.
    ("Preprocess your Paths", arXiv 2312.00518) and the centrality
    middlepoint selection of Trimponias et al. (arXiv 1703.05907):

    {ul
    {- a {b global middlepoint pool}: every node is scored by ECMP-aware
       betweenness — the demand-weighted fraction of shortest-path flow
       passing through it, read straight off the engine's cached
       per-destination SPF DAGs ({!Engine.Evaluator.node_flows}), so
       scoring performs no SPF run beyond what computing the loads
       already did — and the top-k scorers form the pool;}
    {- a {b per-commodity filter}: for each (src, dst) pair the pool is
       reduced further — waypoints the pair cannot use are dropped
       (cannot reach [dst]; on {e every} shortest src-dst path already,
       where routing via the waypoint provably reproduces the direct
       ECMP split), and the surviving list is capped at [k].}}

    Pruning is off by default everywhere ([?prune = None]); every
    solver's output without it is byte-identical to previous releases.
    With [k >= n] the pass is a documented no-op — the full ascending
    candidate list — so unpruned results are reproduced byte-identically
    (asserted by the test suite).  All candidate lists are built by the
    orchestrating domain from one evaluator, so pruned runs keep the
    bit-identical-across-[--jobs] guarantee. *)

type spec = { k : int  (** pool size and per-commodity candidate cap *) }

val default_k : int
(** The default pool size (16) used by the CLI when [--prune] is given
    a non-positive value and by the bench experiment. *)

val spec : int -> spec
(** @raise Invalid_argument if [k < 1]. *)

type t
(** A prepared pruner: global scores, the pool, and the per-pair
    candidate cache.  Bound to the evaluator it was prepared from (same
    weights); use only from the domain that owns
    that evaluator. *)

val prepare :
  Obs.Ctx.t -> spec -> Engine.Evaluator.t -> Network.demand array -> t
(** Scores middlepoints and selects the pool for [demands] under the
    evaluator's current weights.  The evaluator must already have its
    commodities attached.  Records one
    ["prune:prepare"] span (attrs: k, pool size) on the context's
    tracer.  Unroutable pairs contribute no score and are skipped. *)

val pool : t -> int array
(** The global middlepoint pool, best score first (a copy). *)

val candidates : t -> src:int -> dst:int -> int array
(** The pruned waypoint candidates for segment [(src, dst)], best score
    first, endpoints excluded, capped at [spec.k] (memoized per pair; do
    not mutate).  Multi-round greedies pass the current segment anchor
    as [src]. *)
