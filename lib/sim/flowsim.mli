(** Flow-level forwarding simulator with hash-based ECMP.

    Unlike {!Te.Ecmp}, which models the idealized fine-grained
    (packet-level) even split, this simulator pins each stream to a
    single next hop per node via a deterministic Layer-4-style hash —
    the behaviour of real routers, and the effect the paper measures in
    its Nanonet experiment (Figure 7).  Waypoints are honoured by
    routing each segment independently. *)

type stream = {
  flow : int;  (** hash identity (5-tuple surrogate) *)
  src : int;
  dst : int;
  rate : float;
  waypoints : int list;
}

val route :
  ?salt:int -> Netgraph.Digraph.t -> Te.Weights.t -> stream array -> float array
(** Per-edge load after hash-routing every stream.
    @raise Engine.Evaluator.Unroutable when a segment has no path. *)

val streams_of_demands :
  streams_per_demand:int -> Te.Network.demand array -> Te.Segments.setting ->
  stream array
(** Splits each demand into [streams_per_demand] equal-rate streams with
    distinct flow identities (the paper uses 32 nuttcp streams per
    source). *)
