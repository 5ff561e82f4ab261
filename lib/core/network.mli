(** TE instances: a capacitated network plus a demand list (§2 of the
    paper).  Nodes and edges are those of the underlying
    {!Netgraph.Digraph}. *)

type demand = Netgraph.Demand.t = {
  src : int;
  dst : int;
  size : float;  (** required bandwidth, > 0 *)
}

type t = {
  graph : Netgraph.Digraph.t;
  demands : demand array;
}

val demand : int -> int -> float -> demand
(** {!Netgraph.Demand.make}.
    @raise Invalid_argument on non-positive size or equal endpoints. *)

val make : Netgraph.Digraph.t -> demand array -> t
(** @raise Invalid_argument on an endpoint outside the graph. *)

val total_demand : t -> float
(** [D], the sum of all demand sizes. *)

val split_demands : parts:int -> demand array -> demand array
(** Splits every demand into [parts] equal sub-demands (the paper's
    MCF-synthetic generation splits per-pair demands into |E|/4 flows). *)
