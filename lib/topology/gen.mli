(** Deterministic synthetic ISP-like topologies.

    Stand-ins for SNDLib/TopologyZoo files that cannot be bundled: given
    a name (which seeds the generator), a node count and an undirected
    link count, produces a strongly connected bidirected graph — a ring
    backbone plus random chords — with capacities drawn from SNDLib-like
    module classes.  The same name always yields the same graph. *)

val synthetic :
  ?seed:int -> name:string -> nodes:int -> links:int -> unit ->
  Netgraph.Digraph.t
(** [links] counts undirected links (the graph gets [2 * links] directed
    edges).  [links >= nodes] is required so the ring fits.
    [seed] defaults to a hash of [name]. *)
