(** TopologyZoo GraphML reader.

    Nodes are named by their [label] data when present (falling back to
    the GraphML id); every undirected edge becomes two directed edges.
    Edge capacity comes from [LinkSpeedRaw] (bits/s, converted to
    Mbit/s), falling back to [LinkSpeed] x [LinkSpeedUnits], falling
    back to 1000 Mbit/s. *)

val load_file : string -> Netgraph.Digraph.t
(** @raise Xmlparse.Parse_error or [Failure] on malformed content. *)
