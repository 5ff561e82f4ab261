(** SNDLib network readers (XML and native format).

    SNDLib links are undirected; each becomes two directed edges of the
    same capacity.  A link's capacity is its pre-installed module
    capacity when positive, otherwise the largest module capacity
    offered, otherwise 1000. *)

type t = {
  graph : Netgraph.Digraph.t;
  demands : (string * string * float) list;
      (** (source name, target name, value) when the file carries a
          demand matrix *)
}

val of_native : string -> t
(** Parses the SNDLib native (plain text, parenthesized) format. *)

val load_file : string -> t
(** Reads a file and dispatches on its first non-blank character
    ('<' -> XML, otherwise native).
    @raise Xmlparse.Parse_error or [Failure] on malformed XML. *)
