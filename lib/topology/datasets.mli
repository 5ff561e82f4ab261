(** The evaluation's topology registry (§7 "Data Sources").

    Abilene is embedded with its real node set and backbone link
    structure (SNDLib native format, exercising {!Sndlib.of_native});
    the remaining SNDLib/TopologyZoo topologies cannot be bundled
    offline and are deterministic synthetic stand-ins matching the
    published node and (undirected) link counts — see DESIGN.md for the
    substitution rationale.  Real files can be substituted at runtime
    through {!Sndlib.load_file} / {!Graphml.load_file}. *)

type kind = Embedded | Synthetic

type info = {
  name : string;
  nodes : int;
  links : int;  (** undirected links; the digraph has twice as many edges *)
  kind : kind;
}

val all : info list

val fig4_names : string list
(** The 10 largest capacitated non-tree topologies of Figure 4. *)

val fig6_names : string list
(** Abilene, Germany50, Géant (Figure 6). *)

val scale_names : string list
(** The size-scaling bench suite: Abilene and Germany50 plus
    TopologyZoo-size instances up to Kdl (754 nodes) — the evaluation
    engine's evals/sec-vs-n curve is measured over these. *)

val load : ?data_dir:string -> string -> Netgraph.Digraph.t
(** Case-insensitive lookup.  When [data_dir] is given and
    [<data_dir>/<Name>.graphml] exists, the real TopologyZoo file is
    loaded through {!Graphml.load_file} instead of the synthetic
    stand-in (see examples/fetch_topologyzoo.sh).
    @raise Not_found for unknown names. *)

val abilene : unit -> Netgraph.Digraph.t
(** The embedded Abilene backbone (12 nodes, 15 links). *)
