(** Traffic demands: the (s, t, d) triples of a TE instance (§2 of the
    paper).  One record serves every layer — the evaluation engine's
    commodity tables, the multi-commodity-flow LP and the optimizers —
    so no layer converts between demand shapes. *)

type t = {
  src : int;
  dst : int;
  size : float;  (** required bandwidth *)
}

val make : int -> int -> float -> t
(** @raise Invalid_argument on equal endpoints or a size that is not
    positive.  Layers that admit other sizes (the engine accepts 0)
    build the record directly and check it themselves. *)

val compare_pair : t -> t -> int
(** The (src, dst) order: by [src], then [dst], under explicit integer
    comparison. *)

val aggregate : t array -> t array
(** Merges demands sharing (src, dst) into one demand of the summed
    size.  The output is sorted by {!compare_pair} and per-pair sizes
    are summed in input occurrence order, so the result (and the LP
    column order derived from it) is deterministic.  MLU under any
    weight setting is invariant under this. *)
