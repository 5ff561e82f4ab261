(** Minimal JSON for the serving protocol.

    The repo deliberately carries no JSON dependency; the event grammar
    is tiny and the response writer needs deterministic float rendering
    anyway (the byte-identical-across-[--jobs] guarantee), so this is a
    recursive-descent parser and a printer over {!Obs.Json}'s scalars.
    It accepts strict JSON (RFC 8259) minus surrogate-pair escapes:
    [\uXXXX] is decoded for the BMP only, which covers every event
    field the protocol defines (node names are ASCII in practice).
    Parse errors are returned, never raised — a malformed line must
    produce an error response, not kill the daemon. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parses exactly one JSON value; trailing non-whitespace is an
    error.  The error string says what was expected and at which byte
    offset. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_float : t -> float option
(** [Num] payload. *)

val to_int : t -> int option
(** [Num] payloads that are exact integers (rejects 1.5 and NaN). *)

val to_string : t -> string option
(** [Str] payload. *)

val to_list : t -> t list option
(** [Arr] payload. *)

val render : t -> string
(** Deterministic one-line rendering: object fields in construction
    order, integer-valued floats as [%.0f] and everything else as the
    round-trippable [%.17g] (determinism beats prettiness),
    [nan]/infinities as [null]/[1e999]/[-1e999] to match the repo's
    other writers. *)
