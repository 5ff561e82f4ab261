(** Sparse LU factorization of a simplex basis, plus a product-form eta
    file for cheap basis updates between refactorizations.

    Vectors live in two index spaces: {e row} space (constraint row
    indices, as stored in matrix columns) and {e position} space (basis
    slots [0..n-1]).  [ftran] maps a row-indexed right-hand side to the
    position-indexed basic solution [B^-1 v]; [btran] maps
    position-indexed basic costs to the row-indexed dual vector
    [B^-T g].  The factors carry their own row and column permutations;
    callers only ever see these two spaces. *)

type t

val factor : n:int -> (int array * float array) array -> t option
(** [factor ~n cols] factors the [n x n] basis whose column at position
    [k] is the sparse (row index, value) pairs [cols.(k)].  Duplicate
    row entries within a column are accumulated.  Returns [None] when
    the basis is numerically singular. *)

val ftran : t -> float array -> float array -> unit
(** [ftran t v out] solves [B w = v].  [v] is row-indexed and is
    destroyed; the solution [w] is written position-indexed into [out]
    (every entry of [out] is overwritten). *)

val btran : t -> float array -> float array -> unit
(** [btran t g out] solves [B^T y = g].  [g] is position-indexed and is
    destroyed; the solution [y] is written row-indexed into [out]
    (every entry of [out] is overwritten). *)

val push_eta : t -> pos:int -> float array -> unit
(** [push_eta t ~pos w] records the basis change that replaces position
    [pos] with a column whose FTRAN image (under the current [t]) is the
    position-indexed dense vector [w]. *)

val eta_count : t -> int
(** Number of etas accumulated since the last [factor]; the caller
    should refactorize once this grows past a few dozen. *)

val nnz : t -> int
(** Stored entries of L and U together, the diagonal counted once; the
    eta file is not included.  Compare with the number of nonzeros in
    the basis to read off the fill. *)
