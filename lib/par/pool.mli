(** A shared-counter task scheduler for deterministic search fan-out.

    The pool owns [jobs - 1] worker domains (stdlib {!Domain}; the
    caller of {!map} participates as worker 0, so [jobs = 1] spawns
    nothing and runs everything inline).  Each fan-out is a region with
    one atomic next-index counter: every worker slot, the caller
    included, claims the next task index with a single
    [fetch_and_add].  Claims are lock-free; the pool mutex is used only
    to park idle workers and to wake the caller at region completion.

    Determinism: task indices are claimed dynamically, so which worker
    runs which task — and in what order — is scheduling-dependent.
    Results come back keyed by task index and reductions happen in a
    fixed order, which is the foundation of the [--jobs N] ≡ [--jobs 1]
    bit-identity the search code guarantees: a task's {e result} must
    depend only on its task index, never on the worker slot or on claim
    order.

    Memory model: tasks must not share mutable state across worker
    slots.  The intended pattern is one cloned evaluator (and scratch
    buffer) per worker slot, immutable shared inputs, and results
    published only through the returned array.  The scheduler's
    handoffs (publishing the region, claiming an index on its counter,
    retiring a task on its completion counter) are OCaml [Atomic]
    operations; the caller reads results only after the completion
    counter reaches the task count, which orders every task's writes
    before that read.

    Nesting: a [map] issued from inside a running task executes inline
    on the calling worker and presents worker index 0 to its tasks.
    Worker-indexed scratch must therefore be local to each [map] call
    site, never global. *)

type t

val create : ?eager_wake:bool -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs = 1] is a
    valid degenerate pool that runs every task inline and touches no
    synchronization on {!map}.

    [eager_wake] controls whether submissions unpark sleeping workers.
    It defaults to [true] exactly when the host has more than one
    core: on a single-core host a woken worker only timeslices against
    the caller, so the pool keeps workers parked and the caller drives
    every region alone — same results (the task decomposition never
    depends on who runs a task), none of the unpark/claim/park
    overhead.  Pass [~eager_wake:true] to force
    real cross-domain scheduling anyway — the race tests do, so the
    claim and park handshakes are exercised even on one core.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The size the pool was created with (including the caller). *)

val parallelism : t -> int
(** How many workers a {!map} issued right now would actually use: the
    pool size, or 1 when the pool is busy (the call would nest and run
    inline) or shut down.  Lets callers skip building per-worker clones
    that could never be used.  A single relaxed atomic read — safe to
    call from solver inner loops. *)

val shutdown : t -> unit
(** Terminates and joins the worker domains.  Idempotent.  Subsequent
    {!map} calls run inline.  Must not race an in-flight {!map}. *)

val with_pool : ?eager_wake:bool -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exception.  [eager_wake] as in {!create}. *)

val sequential : t
(** A shared [jobs = 1] pool for callers that were given none.  Safe to
    use concurrently from any domain (it has no shared mutable state on
    the {!map} path). *)

val map : t -> tasks:int -> (worker:int -> int -> 'a) -> 'a array
(** [map t ~tasks f] computes [[| f ~worker:_ 0; ...; f ~worker:_ (tasks-1) |]].
    Task indices are claimed dynamically, so which worker runs which
    task is scheduling-dependent — [f] must make its {e result} depend
    only on the task index, and use [worker] only to pick scratch
    resources.  If any task raises, every task still runs to completion
    and the exception of the lowest-index failing task is re-raised in
    the caller.  Each call allocates a result array, the typed copy of
    it that is returned and a few small per-region values; the
    scheduler allocates nothing per task. *)

(** Scheduler counters, cumulative since pool creation.  Cheap to read;
    meant for observability, not control flow.  Every field is
    scheduling-dependent, so none belongs in a deterministic result. *)
type metrics = {
  steals : int;          (** tasks run by a slot other than the caller *)
  parks : int;           (** times a worker went to sleep on the condvar *)
  park_seconds : float;  (** total wall time workers spent parked *)
  regions : int;         (** fan-outs submitted to the scheduler *)
  tasks : int;           (** tasks submitted across all regions *)
  max_region : int;      (** largest single region (task count) *)
  busy_seconds : float;  (** task run time summed over every worker slot *)
  wall_seconds : float;  (** caller wall time inside scheduled regions *)
}

val metrics : t -> metrics
(** Snapshot of the scheduler counters.  The [jobs = 1] pool (and the
    inline nested path) never touches the scheduler or reads a clock,
    so its metrics stay zero.  [busy_seconds /. (wall_seconds *. jobs)]
    is the pool's parallel efficiency. *)
