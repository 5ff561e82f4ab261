(** Structured tracing and the run context for the TE solvers.

    The paper's evaluation is about where time goes — local-search
    probes, greedy waypoint scans, MILP nodes — and the flat
    {!Engine.Stats} counter bag cannot answer that per phase.  This
    layer adds:

    - {!Tracer}: named, nested spans stamped with {!Engine.Mono},
      recorded into a bounded per-domain buffer.  Disabled tracing is
      the {!Tracer.noop} value: every instrumented site reduces to a
      tag test, no closure is allocated on the fast path.
    - {!Ctx}: the run context every solver entry point takes — the
      run's one counter record ([Engine.Stats]), tracer, worker pool
      and an optional deadline — replacing the [?stats ?jobs ?seed]
      optional-argument sprawl.  Every quantity has one home: a run
      total with no other home is an [Engine.Stats] counter (its table
      names it), a per-stage count sits in the solver's result record
      or span attributes, and a serving daemon's event counts and exact
      update latencies stay in its own record.
    - {!Export}: the shared JSON writers ([trace/1] span streams,
      [run-summary/3] digests, and the versioned envelope every
      [BENCH_*.json] is stamped with), and {!Export.run_metrics}, the
      printed and exported counter view of a run.

    {2 Determinism under [Par.Pool] fan-out}

    Worker attribution inside a pool is scheduling-dependent, so worker
    domains never write into a shared span buffer.  Instead the
    orchestrating domain {!Ctx.fork}s one detached context per {e task}
    (restart, scenario — a deterministic key), hands it to whichever
    worker runs the task, and {!Ctx.join}s the buffers back in key order
    at the join.  The exported trace is therefore a pure function of the
    task decomposition, not of the schedule: byte-identical across
    [--jobs] once timestamps are stripped ([~times:false]). *)

(** Typed key/value pairs: span attributes, and the fields of a bench
    record ({!Export.envelope}). *)
module Attr : sig
  type value =
    | Int of int | Float of float | Str of string | Bool of bool
    | List of value list

  type t = string * value

  val int : string -> int -> t
  val float : string -> float -> t
  val str : string -> string -> t
  val bool : string -> bool -> t
end

(** The JSON printers behind every writer here, the serving protocol's
    and the robustness report's. *)
module Json : sig
  val str : string -> string
  (** The quoted string literal, with quotes, backslashes and control
      characters escaped. *)

  val float : float -> string
  (** [%.17g]; [nan] as [null], infinities as [1e999]/[-1e999]. *)

  val obj : (string * string) list -> string
  (** An object of pre-rendered values, fields in list order, separated
      by [", "], keys by [": "]. *)

  val list : string list -> string
  (** An array of pre-rendered values, separated by [", "]. *)
end

(** The exported view of one closed (or still-open) span. *)
module Span : sig
  type t = {
    id : int;  (** export-order identifier, dense from 0 *)
    parent : int;  (** enclosing span id, [-1] for a root span *)
    depth : int;  (** 0 for root spans *)
    name : string;
    t0 : float;  (** {!Engine.Mono} seconds since the tracer's epoch *)
    dur : float;  (** seconds; [-1.] if the span was never finished *)
    attrs : Attr.t list;  (** in attachment order *)
  }
end

(** Bounded span recorder.  Not thread-safe: one tracer (or child
    buffer) belongs to one domain at a time. *)
module Tracer : sig
  type t

  val noop : t
  (** The disabled tracer: every operation is a constant-time no-op and
    allocates nothing. *)

  val create : ?cap:int -> ?engine_detail:bool -> unit -> t
  (** A live tracer.  [cap] (default [65536]) bounds the number of
      spans each buffer retains; past it, new spans are counted in
      {!dropped} instead of recorded (their children attach to the
      nearest recorded ancestor).  [engine_detail] opts into the
      high-frequency evaluator spans ([ev:*]) via {!probe}. *)

  val enabled : t -> bool
  (** [false] exactly for {!noop}. *)

  val start : t -> string -> int
  (** Opens a span nested under the innermost open span of this buffer
      and returns its token ([-1] if disabled or dropped). *)

  val finish : t -> int -> unit
  (** Closes the span for a {!start} token, stamping its duration.
      Tokens [-1] are ignored.  Finishing out of LIFO order force-pops
      the spans opened since (counted in the [trace/1] header's
      [misnested] field). *)

  val attr : t -> int -> Attr.t -> unit
  (** Attaches an attribute to the span for a token (ignored on [-1]). *)

  val instant : t -> ?attrs:Attr.t list -> string -> unit
  (** A zero-duration event span. *)

  val child : t -> t
  (** A detached buffer with the parent's [cap] and [engine_detail],
      for one unit of fanned-out work.  {!child} of {!noop} is
      {!noop}. *)

  val probe : t -> Engine.Probe.t
  (** A probe for {!Engine.Evaluator.create} feeding this buffer.
      {!Engine.Probe.null} unless the tracer is live {e and} was
      created with [~engine_detail:true]. *)

  val lp_probe : t -> Linprog.Simplex.probe
  (** The simplex / branch-and-bound hooks ([lp:*] / [milp:*] spans).
      Unlike {!probe} these fire on the orchestrating domain at
      branch-and-bound node granularity, so they are live whenever the
      tracer is — no [engine_detail] opt-in. *)

  val span_count : t -> int
  (** Spans recorded in this buffer and every grafted child. *)

  val dropped : t -> int
  (** Spans discarded because a buffer was at capacity (incl. children). *)

  val spans : t -> Span.t list
  (** The merged forest, flattened deterministically: this buffer's
      spans in recording order, then each grafted child (attachment
      order, then key) with ids renumbered and depths shifted.  Open
      spans appear with [dur = -1.]. *)

  val phase_totals : t -> (string * float) list
  (** Per root-span name, the summed seconds over the merged spans,
      sorted by name — the per-phase wall-time breakdown of a run.
      Unfinished spans count with zero duration. *)
end

(** The solver run context. *)
module Ctx : sig
  type t = {
    stats : Engine.Stats.t;
    tracer : Tracer.t;
    pool : Par.Pool.t;
    deadline : float option;
        (** absolute {!Engine.Mono} time; advisory — solvers that honor
            it check {!expired} at a coarse granularity (outer rounds)
            so runs without a deadline stay deterministic *)
  }

  val make :
    ?stats:Engine.Stats.t ->
    ?tracer:Tracer.t ->
    ?pool:Par.Pool.t ->
    ?deadline:float ->
    unit ->
    t
  (** Defaults: fresh stats, {!Tracer.noop}, {!Par.Pool.sequential}, no
      deadline — equivalent to the legacy entry points called with no
      optional arguments. *)

  val jobs : t -> int
  (** Worker count of the context's pool. *)

  val expired : t -> bool
  (** Has the deadline passed?  [false] when none is set. *)

  val span : t -> ?attrs:Attr.t list -> string -> (unit -> 'a) -> 'a
  (** [span ctx name f] brackets [f] in a span on the context's tracer;
      the span is closed (and the exception re-raised) even if [f]
      raises. *)

  val phase : t -> string -> (unit -> 'a) -> 'a
  (** A root-level phase span; {!Tracer.phase_totals} reads the
      per-phase wall times back.  Nothing is timed under the noop
      tracer. *)

  val probe : t -> Engine.Probe.t

  val fork : t -> t
  (** A context for one unit of fanned-out work: fresh stats and a
      {!Tracer.child} buffer; pool and deadline are shared.  Merge back
      with {!join}. *)

  val join : key:int -> into:t -> t -> unit
  (** Merges a forked context back: the stats merge, and the
      span buffer attaches under the innermost span open in [into].  At
      export, buffers joined at the same point appear sorted by [key],
      so with deterministic keys (task index, restart number) the
      merged trace is schedule-independent. *)
end

(** Versioned JSON artifact writers (shared by te-tool and bench). *)
module Export : sig
  val git_rev : unit -> string
  (** Current commit hash, read from [.git] directly; ["unknown"]
      outside a repository. *)

  val json_str : string -> string
  (** {!Json.str}. *)

  val envelope :
    schema:string -> phases:(string * float) list -> ?fields:Attr.t list ->
    Attr.t list list -> string
  (** The shared artifact envelope: [{"schema":<schema>,"git_rev":...,
      "host_cores":...,"phases":{...},<fields>,"records":[...]}], one
      record per line.  [phases] are per-phase wall seconds.  Floats
      render as [%.17g], [nan] as [null], infinities as [±1e999]. *)

  val write_envelope :
    path:string -> schema:string -> phases:(string * float) list ->
    ?fields:Attr.t list -> Attr.t list list -> unit

  val write_trace : ?times:bool -> path:string -> Tracer.t -> unit
  (** Writes the [trace/1] JSONL stream: a header object (schema,
      provenance, span/drop counts and [misnested], the out-of-order
      {!Tracer.finish} repairs), then one object per span of
      {!Tracer.spans}.  [~times:false] omits [t0]/[dur] — used by the
      determinism tests to compare traces byte-for-byte across
      [--jobs]. *)

  type metrics = {
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * float) list;  (** seconds, sorted by name *)
  }

  val run_metrics : Ctx.t -> metrics
  (** The run's one counter view: every nonzero
      {!Engine.Stats.counters} entry under its own name, every nonzero
      hot-phase timer as an [engine.time.*] gauge, and the pool's
      nonzero scheduler counters and seconds as [sched.*] entries
      (cumulative since pool creation and scheduling-dependent, so they
      never enter a context's jobs-invariant stats). *)

  val pp_metrics : Format.formatter -> metrics -> unit
  (** One line per counter, then one per gauge, under a [metrics:]
      header. *)

  val run_summary : ?wall:float -> Ctx.t -> string
  (** The [run-summary/3] digest of a finished run: provenance, jobs,
      wall seconds ([wall] defaults to the sum of root-span times),
      per-phase seconds with their coverage of the wall time, the
      pool's parallel efficiency (busy over wall times jobs, [null] when
      no region was scheduled), span/drop counts and {!run_metrics}. *)
end
