(* Shared-counter task scheduler.

   A fan-out publishes a region descriptor and bumps the submission
   epoch; every slot (slot 0 is the submitting caller) claims the next
   task index with one [fetch_and_add] on the region's [r_next] and
   runs it if it is below [r_total].  Claims are lock-free; the pool
   mutex/condvars exist only to park idle workers between regions and
   to wake the caller at region completion.

   A worker reads [t.region] and then claims on the region it read.  A
   stale region (one that already completed) can only answer "nothing
   to claim": it completes only after every index below [r_total] was
   claimed, and [r_next] never decreases.

   Determinism: claim order decides *which slot* runs a task and when,
   never what the task computes (results are keyed by task index and
   merged in index order by the callers).  Nothing in the scheduler
   feeds scheduling order back into results. *)

(* One fan-out.  [r_run] never raises (exceptions are recorded
   out-of-band by the wrapper in [map]). *)
type region = {
  r_total : int;
  r_run : int -> int -> unit;          (* worker slot -> task index *)
  r_next : int Atomic.t;               (* next unclaimed task index *)
  r_done : int Atomic.t;
}

type t = {
  n_jobs : int;
  wake : bool;                         (* unpark workers for new work? *)
  mutex : Mutex.t;                     (* park/unpark only *)
  work : Condition.t;                  (* workers wait here between regions *)
  finished : Condition.t;              (* the caller waits here for completion *)
  region : region option Atomic.t;
  epoch : int Atomic.t;                (* bumped per submission; parking guard *)
  busy : int Atomic.t;                 (* 0 = idle, 1 = a region is in flight *)
  stopping : bool Atomic.t;
  parked : int Atomic.t;               (* exact when read under [mutex] *)
  waiting : int Atomic.t;              (* 1 while the caller may be parked *)
  (* metrics *)
  m_steals : int Atomic.t;
  m_parks : int Atomic.t;
  m_regions : int Atomic.t;
  m_tasks : int Atomic.t;
  m_max_region : int Atomic.t;
  park_time : float array;             (* per-slot; only slot w writes w *)
  busy_time : float array;             (* per-slot task seconds, likewise *)
  mutable wall_time : float;           (* region seconds; caller-written *)
  mutable domains : unit Domain.t list;
}

let jobs t = t.n_jobs

(* A relaxed atomic read — no mutex.  [busy] is claimed by CAS in
   [execute], so observing 1 means a map issued now would nest and run
   inline with a single worker slot. *)
let parallelism t =
  if t.n_jobs = 1 then 1
  else if Atomic.get t.busy = 1 || Atomic.get t.stopping then 1
  else t.n_jobs

(* Run a claimed task, timing it into this slot's busy cell, then
   retire it.  The completion counter's RMW chain gives the caller a
   happens-before edge to every task's writes, the busy cells
   included. *)
let exec t r worker task =
  let t0 = Engine.Mono.now () in
  r.r_run worker task;
  t.busy_time.(worker) <- t.busy_time.(worker) +. (Engine.Mono.now () -. t0);
  if Atomic.fetch_and_add r.r_done 1 = r.r_total - 1 then begin
    (* Last task of the region: wake the caller if it may be parked.
       [waiting] is written (SC) by the caller before it re-checks
       [r_done], so if we read 0 here the caller's later read of
       [r_done] sees the total and it never sleeps.  In the common
       case — the caller retired the last task itself — this skips the
       lock entirely. *)
    if Atomic.get t.waiting > 0 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end
  end

(* Claim the next task index of [r] for [worker] and run it; false when
   every index is already claimed. *)
let claim t r worker =
  let i = Atomic.fetch_and_add r.r_next 1 in
  if i >= r.r_total then false
  else begin
    if worker > 0 then Atomic.incr t.m_steals;
    exec t r worker i;
    true
  end

let spin_budget = 64

let worker_loop t worker =
  let claim_current () =
    match Atomic.get t.region with
    | Some r -> claim t r worker
    | None -> false
  in
  while not (Atomic.get t.stopping) do
    let e = Atomic.get t.epoch in
    if not (claim_current ()) then begin
      (* Nothing runnable: spin briefly (tasks retire in microseconds),
         then park until the next submission bumps the epoch. *)
      let spins = ref 0 in
      let got = ref false in
      while not !got && !spins < spin_budget
            && Atomic.get t.epoch = e && not (Atomic.get t.stopping) do
        Domain.cpu_relax ();
        incr spins;
        got := claim_current ()
      done;
      if not !got && Atomic.get t.epoch = e
         && not (Atomic.get t.stopping) then begin
        Mutex.lock t.mutex;
        (* Submissions bump the epoch before taking the mutex, so this
           re-check under the lock cannot miss one. *)
        if Atomic.get t.epoch = e && not (Atomic.get t.stopping) then begin
          Atomic.incr t.m_parks;
          Atomic.incr t.parked;
          let t0 = Engine.Mono.now () in
          Condition.wait t.work t.mutex;
          t.park_time.(worker) <-
            t.park_time.(worker) +. (Engine.Mono.now () -. t0);
          Atomic.decr t.parked
        end;
        Mutex.unlock t.mutex
      end
    end
  done

(* On a single-core host, waking a worker can never speed a region up:
   the woken domain only timeslices against the caller, and every
   unpark/claim/park cycle is pure overhead — so by default such hosts
   keep workers parked and let the caller drive every region alone
   (results are identical either way; the decomposition never depends
   on who runs a task).  [eager_wake] forces real cross-domain
   scheduling regardless, which the race tests use to keep exercising
   the claim and park handshakes even on one core. *)
let create ?eager_wake ~jobs () =
  if jobs < 1 then invalid_arg "Par.Pool.create: jobs must be >= 1";
  let wake =
    match eager_wake with
    | Some w -> w
    | None -> Domain.recommended_domain_count () > 1
  in
  let t = {
    n_jobs = jobs;
    wake;
    mutex = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    region = Atomic.make None;
    epoch = Atomic.make 0;
    busy = Atomic.make 0;
    stopping = Atomic.make false;
    parked = Atomic.make 0;
    waiting = Atomic.make 0;
    m_steals = Atomic.make 0;
    m_parks = Atomic.make 0;
    m_regions = Atomic.make 0;
    m_tasks = Atomic.make 0;
    m_max_region = Atomic.make 0;
    park_time = Array.make jobs 0.;
    busy_time = Array.make jobs 0.;
    wall_time = 0.;
    domains = [];
  } in
  if jobs > 1 then
    t.domains <-
      List.init (jobs - 1)
        (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let shutdown t =
  if t.n_jobs > 1 then begin
    Mutex.lock t.mutex;
    let ds = t.domains in
    t.domains <- [];
    if not (Atomic.get t.stopping) then begin
      Atomic.set t.stopping true;
      Condition.broadcast t.work
    end;
    Mutex.unlock t.mutex;
    List.iter Domain.join ds
  end
  else Atomic.set t.stopping true

let with_pool ?eager_wake ~jobs f =
  let t = create ?eager_wake ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let sequential = create ~jobs:1 ()

(* The caller drives its own region as slot 0: claim-and-run until
   every index is claimed, then wait for the tasks still running on
   other slots — spinning briefly, then parking on [finished]. *)
let caller_drive t r =
  let total = r.r_total in
  while claim t r 0 do () done;
  let spins = ref 0 in
  while Atomic.get r.r_done < total && !spins < spin_budget do
    Domain.cpu_relax ();
    incr spins
  done;
  if Atomic.get r.r_done < total then begin
    (* SC handshake with the completion path in [exec]: publish
       [waiting] before re-checking [r_done] under the mutex; the
       finisher stores [r_done] before reading [waiting], so one of
       the two always sees the other. *)
    Atomic.set t.waiting 1;
    Mutex.lock t.mutex;
    while Atomic.get r.r_done < total do
      Condition.wait t.finished t.mutex
    done;
    Mutex.unlock t.mutex;
    Atomic.set t.waiting 0
  end

(* Shared submission path for a region of [tasks >= 1] tasks.  [run]
   must not raise. *)
let execute t ~tasks run =
  if t.n_jobs = 1
     || Atomic.get t.stopping
     || not (Atomic.compare_and_set t.busy 0 1) then
    (* Sequential pool, post-shutdown, or nested inside a running
       task: run inline as slot 0.  This path touches no scheduler
       state and reads no clock (the [jobs = 1] probe loops stay
       allocation-free and lock-free). *)
    for i = 0 to tasks - 1 do run 0 i done
  else begin
    let wall0 = Engine.Mono.now () in
    let r = { r_total = tasks; r_run = run;
              r_next = Atomic.make 0; r_done = Atomic.make 0 } in
    Atomic.set t.region (Some r);
    Atomic.incr t.m_regions;
    ignore (Atomic.fetch_and_add t.m_tasks tasks);
    if tasks > Atomic.get t.m_max_region then
      Atomic.set t.m_max_region tasks;
    Atomic.incr t.epoch;
    (* Unpark just enough workers for the region (the caller takes one
       task itself).  [parked] is exact under the mutex: a worker
       still deciding whether to park re-checks the epoch we just
       bumped.  A single-core pool skips the wakeups entirely (see
       [create]). *)
    if t.wake then begin
      Mutex.lock t.mutex;
      let k = min (Atomic.get t.parked) (tasks - 1) in
      for _ = 1 to k do Condition.signal t.work done;
      Mutex.unlock t.mutex
    end;
    caller_drive t r;
    t.wall_time <- t.wall_time +. (Engine.Mono.now () -. wall0);
    Atomic.set t.region None;
    Atomic.set t.busy 0
  end

(* Record the lowest-index failure; every task still runs. *)
let record_exn slot i e =
  let rec loop () =
    match Atomic.get slot with
    | Some (j, _) when j <= i -> ()
    | cur ->
      if not (Atomic.compare_and_set slot cur (Some (i, e))) then loop ()
  in
  loop ()

let map (type a) t ~tasks (f : worker:int -> int -> a) : a array =
  if tasks < 0 then invalid_arg "Par.Pool.map: negative task count";
  if tasks = 0 then [||]
  else begin
    (* One uniform result array (elements boxed via Obj), filled in
       place — no per-task option boxing.  The Obj round-trip is safe
       because slot [i] is written exactly once, before the caller
       reads it (completion happens-before), and read back at type [a]. *)
    let results = Array.make tasks (Obj.repr ()) in
    let err : (int * exn) option Atomic.t = Atomic.make None in
    let run worker i =
      match f ~worker i with
      | v -> Array.unsafe_set results i (Obj.repr v)
      | exception e -> record_exn err i e
    in
    execute t ~tasks run;
    match Atomic.get err with
    | Some (_, e) -> raise e
    | None ->
      Array.init tasks (fun i -> (Obj.obj (Array.unsafe_get results i) : a))
  end

type metrics = {
  steals : int;
  parks : int;
  park_seconds : float;
  regions : int;
  tasks : int;
  max_region : int;
  busy_seconds : float;
  wall_seconds : float;
}

let metrics t = {
  steals = Atomic.get t.m_steals;
  parks = Atomic.get t.m_parks;
  park_seconds = Array.fold_left ( +. ) 0. t.park_time;
  regions = Atomic.get t.m_regions;
  tasks = Atomic.get t.m_tasks;
  max_region = Atomic.get t.m_max_region;
  busy_seconds = Array.fold_left ( +. ) 0. t.busy_time;
  wall_seconds = t.wall_time;
}
