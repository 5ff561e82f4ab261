(* Work-stealing task scheduler.

   One Chase–Lev deque of task indices per worker slot (slot 0 is the
   submitting caller).  A fan-out publishes a region descriptor, seeds
   the caller's deque with every task index, and bumps the submission
   epoch; workers claim indices by popping their own deque or stealing
   from another slot's top, both lock-free.  The pool
   mutex/condvars exist only to park idle workers between regions and
   to wake the caller at region completion.

   Claim-first protocol: a worker first claims a task index from a
   deque and only then reads [t.region].  This is safe because the
   region is published (an Atomic store) before any of its indices are
   pushed, and a region cannot complete — so the next one cannot be
   published — while a claimed index has not executed.  The atomic
   claim therefore happens-after the publication of the region it
   belongs to, and the subsequent region read cannot observe an older
   region.

   Determinism: steal order decides *which slot* runs a task and when,
   never what the task computes (results are keyed by task index and
   merged in index order by the callers).  Nothing in the scheduler
   feeds scheduling order back into results. *)

(* Chase–Lev deque specialized to task indices (nonnegative ints), so
   claims never allocate.  The buffer is circular with power-of-two
   length and is itself held in an Atomic: the owner replaces it when
   growing, and a thief re-reads it after reading [top]/[bottom] so a
   stale (smaller) buffer read loses the CAS on [top] instead of
   stealing a relocated element. *)
module Deque = struct
  type t = {
    top : int Atomic.t;      (* next index thieves steal *)
    bottom : int Atomic.t;   (* next slot the owner pushes *)
    buf : int array Atomic.t;
  }

  let empty = -1   (* claim sentinels; task indices are >= 0 *)
  let retry = -2

  let create () =
    { top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make (Array.make 64 empty) }

  let grow q top bottom =
    let a = Atomic.get q.buf in
    let n = Array.length a in
    let b = Array.make (2 * n) empty in
    for i = top to bottom - 1 do
      b.(i land (2 * n - 1)) <- a.(i land (n - 1))
    done;
    Atomic.set q.buf b;
    b

  (* Owner only. *)
  let push q v =
    let b = Atomic.get q.bottom in
    let t = Atomic.get q.top in
    let a = Atomic.get q.buf in
    let a = if b - t >= Array.length a then grow q t b else a in
    a.(b land (Array.length a - 1)) <- v;
    Atomic.set q.bottom (b + 1)

  (* Owner only. *)
  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* already empty: restore the canonical empty state *)
      Atomic.set q.bottom t;
      empty
    end
    else begin
      let a = Atomic.get q.buf in
      let v = a.(b land (Array.length a - 1)) in
      if b > t then v
      else begin
        (* last element: race the thieves for it *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then v else empty
      end
    end

  (* Any domain. *)
  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if b - t <= 0 then empty
    else begin
      let a = Atomic.get q.buf in
      let v = a.(t land (Array.length a - 1)) in
      if Atomic.compare_and_set q.top t (t + 1) then v else retry
    end
end

(* One fan-out.  [r_run] never raises (exceptions are recorded
   out-of-band by the wrapper in [map]). *)
type region = {
  r_total : int;
  r_run : int -> int -> unit;          (* worker slot -> task index *)
  r_done : int Atomic.t;
}

type t = {
  n_jobs : int;
  wake : bool;                         (* unpark workers for new work? *)
  mutex : Mutex.t;                     (* park/unpark only *)
  work : Condition.t;                  (* workers wait here between regions *)
  finished : Condition.t;              (* the caller waits here for completion *)
  deques : Deque.t array;              (* one per slot; slot 0 = caller *)
  region : region option Atomic.t;
  epoch : int Atomic.t;                (* bumped per submission; parking guard *)
  busy : int Atomic.t;                 (* 0 = idle, 1 = a region is in flight *)
  stopping : bool Atomic.t;
  parked : int Atomic.t;               (* exact when read under [mutex] *)
  waiting : int Atomic.t;              (* 1 while the caller may be parked *)
  (* metrics *)
  m_steals : int Atomic.t;
  m_steal_races : int Atomic.t;
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

(* Claim a task index for [worker]: own deque first, then a rotating
   steal sweep over the other slots.  Returns [Deque.empty] when
   nothing was runnable at the time of the sweep. *)
let try_get t worker =
  let i = Deque.pop t.deques.(worker) in
  if i >= 0 then i
  else begin
    let n = Array.length t.deques in
    let found = ref Deque.empty in
    let k = ref 1 in
    while !found < 0 && !k < n do
      let q = t.deques.((worker + !k) mod n) in
      let rec attempt () =
        match Deque.steal q with
        | v when v = Deque.retry ->
          Atomic.incr t.m_steal_races;
          attempt ()
        | v -> v
      in
      (match attempt () with
       | v when v >= 0 ->
         Atomic.incr t.m_steals;
         found := v
       | _ -> ());
      incr k
    done;
    !found
  end

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

let spin_budget = 64

let worker_loop t worker =
  while not (Atomic.get t.stopping) do
    let e = Atomic.get t.epoch in
    let i = try_get t worker in
    if i >= 0 then
      (match Atomic.get t.region with
       | Some r -> exec t r worker i
       | None ->
         (* impossible per the claim-first protocol (see header) *)
         assert false)
    else begin
      (* Nothing runnable: spin briefly (tasks retire in microseconds),
         then park until the next submission bumps the epoch. *)
      let spins = ref 0 in
      let got = ref Deque.empty in
      while !got < 0 && !spins < spin_budget
            && Atomic.get t.epoch = e && not (Atomic.get t.stopping) do
        Domain.cpu_relax ();
        incr spins;
        got := try_get t worker
      done;
      if !got >= 0 then
        (match Atomic.get t.region with
         | Some r -> exec t r worker !got
         | None -> assert false)
      else if Atomic.get t.epoch = e && not (Atomic.get t.stopping) then begin
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
   unpark/steal/park cycle is pure overhead — so by default such hosts
   keep workers parked and let the caller drive every region alone
   (results are identical either way; the decomposition never depends
   on who runs a task).  [eager_wake] forces real cross-domain
   scheduling regardless, which the race tests use to keep exercising
   the deque protocol even on one core. *)
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
    deques = Array.init jobs (fun _ -> Deque.create ());
    region = Atomic.make None;
    epoch = Atomic.make 0;
    busy = Atomic.make 0;
    stopping = Atomic.make false;
    parked = Atomic.make 0;
    waiting = Atomic.make 0;
    m_steals = Atomic.make 0;
    m_steal_races = Atomic.make 0;
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

(* The caller drives its own region as slot 0: claim-and-run until the
   completion counter says every task retired, parking on [finished]
   only when nothing is runnable here and the region is not done. *)
let caller_drive t r =
  let total = r.r_total in
  let running = ref true in
  while !running do
    let i = try_get t 0 in
    if i >= 0 then exec t r 0 i
    else if Atomic.get r.r_done >= total then running := false
    else begin
      let spins = ref 0 in
      let got = ref Deque.empty in
      while !got < 0 && !spins < spin_budget && Atomic.get r.r_done < total do
        Domain.cpu_relax ();
        incr spins;
        got := try_get t 0
      done;
      if !got >= 0 then exec t r 0 !got
      else if Atomic.get r.r_done < total then begin
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
    end
  done

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
    let r = { r_total = tasks; r_run = run; r_done = Atomic.make 0 } in
    (* Publish the region before any of its indices become claimable
       (the claim-first protocol depends on this order), then seed the
       caller's deque highest-index-first so slot 0 pops ascending. *)
    Atomic.set t.region (Some r);
    for i = tasks - 1 downto 0 do Deque.push t.deques.(0) i done;
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

let chunks ~chunk n =
  if chunk < 1 then invalid_arg "Par.Pool.chunks: chunk must be >= 1";
  if n < 0 then invalid_arg "Par.Pool.chunks: negative size";
  let k = (n + chunk - 1) / chunk in
  Array.init k (fun i ->
      let start = i * chunk in
      (start, min chunk (n - start)))

type metrics = {
  steals : int;
  steal_races : int;
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
  steal_races = Atomic.get t.m_steal_races;
  parks = Atomic.get t.m_parks;
  park_seconds = Array.fold_left ( +. ) 0. t.park_time;
  regions = Atomic.get t.m_regions;
  tasks = Atomic.get t.m_tasks;
  max_region = Atomic.get t.m_max_region;
  busy_seconds = Array.fold_left ( +. ) 0. t.busy_time;
  wall_seconds = t.wall_time;
}
