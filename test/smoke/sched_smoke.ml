(* Scheduler smoke: a skewed-cost byte-identity race for the pool's
   shared-counter claims.  Every region mixes one task two orders of
   magnitude more expensive than the rest, so at jobs > 1 the other
   slots claim the cheap tasks while the submitting caller grinds the
   big one — the configuration most likely to expose a claim bug as a
   wrong (schedule-dependent) result.  Repeats the race many
   times and fails loudly on the first byte mismatch.
   Run with `dune build @sched-smoke'. *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

let burn n =
  let s = ref 0 in
  for i = 1 to n do
    s := !s + (i land 7)
  done;
  !s

let cost i = if i mod 11 = 0 then 150_000 else 1_500

let () =
  let tasks = 33 in
  let rounds = 20 in
  let expected = Array.init tasks (fun i -> burn (cost i) + (i * 17)) in
  Printf.printf "sched smoke: %d rounds of %d skewed tasks, jobs 1 vs 4\n%!"
    rounds tasks;
  Par.Pool.with_pool ~eager_wake:true ~jobs:4 (fun pool ->
      let ok = ref true in
      for _ = 1 to rounds do
        let got =
          Par.Pool.map pool ~tasks (fun ~worker:_ i -> burn (cost i) + (i * 17))
        in
        if got <> expected then ok := false
      done;
      check "skewed map byte-identical" !ok);
  if !failures > 0 then begin
    Printf.printf "sched smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "sched smoke: scheduler races never leak into results"
