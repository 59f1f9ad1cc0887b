open Ds_model
open Ds_sim

type plan = {
  batch_fail_rate : float;
  stall_rate : float;
  stall_duration : float;
  poison_rate : float;
  disconnect_rate : float;
  crash_at_cycle : int option;
  worker_crash_rate : float;
  worker_death_rate : float;
  worker_stall_rate : float;
  worker_stall_duration : float;
  pcrash_at_cycle : int option;
}

let none =
  {
    batch_fail_rate = 0.;
    stall_rate = 0.;
    stall_duration = 0.05;
    poison_rate = 0.;
    disconnect_rate = 0.;
    crash_at_cycle = None;
    worker_crash_rate = 0.;
    worker_death_rate = 0.;
    worker_stall_rate = 0.;
    worker_stall_duration = 0.05;
    pcrash_at_cycle = None;
  }

let codec =
  let open Ds_util.Kv in
  let stall =
    row Rate "stall" "one request of a batch attempt stalls"
      (fun p -> p.stall_rate)
      (fun p v -> { p with stall_rate = v })
  in
  let wstall =
    row Rate "wstall" "a pool worker turns straggler for a batch"
      (fun p -> p.worker_stall_rate)
      (fun p v -> { p with worker_stall_rate = v })
  in
  {
    what = "fault";
    none;
    rows =
      [
        row Rate "batch" "a batch attempt fails transiently"
          (fun p -> p.batch_fail_rate)
          (fun p v -> { p with batch_fail_rate = v });
        stall;
        row ~gate:stall Seconds "stall-dur" "how long a stalled request hangs"
          (fun p -> p.stall_duration)
          (fun p v -> { p with stall_duration = v });
        row Rate "poison" "a data request fails on every attempt"
          (fun p -> p.poison_rate)
          (fun p v -> { p with poison_rate = v });
        row Rate "disconnect" "a client vanishes mid-transaction"
          (fun p -> p.disconnect_rate)
          (fun p v -> { p with disconnect_rate = v });
        row Cycle "crash"
          "the middleware crashes at that cycle and recovers from its journal"
          (fun p -> p.crash_at_cycle)
          (fun p v -> { p with crash_at_cycle = v });
        row Rate "wcrash"
          "a pool worker crashes for a batch (needs more than one worker)"
          (fun p -> p.worker_crash_rate)
          (fun p v -> { p with worker_crash_rate = v });
        row Rate "wdeath" "a pool worker dies for the rest of the run"
          (fun p -> p.worker_death_rate)
          (fun p v -> { p with worker_death_rate = v });
        wstall;
        row ~gate:wstall Seconds "wstall-dur" "the straggler slowdown scale"
          (fun p -> p.worker_stall_duration)
          (fun p v -> { p with worker_stall_duration = v });
        row Cycle "pcrash"
          "the primary dies for good at that cycle and the hot standby takes \
           over (needs a standby)"
          (fun p -> p.pcrash_at_cycle)
          (fun p v -> { p with pcrash_at_cycle = v });
      ];
  }

let is_none = Ds_util.Kv.is_none codec

let has_worker_faults p =
  p.worker_crash_rate > 0. || p.worker_death_rate > 0.
  || p.worker_stall_rate > 0.

let validate = Ds_util.Kv.validate codec
let plan_of_string = Ds_util.Kv.of_string codec
let plan_to_string = Ds_util.Kv.to_string codec
let pp_plan = Ds_util.Kv.pp codec

(* Capped exponential backoff shared by the middleware retry ladder.  The
   exponent is clamped before shifting: [2^attempt] overflows a native int
   past attempt 61, and even the float conversion saturates far below a
   useful cap, so attempts beyond 10 all pay [base * 1024] (then the cap).
   Monotone non-decreasing in [attempt] and always <= [cap]. *)
let backoff ~base ~cap ~attempt =
  let exp = float_of_int (1 lsl min 10 (max 0 attempt)) in
  Float.min cap (base *. exp)

type t = {
  plan : plan;
  rng : Rng.t;
  poison_salt : int;
  mutable fail_victim : (int * int) option;
  mutable stall_victim : (int * int) option;
  mutable stall_extra : float;
  mutable n_failures : int;
  mutable n_stalls : int;
}

let create plan rng =
  {
    plan;
    rng;
    poison_salt = Rng.int63 rng;
    fail_victim = None;
    stall_victim = None;
    stall_extra = 0.;
    n_failures = 0;
    n_stalls = 0;
  }

let plan t = t.plan

let is_poison t (r : Request.t) =
  t.plan.poison_rate > 0.
  && Request.is_data r
  && float_of_int (Hashtbl.hash (t.poison_salt, r.Request.ta, r.Request.intrata))
     /. float_of_int 0x3FFFFFFF
     < t.plan.poison_rate

let pick_victim t batch =
  (* Prefer data requests as failure victims; terminals only when the batch
     has nothing else. *)
  let data = List.filter Request.is_data batch in
  let pool = if data <> [] then data else batch in
  Request.key (List.nth pool (Rng.int t.rng (List.length pool)))

let begin_attempt t batch =
  t.fail_victim <- None;
  t.stall_victim <- None;
  if batch <> [] then begin
    if t.plan.batch_fail_rate > 0. && Rng.float t.rng < t.plan.batch_fail_rate
    then begin
      t.fail_victim <- Some (pick_victim t batch);
      t.n_failures <- t.n_failures + 1
    end;
    if t.plan.stall_rate > 0. && Rng.float t.rng < t.plan.stall_rate then begin
      t.stall_victim <- Some (pick_victim t batch);
      t.stall_extra <- t.plan.stall_duration *. (0.5 +. Rng.float t.rng);
      t.n_stalls <- t.n_stalls + 1
    end
  end

let request_outcome t (r : Request.t) =
  let key = Request.key r in
  if is_poison t r then `Fail
  else if t.fail_victim = Some key then `Fail
  else if t.stall_victim = Some key then `Stall t.stall_extra
  else `Ok

let draw_disconnect_after t ~data_stmts =
  if
    t.plan.disconnect_rate > 0.
    && data_stmts > 0
    && Rng.float t.rng < t.plan.disconnect_rate
  then Some (1 + Rng.int t.rng data_stmts)
  else None

let injected_failures t = t.n_failures

let injected_stalls t = t.n_stalls

(* Every draw is gated on [rate > 0.] so plans without worker faults consume
   the exact same RNG stream as before this channel existed — seeded no-fault
   runs stay bit-identical. A fault that would leave no survivor is never
   drawn: crashes and deaths pick a victim only when at least two workers are
   alive. *)
let draw_worker_faults t ~alive =
  let n = List.length alive in
  let pick () = List.nth alive (Rng.int t.rng n) in
  let crash =
    if
      t.plan.worker_crash_rate > 0. && n > 1
      && Rng.float t.rng < t.plan.worker_crash_rate
    then
      [
        Ds_server.Worker_pool.Crash
          { worker = pick (); after = Rng.int t.rng 3 };
      ]
    else []
  in
  let death =
    if
      t.plan.worker_death_rate > 0. && n > 1
      && Rng.float t.rng < t.plan.worker_death_rate
    then [ Ds_server.Worker_pool.Die { worker = pick () } ]
    else []
  in
  let stall =
    if
      t.plan.worker_stall_rate > 0. && n > 0
      && Rng.float t.rng < t.plan.worker_stall_rate
    then begin
      let delay = t.plan.worker_stall_duration *. (0.5 +. Rng.float t.rng) in
      [ Ds_server.Worker_pool.Slow { worker = pick (); delay } ]
    end
    else []
  in
  crash @ death @ stall
