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

let is_none p =
  p.batch_fail_rate = 0. && p.stall_rate = 0. && p.poison_rate = 0.
  && p.disconnect_rate = 0.
  && p.crash_at_cycle = None
  && p.worker_crash_rate = 0. && p.worker_death_rate = 0.
  && p.worker_stall_rate = 0.
  && p.pcrash_at_cycle = None

let has_worker_faults p =
  p.worker_crash_rate > 0. || p.worker_death_rate > 0.
  || p.worker_stall_rate > 0.

let validate p =
  let rate name v =
    if v < 0. || v > 1. then Error (Printf.sprintf "%s must be in [0,1]" name)
    else Ok ()
  in
  let ( >>= ) r f = Result.bind r (fun () -> f ()) in
  rate "batch_fail_rate" p.batch_fail_rate
  >>= fun () ->
  rate "stall_rate" p.stall_rate
  >>= fun () ->
  rate "poison_rate" p.poison_rate
  >>= fun () ->
  rate "disconnect_rate" p.disconnect_rate
  >>= fun () ->
  rate "worker_crash_rate" p.worker_crash_rate
  >>= fun () ->
  rate "worker_death_rate" p.worker_death_rate
  >>= fun () ->
  rate "worker_stall_rate" p.worker_stall_rate
  >>= fun () ->
  if p.stall_duration < 0. then Error "stall_duration must be non-negative"
  else if p.worker_stall_duration < 0. then
    Error "worker_stall_duration must be non-negative"
  else
    match p.crash_at_cycle with
    | Some c when c <= 0 -> Error "crash cycle must be positive"
    | _ -> (
      match p.pcrash_at_cycle with
      | Some c when c <= 0 -> Error "pcrash cycle must be positive"
      | _ -> Ok ())

let plan_of_string s =
  let parse_field plan kv =
    match String.split_on_char '=' (String.trim kv) with
    | [ "" ] -> Ok plan
    (* plan_to_string renders the empty plan as "none"; accept it back. *)
    | [ "none" ] -> Ok plan
    | [ key; value ] -> (
      let fl () =
        match float_of_string_opt value with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "bad number %S for %s" value key)
      in
      match key with
      | "batch" -> Result.map (fun f -> { plan with batch_fail_rate = f }) (fl ())
      | "stall" -> Result.map (fun f -> { plan with stall_rate = f }) (fl ())
      | "stall-dur" ->
        Result.map (fun f -> { plan with stall_duration = f }) (fl ())
      | "poison" -> Result.map (fun f -> { plan with poison_rate = f }) (fl ())
      | "disconnect" ->
        Result.map (fun f -> { plan with disconnect_rate = f }) (fl ())
      | "crash" -> (
        match int_of_string_opt value with
        | Some c -> Ok { plan with crash_at_cycle = Some c }
        | None -> Error (Printf.sprintf "bad cycle %S for crash" value))
      | "pcrash" -> (
        match int_of_string_opt value with
        | Some c -> Ok { plan with pcrash_at_cycle = Some c }
        | None -> Error (Printf.sprintf "bad cycle %S for pcrash" value))
      | "wcrash" ->
        Result.map (fun f -> { plan with worker_crash_rate = f }) (fl ())
      | "wdeath" ->
        Result.map (fun f -> { plan with worker_death_rate = f }) (fl ())
      | "wstall" ->
        Result.map (fun f -> { plan with worker_stall_rate = f }) (fl ())
      | "wstall-dur" ->
        Result.map (fun f -> { plan with worker_stall_duration = f }) (fl ())
      | _ -> Error (Printf.sprintf "unknown fault key %S" key))
    | _ -> Error (Printf.sprintf "expected key=value, got %S" kv)
  in
  let parsed =
    List.fold_left
      (fun acc kv -> Result.bind acc (fun plan -> parse_field plan kv))
      (Ok none)
      (String.split_on_char ',' s)
  in
  Result.bind parsed (fun plan ->
      Result.map (fun () -> plan) (validate plan))

let plan_to_string p =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        (if p.batch_fail_rate > 0. then
           Some (Printf.sprintf "batch=%g" p.batch_fail_rate)
         else None);
        (if p.stall_rate > 0. then Some (Printf.sprintf "stall=%g" p.stall_rate)
         else None);
        (if p.stall_rate > 0. then
           Some (Printf.sprintf "stall-dur=%g" p.stall_duration)
         else None);
        (if p.poison_rate > 0. then
           Some (Printf.sprintf "poison=%g" p.poison_rate)
         else None);
        (if p.disconnect_rate > 0. then
           Some (Printf.sprintf "disconnect=%g" p.disconnect_rate)
         else None);
        Option.map (Printf.sprintf "crash=%d") p.crash_at_cycle;
        (if p.worker_crash_rate > 0. then
           Some (Printf.sprintf "wcrash=%g" p.worker_crash_rate)
         else None);
        (if p.worker_death_rate > 0. then
           Some (Printf.sprintf "wdeath=%g" p.worker_death_rate)
         else None);
        (if p.worker_stall_rate > 0. then
           Some (Printf.sprintf "wstall=%g" p.worker_stall_rate)
         else None);
        (if p.worker_stall_rate > 0. then
           Some (Printf.sprintf "wstall-dur=%g" p.worker_stall_duration)
         else None);
        Option.map (Printf.sprintf "pcrash=%d") p.pcrash_at_cycle;
      ]
  in
  if parts = [] then "none" else String.concat "," parts

let pp_plan ppf p = Format.pp_print_string ppf (plan_to_string p)

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
