open Ds_sim

type plan = {
  drop_rate : float;
  dup_rate : float;
  reorder_rate : float;
  delay_rate : float;
  spike_delay : float;
  partition_at : float option;
  partition_for : float;
  flap_period : float option;
  flap_down : float;
}

(* One-way latency floor of every record, in virtual seconds. *)
let base_delay = 0.002

let none =
  {
    drop_rate = 0.;
    dup_rate = 0.;
    reorder_rate = 0.;
    delay_rate = 0.;
    spike_delay = 0.05;
    partition_at = None;
    partition_for = 0.5;
    flap_period = None;
    flap_down = 0.05;
  }

let is_none p =
  p.drop_rate = 0. && p.dup_rate = 0. && p.reorder_rate = 0.
  && p.delay_rate = 0.
  && p.partition_at = None
  && p.flap_period = None

let validate p =
  let rate name v =
    if v < 0. || v > 1. then Error (Printf.sprintf "%s must be in [0,1]" name)
    else Ok ()
  in
  let ( >>= ) r f = Result.bind r (fun () -> f ()) in
  rate "drop_rate" p.drop_rate
  >>= fun () ->
  rate "dup_rate" p.dup_rate
  >>= fun () ->
  rate "reorder_rate" p.reorder_rate
  >>= fun () ->
  rate "delay_rate" p.delay_rate
  >>= fun () ->
  if p.spike_delay < 0. then Error "spike_delay must be non-negative"
  else if p.partition_for < 0. then Error "partition_for must be non-negative"
  else if p.flap_down < 0. then Error "flap_down must be non-negative"
  else
    match p.partition_at with
    | Some t when t < 0. -> Error "partition time must be non-negative"
    | _ -> (
      match p.flap_period with
      | Some t when t <= 0. -> Error "flap period must be positive"
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
      | "drop" -> Result.map (fun f -> { plan with drop_rate = f }) (fl ())
      | "dup" -> Result.map (fun f -> { plan with dup_rate = f }) (fl ())
      | "reorder" -> Result.map (fun f -> { plan with reorder_rate = f }) (fl ())
      | "delay" -> Result.map (fun f -> { plan with delay_rate = f }) (fl ())
      | "spike" -> Result.map (fun f -> { plan with spike_delay = f }) (fl ())
      | "partition" ->
        Result.map (fun f -> { plan with partition_at = Some f }) (fl ())
      | "partition-dur" ->
        Result.map (fun f -> { plan with partition_for = f }) (fl ())
      | "flap" ->
        Result.map (fun f -> { plan with flap_period = Some f }) (fl ())
      | "flap-down" -> Result.map (fun f -> { plan with flap_down = f }) (fl ())
      | _ -> Error (Printf.sprintf "unknown link fault key %S" key))
    | _ -> Error (Printf.sprintf "expected key=value, got %S" kv)
  in
  let parsed =
    List.fold_left
      (fun acc kv -> Result.bind acc (fun plan -> parse_field plan kv))
      (Ok none)
      (String.split_on_char ',' s)
  in
  Result.bind parsed (fun plan -> Result.map (fun () -> plan) (validate plan))

let plan_to_string p =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        (if p.drop_rate > 0. then Some (Printf.sprintf "drop=%g" p.drop_rate)
         else None);
        (if p.dup_rate > 0. then Some (Printf.sprintf "dup=%g" p.dup_rate)
         else None);
        (if p.reorder_rate > 0. then
           Some (Printf.sprintf "reorder=%g" p.reorder_rate)
         else None);
        (if p.delay_rate > 0. then Some (Printf.sprintf "delay=%g" p.delay_rate)
         else None);
        (if p.delay_rate > 0. then
           Some (Printf.sprintf "spike=%g" p.spike_delay)
         else None);
        Option.map (Printf.sprintf "partition=%g") p.partition_at;
        (if p.partition_at <> None then
           Some (Printf.sprintf "partition-dur=%g" p.partition_for)
         else None);
        Option.map (Printf.sprintf "flap=%g") p.flap_period;
        (if p.flap_period <> None then
           Some (Printf.sprintf "flap-down=%g" p.flap_down)
         else None);
      ]
  in
  if parts = [] then "none" else String.concat "," parts

let pp_plan ppf p = Format.pp_print_string ppf (plan_to_string p)

type message = {
  m_epoch : int;
  m_lsn : int;
  m_payload : string;
  m_sent_at : float;
}

(* In-flight copies, kept sorted lazily at delivery time.  Holding (not
   dropping) messages across a partition or flap-down window is what makes
   the interesting failure mode reachable: records sent by the old primary
   just before it died arrive *after* the standby was promoted, and must be
   fenced by their stale epoch. *)
type inflight = { msg : message; deliver_at : float }

type t = {
  plan : plan;
  rng : Rng.t;
  mutable queue : inflight list;  (* unsorted; sorted on deliver *)
  mutable n_dropped : int;
  mutable n_duplicated : int;
  mutable n_held : int;  (* copies postponed to a heal time *)
}

let create plan rng =
  { plan; rng; queue = []; n_dropped = 0; n_duplicated = 0; n_held = 0 }

(* The link is down inside the one-shot partition window and during the
   trailing [flap_down] slice of every flap period. *)
let down t ~now =
  (match t.plan.partition_at with
  | Some at -> now >= at && now < at +. t.plan.partition_for
  | None -> false)
  ||
  match t.plan.flap_period with
  | Some period ->
    let phase = Float.rem now period in
    phase >= period -. t.plan.flap_down
  | None -> false

(* Earliest instant at or after [now] when the link is up again. *)
let heal_time t ~now =
  let after_partition =
    match t.plan.partition_at with
    | Some at when now >= at && now < at +. t.plan.partition_for ->
      at +. t.plan.partition_for
    | _ -> now
  in
  match t.plan.flap_period with
  | Some period ->
    let phase = Float.rem after_partition period in
    if phase >= period -. t.plan.flap_down then
      after_partition +. (period -. phase)
    else after_partition
  | None -> after_partition

let enqueue_copy t ~now msg =
  let p = t.plan in
  let jitter = base_delay *. Rng.float t.rng in
  let delay = base_delay +. jitter in
  let delay =
    if p.delay_rate > 0. && Rng.float t.rng < p.delay_rate then
      delay +. p.spike_delay
    else delay
  in
  let delay =
    (* reordering: an extra delay long enough to land behind records sent
       several base-delays later *)
    if p.reorder_rate > 0. && Rng.float t.rng < p.reorder_rate then
      delay +. (3. *. base_delay *. (1. +. Rng.float t.rng))
    else delay
  in
  let base = if down t ~now then (t.n_held <- t.n_held + 1; heal_time t ~now) else now in
  t.queue <- { msg; deliver_at = base +. delay } :: t.queue

let send t ~now ~epoch ~lsn ~payload =
  let msg = { m_epoch = epoch; m_lsn = lsn; m_payload = payload; m_sent_at = now } in
  if t.plan.drop_rate > 0. && Rng.float t.rng < t.plan.drop_rate then
    t.n_dropped <- t.n_dropped + 1
  else begin
    enqueue_copy t ~now msg;
    if t.plan.dup_rate > 0. && Rng.float t.rng < t.plan.dup_rate then begin
      t.n_duplicated <- t.n_duplicated + 1;
      enqueue_copy t ~now msg
    end
  end

let deliver t ~now =
  let due, rest =
    List.partition (fun m -> m.deliver_at <= now) t.queue
  in
  t.queue <- rest;
  List.stable_sort
    (fun a b ->
      match compare a.deliver_at b.deliver_at with
      | 0 -> compare a.msg.m_lsn b.msg.m_lsn
      | c -> c)
    due
  |> List.map (fun m -> m.msg)

let in_flight t = List.length t.queue
let dropped t = t.n_dropped
let duplicated t = t.n_duplicated
let held t = t.n_held
