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

let codec =
  let open Ds_util.Kv in
  let delay =
    row Rate "delay" "a record's latency spikes"
      (fun p -> p.delay_rate)
      (fun p v -> { p with delay_rate = v })
  in
  let partition =
    row Time "partition" "the link goes down once, at that virtual time"
      (fun p -> p.partition_at)
      (fun p v -> { p with partition_at = v })
  in
  let flap =
    row Period "flap" "the link goes down at the end of every period"
      (fun p -> p.flap_period)
      (fun p v -> { p with flap_period = v })
  in
  {
    what = "link fault";
    none;
    rows =
      [
        row Rate "drop" "a record is lost in flight"
          (fun p -> p.drop_rate)
          (fun p v -> { p with drop_rate = v });
        row Rate "dup" "a record is delivered twice"
          (fun p -> p.dup_rate)
          (fun p v -> { p with dup_rate = v });
        row Rate "reorder" "a record is delayed past later ones"
          (fun p -> p.reorder_rate)
          (fun p v -> { p with reorder_rate = v });
        delay;
        row ~gate:delay Seconds "spike"
          "the extra delay of a spiked record, over the 2 ms floor"
          (fun p -> p.spike_delay)
          (fun p v -> { p with spike_delay = v });
        partition;
        row ~gate:partition Seconds "partition-dur"
          "how long the partition lasts"
          (fun p -> p.partition_for)
          (fun p v -> { p with partition_for = v });
        flap;
        row ~gate:flap Seconds "flap-down" "how long each flap is down"
          (fun p -> p.flap_down)
          (fun p v -> { p with flap_down = v });
      ];
  }

let is_none = Ds_util.Kv.is_none codec
let validate = Ds_util.Kv.validate codec
let plan_of_string = Ds_util.Kv.of_string codec
let plan_to_string = Ds_util.Kv.to_string codec
let pp_plan = Ds_util.Kv.pp codec

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
