(** Simulated replication link between the primary scheduler and its hot
    standby: a seeded fault {e plan} over an in-flight message queue.

    The channel mirrors real WAN replication pathologies: records can be
    {b dropped} (recovered by the session's retransmission), {b duplicated},
    {b reordered} (an extra delay lets a later record overtake), hit by
    {b latency spikes}, and the link itself can go down — a one-shot
    {b partition} window or a periodic {b flap}. Down windows {e hold}
    messages until the heal instant rather than dropping them; that is what
    produces the signature failure mode of hot-standby replication: records
    sent by the old primary just before it died arrive {e after} the standby
    was promoted and must be refused by their stale epoch (see
    {!Session.pump}).

    All randomness comes from one {!Ds_sim.Rng} stream, so a seeded run with
    a fixed plan is exactly reproducible. *)

type plan = {
  drop_rate : float;  (** per record: lost in flight (retransmission recovers) *)
  dup_rate : float;  (** per record: a second copy is also delivered *)
  reorder_rate : float;
      (** per record: extra delay long enough to overtake later records *)
  delay_rate : float;  (** per record: latency spike of [spike_delay] *)
  spike_delay : float;  (** extra delay of a spiked record *)
  partition_at : float option;
      (** one-shot partition onset (virtual seconds); in-flight and
          newly-sent records are held until it heals *)
  partition_for : float;  (** partition duration *)
  flap_period : float option;
      (** link flap: every period, the trailing [flap_down] seconds are a
          down window *)
  flap_down : float;  (** down slice per flap period *)
}

(** The zero plan: lossless ordered-ish delivery. Every plan delivers each
    record after a one-way latency floor of 2 ms (virtual), plus jitter. *)
val none : plan

(** The plan's [key=value,...] format: one row per field, each with its
    key, range and help line. The functions below are derived from it. *)
val codec : plan Ds_util.Kv.t

val is_none : plan -> bool

(** {!Ds_util.Kv.validate} over {!codec}. *)
val validate : plan -> (unit, string) result

(** {!Ds_util.Kv.of_string} over {!codec}: unknown keys are errors. *)
val plan_of_string : string -> (plan, string) result

val plan_to_string : plan -> string
val pp_plan : Format.formatter -> plan -> unit

type message = {
  m_epoch : int;  (** sender's promotion epoch at send time *)
  m_lsn : int;  (** the replicated record's LSN (its number in the stream) *)
  m_payload : string;  (** the journal record, unframed *)
  m_sent_at : float;
}

type t

(** [create plan rng] — [rng] drives every probabilistic draw. *)
val create : plan -> Ds_sim.Rng.t -> t

(** [send t ~now ~epoch ~lsn ~payload] puts one record on the wire (possibly
    dropping, duplicating, delaying or holding it per the plan). *)
val send : t -> now:float -> epoch:int -> lsn:int -> payload:string -> unit

(** Due messages at [now], removed from the queue, in delivery order
    (deliver-time, then LSN). The receiver must tolerate gaps, duplicates
    and stale epochs. *)
val deliver : t -> now:float -> message list

(** True iff the link is inside a partition or flap-down window at [now]. *)
val down : t -> now:float -> bool

val in_flight : t -> int
val dropped : t -> int
val duplicated : t -> int

(** Copies that were postponed to a heal time by a down window. *)
val held : t -> int
