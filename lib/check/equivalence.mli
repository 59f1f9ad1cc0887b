(** Conflict equivalence between two schedules of the same request set.

    Two schedules are conflict-equivalent when they run the same requests
    and order every conflicting pair the same way — the classical definition
    from serialization theory, and exactly the guarantee the parallel
    backend must give: its merged (delivery-order) schedule may interleave
    independent conflict classes arbitrarily, but must agree with the
    sequential admitted order ([rte]) on every conflicting pair.

    The candidate is allowed to be a {e prefix-like subset} of the reference
    (requests admitted but not yet executed when a run's duration elapsed,
    or re-delivered from recovered history after a crash, are simply
    absent). *)

open Ds_model

type violation =
  | Unknown_request of { ta : int; intrata : int }
      (** candidate ran a request the reference never admitted *)
  | Duplicate_delivery of { ta : int; intrata : int }
      (** candidate ran the same request twice *)
  | Conflict_reordered of {
      obj : int;
      first : int * int;  (** earlier in the reference, [(ta, intrata)] *)
      second : int * int;
    }  (** a conflicting pair the candidate runs in the opposite order *)
  | Cross_shard_conflict of {
      obj : int;
      first : int * int;
      second : int * int;
      shard_a : int;  (** lane of [first]'s transaction *)
      shard_b : int;  (** lane of [second]'s transaction *)
    }
      (** only from {!check_sharded}: a conflicting pair whose transactions
          were routed to two distinct shard lanes — the router failed to
          escalate a cross-shard conflict to the global lane, so no lane
          ever ordered it *)

type report = {
  reference_len : int;  (** executed requests (abort markers dropped) *)
  candidate_len : int;
  pairs_checked : int;  (** conflicting pairs examined *)
  violations : violation list;
}

(** [check ~reference ~candidate ()] compares the candidate schedule against
    the reference. Abort markers are dropped from both sides first. *)
val check :
  reference:Request.t list ->
  candidate:Request.t list ->
  unit ->
  report

(** [check_sharded ~shards ~shard_of ~reference ~candidate ()] is {!check}
    plus {e router soundness}: over the same conflicting reference pairs, if
    both transactions were routed ([shard_of ta = Some lane]) to two
    {e distinct} shard lanes (neither being the global lane [shards]), a
    {!constructor-Cross_shard_conflict} violation is reported — per-lane
    SS2PL cannot serialize a conflict no single lane observes. Together
    with per-pair order agreement this certifies global serializability of
    the merged per-shard rte against the admitted order.
    @raise Invalid_argument for [shards < 2]. *)
val check_sharded :
  shards:int ->
  shard_of:(int -> int option) ->
  reference:Request.t list ->
  candidate:Request.t list ->
  unit ->
  report

val is_equivalent : report -> bool
val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit

(** {2 Failover durability}

    After a hot-standby promotion, every transaction the old primary
    {e acknowledged to a client} should still be present in the promoted
    state — modulo the replication mode's contract. A loss at or below the
    standby's watermark is always a bug (the standby acked those records); a
    loss above the watermark is the advertised async-mode window and a bug
    only in sync mode, where commit acks were gated on the watermark. *)

type failover_report = {
  sync : bool;  (** the replication mode the run used *)
  watermark : int;  (** standby watermark at promotion *)
  acked : int;  (** acked transactions checked *)
  survived_acked : int;  (** of those, present in the promoted state *)
  lost_below_watermark : (int * int) list;
      (** lost [(ta, lsn)] with [lsn <= watermark] — always a violation *)
  lost_above_watermark : (int * int) list;
      (** lost [(ta, lsn)] in the lag window — a violation in sync mode *)
}

(** [check_failover ~sync ~watermark ~acked ~survived ()] classifies each
    acked transaction — [(ta, high-water LSN)] pairs, the LSN being that of
    the last record the transaction streamed off the old primary —
    by whether [survived ta] holds in the promoted state and which side of
    the watermark its LSN fell on. *)
val check_failover :
  sync:bool ->
  watermark:int ->
  acked:(int * int) list ->
  survived:(int -> bool) ->
  unit ->
  failover_report

(** No loss below the watermark, and in sync mode no loss at all. *)
val failover_ok : failover_report -> bool

val pp_failover_report : Format.formatter -> failover_report -> unit
