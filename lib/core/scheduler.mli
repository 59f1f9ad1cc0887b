(** The declarative scheduler core: incoming queue, scheduler relations and
    one protocol, executing the cycle of §3.3/§4.3.1:

    + drain the incoming queue into the pending-requests table,
    + run the protocol query against [requests] + [history],
    + move the qualified requests to [history] (and [rte]), delete them from
      [requests],
    + hand the qualified requests back in execution order.

    Every phase is wall-clock timed; those timings are the declarative
    scheduling overhead the paper estimates in §4.3.2. *)

open Ds_model

type phase_times = {
  drain_insert : float;  (** queue -> pending table *)
  query : float;  (** protocol evaluation *)
  move : float;
      (** everything after the query: exactly
          [history +. journal +. checkpoint] *)
  history : float;
      (** part of [move]: delete from pending, insert into history/rte,
          prune the relations, trace admits and deferrals *)
  journal : float;
      (** part of [move]: append the cycle's records to the journal, then
          flush (and fsync) it *)
  checkpoint : float;
      (** part of [move]: the checkpoint block, its state hash and its
          trace event *)
}

(** [drain_insert +. query +. move]; [move]'s parts are not added again. *)
val total_time : phase_times -> float

type cycle_stats = {
  drained : int;
  pending_before : int;
  history_before : int;
  qualified : int;
  times : phase_times;
  index_time : float;
      (** seconds of index maintenance (incremental updates, lazy builds,
          merges, compaction) inside this cycle; contained within the phase
          times above, so it is NOT added to {!total_time}. *)
}

type t

(** [journal] (optional) records every submit, qualification, abort and
    prune, flushed at the end of each cycle; see {!Journal}.

    [checkpoint_every] (optional, requires [journal]) is the minimum
    spacing of journal checkpoint blocks: at the end of a cycle that is a
    multiple of N, a block is written (with a [checkpoint] trace event)
    when {!Journal.checkpoint_due} holds — the records written since the
    last block have reached its size. Recovery then replays only the
    journal suffix written since the last snapshot.
    @raise Invalid_argument if non-positive.

    [trace] (optional) receives lifecycle events ([enqueued], [drained],
    [sched_admit], [sched_defer], [dead_letter], [abort]); see
    {!Ds_obs.Trace}. At most one terminal event is emitted per transaction.

    [stamp] (optional) is called once per qualified request, in admission
    order, and must return its global admission sequence number — the hook
    sharded runs use to stamp one scheduler lane's admissions into the
    run-wide order. When set, journaled qualifications use the 3-field
    [Q ta intrata gseq] record ({!Journal.log_qualified_stamped}); stamps
    are drawn even without a journal so the merged order exists either
    way. *)
val create :
  ?prune_history_each_cycle:bool ->
  ?journal:Journal.t ->
  ?checkpoint_every:int ->
  ?trace:Ds_obs.Trace.t ->
  ?stamp:(Ds_model.Request.t -> int) ->
  Protocol.t ->
  t

val relations : t -> Relations.t
val protocol : t -> Protocol.t

(** Enqueue an incoming request (client-worker side, Figure 1). *)
val submit : t -> Request.t -> unit

(** Overload-protected submit: when the incoming queue already holds
    [capacity] requests, either the least urgent queued request is shed to
    make room (only if the incoming request is strictly more urgent —
    returned as [`Accepted_shed victim]) or the incoming request is turned
    away with [`Rejected] (backpressure; nothing is journalled for it, so
    the client can resubmit later). [capacity] must be positive. *)
val submit_bounded :
  t ->
  capacity:int ->
  Request.t ->
  [ `Accepted | `Accepted_shed of Request.t | `Rejected ]

(** Gives up on a (poison) request: journals a [D] record, removes it from
    pending if it is still there, and inserts it into the dead relation.
    The caller is expected to also {!abort_txn} the transaction. *)
val dead_letter : t -> Request.t -> unit

val queue_length : t -> int

(** Pending requests in the scheduler database (not the incoming queue). *)
val pending_count : t -> int

(** Runs one scheduler cycle. The paper's non-scheduling mode (§3.3) is the
    {!Builtin.fcfs} protocol: every pending request qualifies, in arrival
    order. *)
val cycle : t -> Request.t list * cycle_stats

(** [abort_txn t ta] removes the transaction's pending requests and records
    an {!Request.abort_marker} in [history], releasing its logical locks.
    Returns the number of pending requests dropped. Used by the middleware's
    timeout handling. *)
val abort_txn : t -> int -> int

(** Cycles run so far. *)
val cycles_run : t -> int

(** Cumulative wall-clock phase times across cycles. *)
val cumulative_times : t -> phase_times
