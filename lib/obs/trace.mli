(** Request-lifecycle tracing: a low-overhead event sink threaded through the
    scheduling pipeline (middleware, scheduler, backend, lock manager, native
    simulator).

    Every request is keyed by [(ta, seq)] — transaction number and
    intra-transaction sequence number — and moves through timestamped
    lifecycle events: it is enqueued, drained into the pending relation,
    admitted or deferred by the scheduler (with the blocking conflict),
    dispatched to the server, executed, and finally committed, aborted or
    dead-lettered. Transaction-level events use [seq = -1].

    The sink is designed for zero cost when tracing is off: every emitter
    takes a [t option] and the sink threads a mutable [enabled] flag, so a
    [None] sink (or a disabled one) performs no allocation — the event record
    is only built after both checks pass. All state is append-only and none
    of it consumes randomness, so attaching a sink cannot perturb a seeded
    simulation ("no observer effect"). *)

type kind =
  | Enqueued  (** submitted to the scheduler's incoming queue *)
  | Drained  (** moved from the incoming queue into the pending relation *)
  | Sched_admit  (** qualified by the protocol query; part of this cycle's batch *)
  | Sched_defer
      (** left pending by the protocol query; [arg] is the blocking
          transaction (-1 if no conflicting holder was identified) *)
  | Dispatched  (** handed to the server as part of a batch attempt *)
  | Lock_wait
      (** blocked in the native lock manager; [obj] is the lock, [arg] the
          first blocking transaction *)
  | Lock_grant  (** a previously blocked lock request was granted *)
  | Exec_start
      (** the server began charging service time; [arg] is the pool worker
          id when the backend runs in a {!Ds_server.Worker_pool}, [-1]
          otherwise *)
  | Exec_done  (** the server completed the request *)
  | Commit  (** transaction terminal: committed (client-visible) *)
  | Abort  (** transaction terminal: aborted *)
  | Retry  (** a batch attempt failed; this request will be re-dispatched *)
  | Dead_letter  (** transaction terminal: given up on (poison request) *)
  | Worker_down
      (** a pool worker went down; emitted with [ta = -1], [arg] is the
          worker id, [op] the cause: ['c'] crash, ['d'] death, ['s'] stuck
          (then [obj] is the overdue class) *)
  | Reassign
      (** a conflict class was given to a surviving worker; [ta = -1], [obj]
          is the class id, [arg] the new worker, [op] ['r'] (moved off a
          failed or stuck worker) or ['h'] (hedged copy) *)
  | Checkpoint
      (** the journal wrote a snapshot record; [ta = -1], [arg] is the
          cycle number of the watermark *)
  | Shard_route
      (** the sharding router assigned a transaction to a scheduler lane;
          [seq = -1], [arg] is the lane (shard id, or S for the global
          lane). Only emitted by sharded (S > 1) runs *)
  | Failover
      (** the hot standby was promoted to primary after an injected primary
          crash; [ta = -1], [arg] is the new promotion epoch *)
  | Repl_fence
      (** the standby refused a replicated record from a fenced (stale)
          epoch; [ta = -1], [arg] is the record's epoch *)
  | Repl_divergence
      (** the standby's incremental state hash disagreed with the primary's
          journalled checkpoint hash; [ta = -1], [arg] is the checkpoint
          cycle *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

(** [is_terminal k] — [Commit], [Abort] and [Dead_letter] end a transaction's
    span tree. *)
val is_terminal : kind -> bool

type event = {
  at : float;  (** virtual time (seconds) from the sink's clock *)
  ta : int;
  seq : int;  (** INTRATA; [-1] for transaction-level events *)
  kind : kind;
  op : char;
      (** 'r' / 'w' / 'a' / 'c', the cause for [Worker_down]/[Reassign], or
          ' ' otherwise *)
  obj : int;  (** object touched, [-1] when none *)
  arg : int;  (** kind-specific: blocker TA, retry streak…; [-1] when none *)
  tier : string;  (** SLA tier name, [""] when unknown *)
}

type t

(** [create ()] — an enabled sink. The clock defaults to [fun () -> 0.];
    simulations install their virtual clock with {!set_clock} before
    emitting. [~enabled:false] creates a sink that drops everything (for
    overhead tests). *)
val create : ?enabled:bool -> unit -> t

val set_clock : t -> (unit -> float) -> unit
val now : t -> float
val enabled : t -> bool
val set_enabled : t -> bool -> unit

(** [is_on sink] — true iff the sink exists and is enabled. Emitters use it
    to gate work that only matters when events will actually be recorded
    (e.g. computing the blocking conflict for a deferral). *)
val is_on : t option -> bool

(** [emit sink kind ~ta ~seq …] appends one event timestamped with the
    sink's clock. A [None] or disabled sink is a no-op that allocates
    nothing. *)
val emit :
  t option ->
  kind ->
  ta:int ->
  seq:int ->
  ?op:char ->
  ?obj:int ->
  ?arg:int ->
  ?tier:string ->
  unit ->
  unit

(** [emit_req sink kind r] — request-scoped emission: key, operation, object
    and tier are taken from the request. *)
val emit_req : t option -> ?arg:int -> kind -> Ds_model.Request.t -> unit

(** Transaction-level emission ([seq = -1]). *)
val emit_txn : t option -> ?tier:string -> kind -> ta:int -> unit

val count : t -> int
val events : t -> event list
val clear : t -> unit

val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string
