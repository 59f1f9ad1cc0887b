(** A hot-standby replication session: the primary scheduler's journal is
    tapped record-by-record ({!Ds_core.Journal.set_sink}), streamed over a
    faulty {!Link}, and replayed on the standby side into a warm mirror
    journal that stays a byte-prefix of the primary's.

    The protocol is a cumulative-ack sliding window: the standby applies
    records strictly in LSN order (out-of-order arrivals wait in a reorder
    buffer), the {e watermark} is the highest contiguous LSN applied, and
    the primary retransmits past an RTO only the records the standby lacks:
    neither at or below the watermark (cumulative ack) nor held in its
    reorder buffer (selective ack). Sends are kept in a queue in send
    order, so a pump looks only at records whose RTO has run out — drops,
    duplicates and reorderings are all absorbed, and retransmissions track
    the records lost rather than the records outstanding. LSNs number the
    streamed records contiguously; a checkpoint block's entries and
    [C END] are not streamed. A checkpoint travels as its [C BEGIN] record: the standby
    writes its own block from its replayed mirror
    ({!Ds_core.Journal.append_checkpoint}) and checks that its [C BEGIN]
    equals the streamed one. The ['H'] record after it carries the
    primary's state-mirror hash, which the standby compares against its own
    mirror ({e divergence detection}).

    {!promote} turns the standby into the new primary: its journal is
    resumed (torn tail repaired), stamped with a fresh monotonic
    {e promotion epoch} ['E' record] by {!Ds_core.Journal.promote}, and
    handed to the middleware to continue the run. From that instant every late arrival from the old
    primary — typically records held across a partition that outlived it —
    is {e fenced} by its stale epoch and refused.

    In [Sync] mode the middleware holds terminal commit acknowledgements
    until the committing transaction's journal records are at or below the
    watermark ({!synced}) — zero admitted-transaction loss across failover.
    In [Async] mode acks return immediately and a failover may lose at most
    the records above the watermark (the lag, which {!Middleware} reports). *)

open Ds_core

type mode = Async | Sync

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type t

(** [create ~mode ~plan ~seed ~dir ()] starts a session journalling the
    standby mirror into [dir/standby.journal] ([dir] is created, gets a
    [REPL] manifest recording the mode, and a stale standby file is
    overwritten). [seed] drives the link's fault draws. *)
val create :
  mode:mode ->
  plan:Link.plan ->
  seed:int ->
  ?trace:Ds_obs.Trace.t ->
  dir:string ->
  unit ->
  t

(** Installs the replication tap on the primary's journal (and enables
    hash-stamped checkpoints on it). Call before the run starts. *)
val attach : t -> Journal.t -> unit

(** The virtual clock used to timestamp sends and drive the RTO. *)
val set_clock : t -> (unit -> float) -> unit

(** Deliver due messages, apply the contiguous prefix to the standby,
    advance the watermark, check divergence hashes and retransmit lost
    records. Driven periodically by the middleware's engine. *)
val pump : t -> now:float -> unit

(** Sync-mode commit gate: true iff every journal record of transaction
    [ta] is at or below the standby's watermark. *)
val synced : t -> ta:int -> bool

(** Promote the standby to primary (see module doc): closes the standby
    journal, drops the retransmission state and promotes the file past
    both the session's epoch and the highest one it replays. Returns the
    recovered standby state and the reopened journal, its new epoch
    already stamped and flushed; {!epoch} reads that epoch.
    @raise Invalid_argument if already promoted. *)
val promote : t -> Middleware.repl_promotion

(** Flush the standby mirror (end of a run that never failed over, so
    [dsched failover] can promote the directory offline later). *)
val finish : t -> unit

(** Flush and close the standby journal (no-op after {!promote}). *)
val close : t -> unit

(** {2 Session directories} *)

(** True iff [dir] holds a session's [REPL] manifest — how the CLI
    recognizes a promotable standby directory. *)
val is_repl_dir : string -> bool

(** The mode recorded in [dir]'s manifest.
    @raise Failure on a missing or malformed manifest. *)
val mode_of_dir : string -> mode

val dir : t -> string
val standby_path : t -> string

(** The standby journal path a session rooted at [dir] would use
    ([dir/standby.journal]) — for offline tooling that works on a session
    directory without a live session. *)
val standby_path_of : string -> string

(** {2 Observability} *)

val mode : t -> mode
val epoch : t -> int

(** LSN of the last record streamed off the primary: the number of records
    streamed so far. That is the primary journal's record count minus its
    checkpoint entries and [C END] records, which never travel. *)
val primary_lsn : t -> int

val watermark : t -> int

(** [primary_lsn - watermark]: records the standby has not yet acked — the
    async-mode loss bound at any instant. *)
val lag : t -> int

(** Stale-epoch records refused after a promotion. *)
val fenced : t -> int

(** Checkpoint mismatches between primary and standby: a state hash that
    differs, or a [C BEGIN] record the standby wrote that differs from the
    streamed one. *)
val divergences : t -> int

val retransmits : t -> int

(** Duplicate deliveries ignored at or below the watermark. *)
val stale_deliveries : t -> int

(** Checkpoint hashes compared so far. *)
val hash_checks : t -> int

val promoted : t -> bool
val link : t -> Link.t

(** [(ta, lsn)] per transaction streamed: the highest LSN among its ['Q']
    records — what {!Ds_check.Equivalence.check_failover} takes as [acked]
    once filtered to client-acknowledged transactions. *)
val ta_lsns : t -> (int * int) list

(** The {!Ds_core.Middleware.repl_hooks} closure record over this session —
    what [Middleware.config.repl] takes. *)
val hooks : t -> Middleware.repl_hooks
