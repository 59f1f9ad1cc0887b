(** Write-ahead journal for the scheduler state.

    In the paper's architecture the request relations live in a DBMS and are
    durable; our embedded relations are not, so a middleware crash would lose
    the pending backlog. The journal records every state transition as one
    line:

    {v
    S id,ta,intrata,op,obj,sla,arrival    request submitted (Trace format)
    Q ta intrata [gseq]                   request qualified -> history
    A ta                                  transaction aborted by the scheduler
    D id,ta,intrata,op,obj,sla,arrival    request dead-lettered (poison)
    P                                     history pruned
    E epoch                               promotion epoch (failover fencing)
    H cycle hash                          state hash (replication divergence)
    v}

    The optional third [Q] field is the {e global admission sequence}
    (gseq), written only by sharded runs ({!log_qualified_stamped}): each
    scheduler lane journals into its own segment, and the gseq is the merge
    key that lets {!recover} reassemble one continuous rte across
    segments. Unsharded journals keep the 2-field record byte-for-byte.

    Every record is framed as [!crc32 payload] (8 lowercase hex digits), so
    recovery can tell a torn or corrupted record from a valid one instead of
    trusting whatever parses. Recovery reads framed records only: an
    unframed line counts as corrupt.

    Periodic {e checkpoints} snapshot the journal's logical state as a block
    of framed lines ([C BEGIN cycle lines] / [c P|H|G|A|D entry]* /
    [C END n] — [c G gseq request] is a history entry carrying its admission
    stamp), where [lines] counts the journal lines preceding the block.
    Recovery locates the last block by a backward byte scan, reads {e only}
    the tail from that point, loads the snapshot and replays the suffix —
    recovery work is proportional to live state plus the tail written since
    the last checkpoint, not to journal length.

    Recovery replays a journal — possibly truncated mid-write by a crash —
    into a fresh relation set: submitted-but-unqualified requests are pending
    again, qualified ones are back in history. A checksum-invalid tail is
    dropped (and physically truncated with [~repair:true]); a checksum
    mismatch {e followed by valid records} is mid-file rot and raises
    [Failure]. The replay is protocol-independent: scheduling decisions are
    facts in the log, not re-derived. *)

open Ds_model

type t

type recovered = {
  pending : Request.t list;  (** submitted, not yet qualified, not aborted *)
  history : Request.t list;  (** qualified, in qualification order *)
  history_stamped : (Request.t * int option) list;
      (** [history] paired with each entry's global admission sequence when
          the journal recorded one ([None] for unsharded journals) *)
  aborted : int list;  (** transactions aborted by the middleware *)
  dead : Request.t list;  (** dead-lettered (poison) requests *)
  replayed : int;  (** journal lines applied (suffix only when a checkpoint was used) *)
  checkpoint_cycle : int option;
      (** watermark of the checkpoint the recovery started from, if any *)
  skipped : int;  (** journal lines before the checkpoint, not replayed *)
  corrupt_dropped : int;  (** torn/corrupt tail lines dropped *)
  valid_bytes : int;  (** length of the trusted prefix, in bytes *)
  valid_lines : int;
      (** newline-terminated lines in the trusted prefix; {!open_} with
          [~state] resumes its line count from here *)
  epoch : int;
      (** highest promotion epoch replayed (['E'] records); [0] for a
          journal that never went through a failover *)
}

(** [open_ path] starts a fresh journal at [path]: an existing file is
    overwritten, so a new run never inherits a previous run's records. With
    [~sync:true], every {!flush} additionally calls [Unix.fsync], so a
    process kill cannot lose a cycle the scheduler already acknowledged.

    The writer mirrors the journal's logical state so {!checkpoint} can
    snapshot it. [open_ ~state path] instead appends to the journal that
    [state] was recovered from, seeding the mirror (and the line count that
    checkpoint blocks record) from it. Recover with [~repair:true] first, so
    the file ends at the trusted prefix the state describes: {!resume} does
    both. *)
val open_ : ?sync:bool -> ?state:recovered -> string -> t

(** [resume path] continues the journal at [path] after a crash: it
    recovers the file with [~repair:true], so a torn tail is cut off, and
    reopens it with [~state] to append after the trusted prefix. Returns
    what was recovered and the reopened journal. [~sync] is as for
    {!open_}. *)
val resume : ?sync:bool -> string -> recovered * t

(** [promote ~after path] turns the journal at [path] into a new primary's:
    it {!resume}s it, then writes and flushes the promotion epoch
    [max after replayed + 1], where [replayed] is the highest epoch the
    recovery found and [after] the highest the caller has seen. The
    reopened journal does not fsync. *)
val promote : after:int -> string -> recovered * t

val close : t -> unit
val log_submit : t -> Request.t -> unit
val log_qualified : t -> (int * int) list -> unit

(** Sharded variant of {!log_qualified}: each key carries its global
    admission sequence number, persisted as a 3-field [Q] record. The gseq
    is the cross-segment merge key for {!recover}. *)
val log_qualified_stamped : t -> ((int * int) * int) list -> unit

val log_abort : t -> int -> unit

(** Records a dead-lettered (poison) request so recovery keeps it out of
    pending and in the dead relation. *)
val log_dead : t -> Request.t -> unit

(** Records a history prune. The writer's state mirror drops finished
    transactions (terminal op in history, abort markers included) exactly
    like [Relations.prune_history], so later checkpoints snapshot the
    {e live} relation state — bounded by the active-transaction count — not
    the full log. Replaying the ['P'] record itself is a no-op: a
    checkpoint-free replay keeps the complete history so a restored [rte]
    log spans the whole run. *)
val log_prune : t -> unit

(** [checkpoint t ~cycle] writes a snapshot block of the journal's current
    logical state (pending, history, aborts, dead letters) with [cycle] as
    its watermark. Recovery replays only what follows the last complete
    block. The entries come from request lines the writer already holds:
    each request is formatted once, when it enters the mirror, and a
    checkpoint formats none. The caller is responsible for {!flush}ing.

    Of the block, only the [C BEGIN] record reaches the {!set_sink} tap
    (followed by the ['H'] record when {!set_hash_checkpoints} is on): a
    standby writes the entries and [C END] itself ({!append_checkpoint}). *)
val checkpoint : t -> cycle:int -> unit

(** True when no block was written through this handle yet, or when the
    bytes written since the last block have reached that block's size.
    Checkpointing only when due keeps the bytes spent on blocks at or below
    the record bytes plus one block, and a recovery's suffix about one block
    long. *)
val checkpoint_due : t -> bool

(** Snapshot blocks written through this handle. *)
val checkpoints_written : t -> int

(** {2 Replication hooks}

    A replication session taps the primary's journal writer with
    {!set_sink} and applies the streamed records on the standby side with
    {!append_raw}, rebuilding each checkpoint block locally with
    {!append_checkpoint}; {!state_hash} + hash-stamped checkpoints
    ({!set_hash_checkpoints}) give both ends a cheap divergence witness,
    and ['E'] epoch records ({!log_epoch}) fence stale-primary writes. *)

(** [set_sink t f] installs a replication tap: [f payload] fires for every
    record of the log written through [t] — every record except a
    checkpoint block's [c …] entries and its [C END], which a standby
    writes from its own mirror. The caller numbers the records it is
    handed; the numbers are not file line numbers. *)
val set_sink : t -> (string -> unit) -> unit

(** Enables the ['H cycle hash'] record after each checkpoint block: the
    CRC32 of the writer mirror's canonical serialization. Off by default so
    unreplicated journals stay byte-identical to previous versions
    (replaying ['H'] is always a no-op). *)
val set_hash_checkpoints : t -> bool -> unit

(** CRC32 over the writer mirror's canonical serialization — equal on
    primary and standby iff their replayed states agree. *)
val state_hash : t -> int

(** [append_raw t payload] applies one replicated record to the writer
    mirror with {e writer} semantics (['P'] prunes the mirror exactly like
    {!log_prune} on the primary did) and appends the identical framed line,
    so the standby file stays a byte-prefix of the primary's.
    @raise Failure on a malformed record or a fenced stale epoch. *)
val append_raw : t -> string -> unit

(** [append_checkpoint t ~cycle begin_] is the standby side of a streamed
    checkpoint: [begin_] is the primary's [C BEGIN cycle lines] record.
    Writes this journal's own checkpoint block at [cycle] from its replayed
    mirror (as {!checkpoint}) and tells whether the [C BEGIN] record it
    wrote equals [begin_]. It does not when the two files' line counts
    differ, i.e. the standby file is no longer a prefix of the primary's. *)
val append_checkpoint : t -> cycle:int -> string -> bool

(** [log_epoch t e] stamps promotion epoch [e] (an ['E'] record). Replay
    fences: an ['E'] record with a lower epoch than the replay state already
    carries raises [Failure] — a stale primary from a fenced old epoch
    cannot sneak its writes past a promotion. *)
val log_epoch : t -> int -> unit

(** The writer mirror's current promotion epoch. *)
val writer_epoch : t -> int

(** CRC32 (IEEE 802.3) of a string — the checksum in every record frame. *)
val crc32 : string -> int

(** Flushes buffered entries to the OS (called by the scheduler at the end of
    every cycle); fsyncs too when the journal was opened with [~sync:true]. *)
val flush : t -> unit

(** Bytes known durable — the journal size as of the last {!flush}. Used by
    the kill-point recovery property to enumerate crash offsets. *)
val size : t -> int

(** Simulates a middleware crash: closes the channel and truncates the file
    back to the last flushed position, discarding entries a real crash would
    have lost from the channel buffer. The journal is unusable afterwards;
    continue with {!resume} and {!restore}. *)
val crash : t -> unit

(** [lane_paths path ~shards] are the journals of a run's lanes: [[path]]
    at [shards = 1]; otherwise [path] becomes a segment directory (made if
    missing) and the result is its segments, shards [0..S-1] followed by
    the global lane. Only this module tells the two layouts apart.
    @raise Invalid_argument for [shards < 1]. *)
val lane_paths : string -> shards:int -> string list

(** A fresh temporary journal name for a run with [shards] shards, whose
    name starts with the given prefix; {!lane_paths} lays it out. *)
val temp_path : shards:int -> string -> string

(** Replays a journal of either layout: the merge of {!recover_segments}.

    A journal file replays from the last checkpoint block that loads. One
    locator finds the blocks: a backward byte scan for the last [C END] and
    the [C BEGIN] before it. The block is loaded forward from its
    [C BEGIN] and must end in a [C END] whose count matches; then the
    records after it replay, and [skipped] is the line count its
    [C BEGIN] records. A block that does not load (torn or corrupt) sends
    the scan to the bytes before its [C BEGIN], so an earlier block is
    tried; when no block loads, the whole file replays from its first line.

    A tail of unframed or checksum-invalid lines is dropped and
    reported in [corrupt_dropped]/[valid_bytes]; with [~repair:true] the
    file is also truncated to the trusted prefix so a subsequent append
    cannot bury garbage between valid records. Corruption in the {e middle}
    of the file (a bad line with checksum-valid records after it, or a
    checksum-valid record that does not parse) raises [Failure]. *)
val recover : ?repair:bool -> string -> recovered

(** Transactions with at least one ['Q'] (executed) record in the journal
    file's continuous log, ascending. Checkpoint-block copies do not count:
    this is what a failover audit asks of a promoted standby journal. *)
val qualified_tas : string -> int list

(** Per-segment recovery results in lane order, keyed by segment basename
    ([shard-<i>.journal], [global.journal]), and their merge; a journal
    file is its own one segment. Missing segment files recover as empty (a
    lane that never journaled anything). [~repair] is applied per segment,
    so a torn tail in one segment never blocks recovery of its siblings; a
    segment's mid-file corruption [Failure] is prefixed with its basename.
    The merge interleaves histories by gseq (stable — unstamped legacy
    entries sort last in lane order), concatenates pending, aborted and
    dead in lane order, sums counters, and takes the max [checkpoint_cycle]
    and [epoch]. @raise Failure on a malformed manifest. *)
val recover_segments :
  ?repair:bool -> string -> (string * recovered) list * recovered

(** Deletes a journal of either layout: a file, or a segment directory's
    segments, manifest and the directory itself. Missing pieces are
    ignored. *)
val remove : string -> unit

(** Rebuilds a relation set from a recovery result: pending requests are
    reinserted into [requests]; the history is restored in order, with abort
    markers for aborted transactions; dead-lettered requests go to the dead
    relation. With [~rte:true] the recovered history is also replayed into
    [rte], so the execution log stays continuous across a mid-run crash
    (used by the live-recovery path in {!Middleware}). *)
val restore : ?rte:bool -> recovered -> Relations.t -> unit
