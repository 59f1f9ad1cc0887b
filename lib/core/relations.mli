(** The scheduler's database (paper §3.3 and Table 2): a [requests] table of
    pending requests, a [history] table of relevant prior executed requests
    and an [rte] (ready-to-execute) table, all with one schema: the paper's
    attributes in their places, then the request's SLA class and arrival

    {v ID | TA | INTRATA | Operation | Object | sla | weight | arrival v}

    so a row keeps everything a protocol may schedule by (tier name,
    scheduling weight, arrival in seconds), and {!request_of_row} gives back
    exactly the request {!row_of_request} was given.

    Besides those the catalog holds only [dead]. Run decisions that no
    protocol reads (worker placement and supervision, shard routing,
    checkpoints, failovers) are recorded once, as {!Ds_obs.Trace} events;
    the cross-lane delivery order is kept by {!Middleware}. *)

open Ds_model
open Ds_relal

type t = {
  catalog : Ds_sql.Catalog.t;
  requests : Table.t;
  history : Table.t;
  rte : Table.t;
  dead : Table.t;
      (** dead-letter relation: poison requests the middleware gave up on
          after exhausting retries (queryable like the others) *)
}

val create : unit -> t

(** The Table 2 columns, then [sla], [weight] and [arrival]. *)
val schema : Schema.t

(** Rows share their operation, tier and small-integer values. *)
val row_of_request : Request.t -> Value.t array

(** Inverse of {!row_of_request}: the result is {!Request.equal} to the
    request the row was built from.
    @raise Invalid_argument on a malformed row. Rows with negative INTRATA
    decode back to {!Request.abort_marker}s (they live in [history] only). *)
val request_of_row : Value.t array -> Request.t

(** @raise Invalid_argument if given an abort marker — markers belong in
    [history], never in [requests]. *)
val insert_pending : t -> Request.t -> unit

(** Batch variant of {!insert_pending}: one table insert (and one index
    maintenance pass) for the whole list. *)
val insert_pending_batch : t -> Request.t list -> unit
val pending : t -> Request.t list
val history_requests : t -> Request.t list
val pending_count : t -> int
val history_count : t -> int

(** [move_to_history t keys] deletes the pending requests with the given
    (TA, INTRATA) keys and inserts them into [history] (and [rte]); returns
    them in the order given. Each request moves at most once, at the first
    position of its key: a key listed again, or not pending, is ignored.
    Rows are found through the [ta] index, so the cost follows the keys,
    not the pending table's size. *)
val move_to_history : t -> (int * int) list -> Request.t list

(** Removes from [history] all rows of transactions that have a terminal
    operation there. Under SS2PL their locks are gone, so the rows no longer
    influence scheduling; pruning bounds history growth (measured by the
    [history_pruning] ablation). Returns rows removed. Finished
    transactions are found through the operation index and deleted through
    the TA index — O(batch) per cycle, no history scan. *)
val prune_history : t -> int

(** [blocker_lookup t] snapshots which transactions in [history] are
    finished and returns a lookup: for a pending request, the TA of the
    first history request (in insertion order) on the same object that
    conflicts with it and belongs to a transaction without a terminal row —
    one that still holds its locks. Probes the object index, so each lookup
    costs the object's posting, not a history scan. *)
val blocker_lookup : t -> Request.t -> int option

(** The [rte] execution log decoded back into requests, in execution order —
    the schedule the declarative scheduler produced, as consumed by the
    [ds_check] correctness tooling. *)
val rte_requests : t -> Request.t list

(** Appends one row to [history]: a request the protocol must see as
    executed, or an {!Request.abort_marker} releasing a transaction's
    locks. *)
val insert_history : t -> Request.t -> unit

(** Appends rows to [rte] without touching [requests] (used by tests). *)
val insert_rte : t -> Request.t list -> unit

(** Dead-letter relation: requests the middleware gave up on (see
    {!Scheduler.dead_letter}). *)
val insert_dead : t -> Request.t -> unit

val dead_requests : t -> Request.t list
val dead_count : t -> int

val clear : t -> unit
