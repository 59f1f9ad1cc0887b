(** In-memory mutable tables with incrementally maintained indexes.

    Rows are value arrays matching the table schema, stored in slots that are
    never reused: [delete_where] tombstones the slot, and the table compacts
    itself in place (remapping index entries rather than rebuilding) once at
    least half the slots are dead. The one index kind is a hash index: a
    per-key posting list of slots, updated in place on every insert/update.
    An index is built from scratch only on its first probe and after
    {!clear}. *)

type t

val create : name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

(** Number of live rows. *)
val row_count : t -> int

(** Cumulative wall-clock seconds spent on index maintenance (incremental
    updates, lazy builds, compaction, change-feed
    subscribers such as {!View} upkeep) across all tables since start-up;
    nested sections count once. Also reported per section through
    {!Profile.set_section_observer} under the label ["index-maintenance"]. *)
val maintenance_time : unit -> float

(** @raise Invalid_argument on arity mismatch with the schema. *)
val insert : t -> Value.t array -> unit

(** Batch insert: rows are appended first, then every built index is updated
    in one maintenance pass (one timing section per batch, not per row). *)
val insert_many : t -> Value.t array list -> unit

(** [delete_where t p] removes rows satisfying [p]; returns how many.
    Deletion tombstones the row slots — O(1) index work per row — and
    triggers an in-place compaction when at least half the slots (and more
    than 64) are dead. *)
val delete_where : t -> (Value.t array -> bool) -> int

(** [delete_by_key t cols key p] deletes the rows matching [key] on the hash
    index over [cols] that also satisfy [p]; returns how many. Equivalent to
    [delete_where] with a conjunctive key test, but costs O(posting) instead
    of a full scan.
    @raise Invalid_argument if no such index was declared. *)
val delete_by_key :
  t -> int list -> Value.t list -> (Value.t array -> bool) -> int

(** [update_where t p f] applies the in-place mutation [f] to each row
    satisfying [p]; returns how many rows were touched. Hash-index postings
    are moved between keys exactly. *)
val update_where : t -> (Value.t array -> bool) -> (Value.t array -> unit) -> int

(** Removes every row; the change feed reports each of them as removed. *)
val clear : t -> unit

(** [subscribe t f] adds [f] to [t]'s change feed: after every mutation that
    changed rows, [f ~added ~removed] receives the rows it inserted and the
    rows it took out, in slot order. [update_where] reports a copy of each
    row as it was before the update as removed and the updated row itself as
    added. The rows are the table's own arrays: a subscriber that keeps one
    must copy it, since [update_where] changes rows in place. Subscribers run
    inside the mutation's ["index-maintenance"] section. A table without
    subscribers pays one check per mutation. *)
val subscribe :
  t -> (added:Value.t array list -> removed:Value.t array list -> unit) -> unit

(** Snapshot of live rows in insertion order. *)
val rows : t -> Value.t array list

val iter : (Value.t array -> unit) -> t -> unit
val fold : ('acc -> Value.t array -> 'acc) -> 'acc -> t -> 'acc

(** [create_index t cols] declares an index on the column positions [cols]
    (leftmost significant). Duplicate declarations are no-ops. *)
val create_index : t -> int list -> unit

val has_index : t -> int list -> bool

(** [probe t cols key] returns all rows whose [cols] values equal [key], in
    insertion order, using the index (built on demand).
    @raise Invalid_argument if no such index was declared. *)
val probe : t -> int list -> Value.t list -> Value.t array list
