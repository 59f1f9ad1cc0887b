(** In-memory mutable tables with incrementally maintained indexes.

    Rows are value arrays matching the table schema, stored in slots that are
    never reused: [delete_where] tombstones the slot, and the table compacts
    itself in place (remapping index entries rather than rebuilding) once at
    least half the slots are dead. The one index kind is a hash index: a
    per-key posting list of slots, updated in place on every insert/update.
    A key that packs into an int under {!Value.pack_pair}'s rule (one
    int-valued column, or two that fit 31 bits) is filed in an int-keyed
    table, which a {!walk} reaches without allocating; any other key (a
    NULL, a text, a wide or non-integral number, three or more columns) is
    filed by its values. An index is built from scratch only on its first
    probe and after {!clear}. *)

type t

val create : name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

(** Number of live rows. *)
val row_count : t -> int

(** Cumulative wall-clock seconds spent on index maintenance (incremental
    updates, lazy builds, compaction) across all tables since start-up. Also
    reported per section through {!Profile.set_section_observer} under the
    label ["index-maintenance"]. *)
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

(** [delete_by_keys t cols keys] deletes, for each [(key, p)] of [keys] in
    turn, the rows matching [key] on the hash index over [cols] that [p]
    accepts ([p] sees each such live row once, in insertion order, and may
    keep state); returns how many. Equivalent to [delete_where] with a
    conjunctive key test, but costs O(postings) instead of a full scan.
    @raise Invalid_argument if no such index was declared. *)
val delete_by_keys :
  t -> int list -> (Value.t list * (Value.t array -> bool)) list -> int

(** [update_where t p f] replaces each row satisfying [p] by a copy that the
    mutation [f] has updated; returns how many rows were touched. A row
    array, once in the table, never changes. Hash-index postings are moved
    between keys exactly. *)
val update_where : t -> (Value.t array -> bool) -> (Value.t array -> unit) -> int

(** Removes every row. *)
val clear : t -> unit

(** Snapshot of live rows in insertion order. *)
val rows : t -> Value.t array list

val iter : (Value.t array -> unit) -> t -> unit

(** [create_index t cols] declares an index on the column positions [cols]
    (leftmost significant). Duplicate declarations are no-ops. *)
val create_index : t -> int list -> unit

val has_index : t -> int list -> bool

(** Builds every declared index that is not built yet: after {!clear},
    say, where the first probe would otherwise pay for it. *)
val build_indexes : t -> unit

(** [probe t cols key] returns all rows whose [cols] values equal [key], in
    insertion order, using the index (built on demand).
    @raise Invalid_argument if no such index was declared. *)
val probe : t -> int list -> Value.t list -> Value.t array list

(** A declared hash index, handed out for walking its postings. *)
type index

(** [index t cols] is the index declared on exactly [cols], if any. *)
val index : t -> int list -> index option

(** The column lists of [t]'s declared indexes. *)
val index_cols : t -> int list list

(** [posting_length ix key] is the number of slots filed under [key] (one
    value per index column), dead ones included: what walking it costs. *)
val posting_length : index -> Value.t array -> int

(** The number of distinct keys filed in the index. *)
val key_count : index -> int

(** [walk ix key f a] applies [f a] to each live row whose index columns
    equal [key]'s values, in insertion order, until [f] returns true;
    returns whether it did. Builds the index if needed, and otherwise
    allocates nothing when the key packs into an int. *)
val walk : index -> Value.t array -> ('a -> Value.t array -> bool) -> 'a -> bool

(** [walk_keys ix keys f a] is {!walk} over the rows filed under any of the
    distinct [keys], merged into insertion order. *)
val walk_keys : index -> Value.t array list -> ('a -> Value.t array -> bool) -> 'a -> bool
