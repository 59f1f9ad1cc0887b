(** Plan evaluation (materializing executor).

    Rows flow as value arrays. [env] is the stack of outer rows for
    correlated subqueries: [Ra.Outer (1, i)] reads column [i] of the head.

    Comparisons follow SQL three-valued logic: any comparison with NULL is
    NULL; [Filter] keeps rows whose predicate is exactly TRUE. *)

(** Rows as hash keys, compared with {!Value.equal} column by column (the
    equality of DISTINCT, set operations and hash joins). *)
module Row_key : Hashtbl.HashedType with type t = Value.t array

module Row_tbl : Hashtbl.S with type key = Value.t array

(** [run ?env plan] evaluates and materializes the result rows in order. *)
val run : ?env:Value.t array list -> Ra.plan -> Value.t array list

(** [candidates ?env pred p] — the rows a [Filter (pred, p)] tests [pred]
    on, in [p]'s order. Over a base-table scan, a [col = const] conjunct on a
    hash-indexed column probes that index; otherwise all of [p]. Range
    predicates always test every row of [p]. *)
val candidates : ?env:Value.t array list -> Ra.expr -> Ra.plan -> Value.t array list

(** [eval_expr ?env ~row e] evaluates a scalar expression against [row]. *)
val eval_expr : ?env:Value.t array list -> row:Value.t array -> Ra.expr -> Value.t

(** [truthy v] is true iff [v] is [Bool true] (SQL WHERE semantics). *)
val truthy : Value.t -> bool

(** When true (the default), a hash join whose right side is a base-table
    scan with a declared index on exactly the join columns probes that index
    instead of building an ephemeral hash table, and a filter over a
    base-table scan probes a hash index (see {!candidates}). The
    persistent index is shared by every probe of the table within a query
    (Listing 1 reads [history]'s operation index four times), and across
    queries until the table changes. Tests toggle it off to compare with
    plain scans. *)
val use_table_indexes : bool ref
