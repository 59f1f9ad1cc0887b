(** Standing plans: a long-lived plan compiled once into a runner that
    answers, on each call, what {!Eval.run} of the same plan answers against
    the tables as they are then — the same rows in the same order.

    Every keyed inner, semi or anti join reads its right side in one of two
    ways, chosen per join and per run from live sizes:

    - {b per key.} When the right side is a chain of [Scan], [Filter],
      [Project], [Distinct], [Union]/[Union_all] and keyed semi/anti joins
      without a residual, over tables with a hash index on some of the key's
      columns, each left row probes it (sideways information passing): the
      key goes down through projections by substitution, each scan walks
      the posting of the usable index with the most keys (allocating
      nothing, see {!Table.walk}) and tests the key's other columns, and
      each nested semi/anti join tests its rows key by key, stopping at the
      first match.
    - {b whole.} The right side runs once and its rows are filed by key. A
      filter pinning an indexed column to constants ([col = c], an OR of
      such tests, [col IN (...)]) walks those keys' postings instead of the
      table.

    Reading whole costs the rows it walks: a table's live rows, or the
    postings of the constants. A join whose left side's size is known (a
    scan, a filter on constant keys) reads whole when that walks fewer rows
    than will probe it, and probes otherwise. A join nested in a probed
    chain probes while the rows its probes walked stay below that cost, then
    reads whole, once, for the rest of the run: at most twice the cheaper
    of the two. No threshold to tune. With {!Eval.use_table_indexes} off,
    every right side is read whole by scans. State a run builds is dropped
    when it ends.

    A key of one or two int-valued columns is one int ({!Value.pack_pair});
    other keys are looked up by value; a key with a NULL matches nothing.
    Filters, keys and projections are compiled into closures once; any
    expression that might raise, and any node without a compiled form
    ([Cross], [Left] and keyless joins, [Group], [Values]), runs in {!Eval},
    the reference, which also stays the evaluator of one-off queries. *)

(** [standing plan] compiles [plan] once into a runner for many calls, such
    as a scheduler's protocol query. *)
val standing : Ra.plan -> unit -> Value.t array list

(** How a compiled plan reads a base table: every live row, or by a hash
    index on [cols], keyed by constants of the plan or by the rows of the
    named table that lead the probing (a nested probe inherits the table
    that leads its outermost probe). *)
type access = Whole | Probe of int list * [ `Const | `Rows_of of string ]

(** [on_demand] reads happen only in a run whose per-key probes of the
    same join walked at least as many rows. *)
type read = { table : string; access : access; on_demand : bool }

(** [reads plan] lists the reads of [plan] compiled as {!standing} does,
    with indexes on. *)
val reads : Ra.plan -> read list
