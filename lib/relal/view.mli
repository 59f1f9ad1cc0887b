(** Incrementally maintained views: the stateful parts of a long-lived plan
    kept up to date from their base tables' change feeds instead of being
    recomputed on every evaluation.

    {!materialize} replaces every maximal subplan that

    - uses only [Scan], [Filter], [Project], [Distinct], [Union_all] and
      keyed [Semi]/[Anti] joins without a residual,
    - evaluates only expressions that cannot raise (no [Param], [Outer],
      [Exists] or arithmetic), and
    - contains at least one stateful operator ([Distinct] or a join)

    by a [Scan] over an internal table holding that subplan's result as a
    bag. The table follows every insert, delete, update and clear of the
    base tables through counting delta rules: semi/anti joins keep, per key,
    a match count and their left rows oldest first, [Distinct] keeps a count
    per row, [Filter] and [Project] map each change through. Stacked
    anti-joins on the same left key are maintained as one.

    Projected columns, join keys and filters are turned into closures once,
    when the view is built: a column is read by index, a column equal to a
    constant (and AND/OR of such tests) is tested directly, and any other
    expression is handed to {!Eval.eval_expr}. A key of one or two
    int-valued columns is a single int (an integral float keys as the equal
    int, as {!Value.equal} has it), under the packing rule {!Table}'s
    indexes use ({!Value.pack_pair}); other keys are looked up by value. A
    key's left rows append and leave oldest-first in amortised O(1). Rows
    leaving the view's table go in one {!Table.delete_by_keys} call per
    change. A view on the right of a join gets a hash index on the join key,
    which the join then probes ({!standing}'s int probe, or {!Eval}'s
    indexed-probe path). Upkeep runs inside the
    base mutation's ["index-maintenance"] section (see
    {!Table.maintenance_time}).

    The rewritten plan returns the same rows as the original as a bag; rows
    of a view come out in the order they entered it, so a plan without a
    total [Sort] may list them in another order. Plans run once should not
    be materialized: the views live as long as their base tables. *)

(** [materialize plan] is [plan] with its maintainable subplans replaced by
    views, filled from the base tables' current rows. *)
val materialize : Ra.plan -> Ra.plan

(** [standing plan] materializes [plan] (see {!materialize}) and compiles
    the result once into a runner that returns, on each call, the rows
    {!Eval.run} of the materialized plan would, in the same order. Keyed
    inner, semi and anti joins probe by one int key (see {!Value.pack_pair};
    a right side that scans an indexed table probes its int postings, any
    other right side is bucketed per run); a projection or a residual over
    a join reads the left and right rows without building the combined
    row; EXCEPT and DISTINCT keep int-packed row sets; filters, keys and
    projections are the closures views use. Any other node, a keyless join
    included, and any expression with a subquery or a parameter run in
    {!Eval}, the reference, which also stays the evaluator of one-off
    queries. Meant for plans that run many times against changing tables,
    such as a scheduler's protocol query. *)
val standing : Ra.plan -> unit -> Value.t array list
