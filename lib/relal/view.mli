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
    base tables through counting delta rules: semi/anti joins keep a match
    count per right key and their left rows bucketed by key, [Distinct]
    keeps a count per row, [Filter] and [Project] map each change through.
    A view on the right of a join gets a hash index on the join key, which
    {!Eval}'s indexed-probe path then uses. Upkeep runs inside the base
    mutation's ["index-maintenance"] section (see
    {!Table.maintenance_time}).

    The rewritten plan returns the same rows as the original as a bag; rows
    of a view come out in the order they entered it, so a plan without a
    total [Sort] may list them in another order. Plans run once should not
    be materialized: the views live as long as their base tables. *)

(** [materialize plan] is [plan] with its maintainable subplans replaced by
    views, filled from the base tables' current rows. *)
val materialize : Ra.plan -> Ra.plan
