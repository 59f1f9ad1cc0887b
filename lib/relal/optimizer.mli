(** Rule-based plan rewriting. The point of the paper's architecture is that
    "optimization techniques from declarative query processing can be used to
    improve scheduler performance without affecting the scheduler
    specification" (§1) — this module is that lever, and the
    [optimizer_ablation] bench measures it.

    Levels:
    - [`None]: plan untouched (evaluates correlated subqueries by nested
      re-execution, crosses by enumeration).
    - [`Basic]: constant folding; conjunction splitting; predicate pushdown
      through project/cross/join/set-ops; equi-join detection over cross
      products (hash joins).
    - [`Full]: [`Basic] plus decorrelation of (NOT) EXISTS subqueries into
      hash semi/anti joins, factoring common conjuncts out of disjunctions to
      expose join keys; splitting a NOT EXISTS over a disjunction into one
      keyed anti join per disjunct (Listing 1's RLockedObjects becomes three
      anti joins: on (TA, object) against writes, on TA against aborts and
      commits); [LEFT JOIN … WHERE <right key> IS NULL] as an anti join under
      a NULL-padding projection; fusing Project over Project; and dropping
      each DISTINCT whose consumer ignores duplicates: under EXCEPT's right
      input or a semi/anti join's right side, and from there down through
      Project, Filter, UNION ALL and inner joins whose expressions hold no
      arithmetic or subquery (those can tell [Int 3] from the equal
      [Float 3.], so the copy a DISTINCT keeps would matter). Listing 1's
      WLockedObjects loses its DISTINCT. *)

type level = [ `None | `Basic | `Full ]

val optimize : ?level:level -> Ra.plan -> Ra.plan

(** Exposed for tests. *)

(** Splits nested [And]s into a conjunct list. *)
val conjuncts : Ra.expr -> Ra.expr list

val conjoin : Ra.expr list -> Ra.expr

(** [(A and B...) or (A and C...) --> A and (B... or C...)] for syntactically
    equal conjuncts. *)
val factor_common_disjunction : Ra.expr -> Ra.expr

(** [split_join_on ~left_arity on] splits a join's ON predicate (written over
    the concatenated row) into hash keys and a residual:
    [(lkeys, rkeys, residual)] where [lkeys] read left rows, [rkeys] read
    right rows (columns shifted down by [left_arity]) and [residual] keeps the
    concatenated-row numbering. Used when lowering LEFT JOIN, whose outer
    semantics require keys at plan-build time. *)
val split_join_on :
  left_arity:int -> Ra.expr -> Ra.expr list * Ra.expr list * Ra.expr option
