(** Stratified Datalog evaluation: bottom-up and semi-naive. Facts (the EDB) are added after compilation; derived relations are
    cached until the facts change. *)

open Ds_relal

exception Datalog_error of string

type t

(** Checks arity consistency, rule safety (head, negated and compared
    variables must be bound by positive body literals) and stratifiability
    (no recursion through negation). @raise Datalog_error otherwise. *)
val create : Dl_ast.program -> t

val add_fact : t -> string -> Value.t list -> unit
val add_fact_row : t -> string -> Value.t array -> unit

(** Removes all facts of one predicate (or all with [None]). *)
val clear_facts : ?pred:string -> t -> unit

(** Tuples of a predicate (EDB or derived), evaluating if needed. Unknown
    predicates yield []. *)
val query : t -> string -> Value.t array list

(** Predicates grouped by stratum, lowest first (EDB predicates excluded). *)
val strata : t -> string list list

(** Number of rules (the paper's "lines of code" productivity metric). *)
val rule_count : t -> int
