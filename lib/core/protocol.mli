(** Scheduling protocols.

    A protocol is a declarative specification (SQL over the scheduler
    relations, a Datalog program over the request facts, or — for baselines —
    a hand-coded OCaml function) that, given the pending [requests] and the
    [history], decides which pending requests are qualified for execution and
    in what order. *)

type guarantee =
  | Serializable
  | Read_committed
  | Fifo_only  (** ordering only, no isolation guarantee *)
  | Custom of string

type t = {
  name : string;
  description : string;
  guarantee : guarantee;
  language : [ `Sql | `Datalog | `Ocaml ];
  spec_loc : int;  (** size of the specification (paper §3.4 metric) *)
  prepare : Relations.t -> unit -> (int * int) list;
      (** compile once against a relation set; the returned thunk is the
          per-cycle qualifier, yielding (TA, INTRATA) keys in execution
          order *)
}

(** [of_sql ~name ~guarantee ~ordered sql] builds a protocol from a query
    over [requests]/[history] returning (at least) [ta] and [intrata]
    columns. When [ordered] is false the result is sorted by request id
    (column [id] must be in the output). [optimize] selects the plan
    rewriting level (ablation A2); at [`Full] (the default) each prepared
    plan also keeps its stateful subplans over the scheduler relations as
    incrementally maintained views ({!Ds_relal.View}). *)
val of_sql :
  ?optimize:Ds_relal.Optimizer.level ->
  ?description:string ->
  name:string ->
  guarantee:guarantee ->
  ordered:bool ->
  string ->
  t

(** [of_sql_dynamic] is {!of_sql} for a query containing [?] placeholders.
    Also returns a setter that binds *every* placeholder to the given value —
    the placeholders stand for one logical parameter (e.g. the rationing
    threshold) — across every scheduler the protocol has been prepared
    against, taking effect from the next cycle. The initial value is
    [initial]. *)
val of_sql_dynamic :
  ?optimize:Ds_relal.Optimizer.level ->
  ?description:string ->
  name:string ->
  guarantee:guarantee ->
  ordered:bool ->
  initial:Ds_relal.Value.t ->
  string ->
  t * (Ds_relal.Value.t -> unit)

(** [of_datalog ~name ~guarantee program] builds a protocol from a Datalog
    program deriving [qualified(TA, INTRATA)]. Facts are loaded per cycle as
    [requests/5], [terminal_requests/4], [history/5] and
    [history_terminal/4] (data operations carry their object; terminal
    operations appear in the [*_terminal] relations without one). Results
    are ordered by request id. *)
val of_datalog :
  ?description:string -> name:string -> guarantee:guarantee -> string -> t

(** Hand-coded protocol (the paper's state-of-the-art baseline). The
    function is the per-cycle qualifier: it reads the relations directly,
    their indexes included, and returns (TA, INTRATA) keys in execution
    order. [spec_loc] should be the line count of the imperative
    implementation. *)
val of_fn :
  ?description:string ->
  name:string ->
  guarantee:guarantee ->
  spec_loc:int ->
  (Relations.t -> (int * int) list) ->
  t

val guarantee_to_string : guarantee -> string
val pp : Format.formatter -> t -> unit
