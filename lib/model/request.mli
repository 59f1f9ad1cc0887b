(** Scheduler requests.

    The record of the paper's Table 2 — ID, TA, INTRATA, Operation, Object —
    plus the SLA class and arrival time that protocols schedule by. Every
    scheduler relation stores all seven. *)

type t = {
  id : int;  (** consecutive request number, unique per run *)
  ta : int;  (** transaction number *)
  intrata : int;  (** request number within its transaction, starting at 1 *)
  op : Op.t;
  obj : int option;  (** object number; [None] for commit/abort *)
  sla : Sla.t;
  arrival : float;  (** arrival time at the middleware, seconds *)
}

(** @raise Invalid_argument on a malformed request: a data operation without
    an object, a terminal operation with one, or a negative [intrata]
    (reserved for {!abort_marker}). *)
val make :
  ?sla:Sla.t -> ?arrival:float -> id:int -> ta:int -> intrata:int -> op:Op.t ->
  ?obj:int -> unit -> t

(** [abort_marker ~ta ~seq ()] is the synthetic history row recording that
    transaction [ta] was aborted by the scheduler (deadlock victim, dead
    letter, journal replay). Markers carry the reserved sentinel
    [intrata = -1] — which {!make} rejects — and a negative [id] derived
    from [seq], so they can never collide with a real request no matter what
    ids or intrata values the workload uses. *)
val abort_marker : ?arrival:float -> ta:int -> seq:int -> unit -> t

(** [true] exactly for rows built by {!abort_marker}. *)
val is_abort_marker : t -> bool

(** [v ta intrata op obj] — terse constructor used pervasively in tests:
    id defaults to a per-call counter-free [ta * 1000 + intrata]. *)
val v : int -> int -> Op.t -> int -> t

(** Terminal request (commit/abort) shorthand. *)
val terminal : int -> int -> Op.t -> t

val equal : t -> t -> bool

(** Orders by [id] (arrival order). *)
val compare : t -> t -> int

(** [key r] is the pair (TA, INTRATA) which identifies a request within a
    workload, mirroring the paper's [QualifiedSS2PLOps] result shape. *)
val key : t -> int * int

(** Two requests conflict iff they belong to different transactions, both are
    data operations on the same object, and at least one is a write. *)
val conflicts : t -> t -> bool

val is_terminal : t -> bool
val is_data : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
