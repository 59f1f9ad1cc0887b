(** Executed-schedule logs: the "produced schedule" the paper records in
    multi-user mode and replays in single-user mode (§4.1). *)

open Ds_model

type entry = {
  ta : int;
  op : Op.t;
  obj : int;
  value : int;  (** value written (0 for reads/terminals) *)
}

type t

val create : unit -> t
val append : t -> entry -> unit
val length : t -> int

(** Entries in execution order. *)
val entries : t -> entry list

(** Keep only entries whose [ta] satisfies the predicate (used to restrict a
    log to committed transactions). *)
val filter : t -> (int -> bool) -> entry list
