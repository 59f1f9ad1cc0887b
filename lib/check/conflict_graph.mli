(** Conflict graphs over executed schedules.

    A committed schedule — the native server's {!Ds_server.Schedule} log or
    the declarative scheduler's [rte] execution log — is first normalized
    into a sequence of {!event}s, then turned into the classical
    serialization graph: one node per transaction, an edge [a -> b] whenever
    an operation of [a] precedes a conflicting operation of [b] (ww, wr or
    rw on the same object). Acyclicity of this graph is
    conflict-serializability (Bernstein et al.); the DGCC line of work
    analyses exactly this dependency structure. *)

open Ds_model

type event = {
  pos : int;  (** position in the schedule, 0-based execution order *)
  ta : int;  (** transaction number *)
  op : Op.t;
  obj : int option;  (** [None] for terminal operations *)
}

(** Normalize a native schedule log. Terminal entries (any [obj] value) come
    out with [obj = None]. *)
val events_of_schedule : Ds_server.Schedule.entry list -> event list

(** Normalize a request list in execution order (e.g. the [rte] log). *)
val events_of_requests : Request.t list -> event list

(** Restrict to the transactions that have a [Commit] event in the sequence —
    the committed projection a correctness check runs on. Positions are kept
    (gaps are fine: relative order is all that matters). *)
val committed_projection : event list -> event list

(** Transactions with a terminal event, mapped to the terminal's position. *)
val terminal_positions : event list -> (int, int) Hashtbl.t

(** [ww]: write before write; [wr]: write before read; [rw]: read before
    write. *)
type conflict = Ww | Wr | Rw

type edge = {
  src : int;
  dst : int;
  kind : conflict;
  obj : int;
  src_pos : int;
  dst_pos : int;  (** earliest conflicting pair realizing this edge *)
}

type t

val build : event list -> t

(** Transactions appearing in the event sequence, ascending. *)
val nodes : t -> int list

(** Every distinct (src, dst) conflict edge, each with the earliest
    conflicting operation pair that realizes it. *)
val edges : t -> edge list

val successors : t -> int -> int list
val edge_count : t -> int

(** A witness cycle [ta1; ta2; ...; tak] (with the convention that tak
    conflicts back into ta1), or [None] when the graph is acyclic. *)
val find_cycle : t -> int list option

val conflict_to_string : conflict -> string
val pp_event : Format.formatter -> event -> unit
