(** Offline standby promotion — the [dsched failover <dir>] path.

    Works on a session directory written by {!Session} after the primary is
    gone: {!Ds_core.Journal.promote}s the standby journal — recovery with
    any torn tail repaired, then the next promotion epoch stamped — and
    returns what was recovered. The directory's journal is then a valid
    primary journal for a new run ([--journal dir/standby.journal]) and any
    late write from the fenced old epoch is refused at replay. *)

open Ds_core

type report = {
  mode : Session.mode;  (** the replication mode the session ran with *)
  epoch : int;  (** the promotion epoch stamped by this call *)
  recovered : Journal.recovered;  (** standby state as of its watermark *)
}

(** @raise Failure if [dir] has no [REPL] manifest or no standby journal. *)
val promote : string -> report
