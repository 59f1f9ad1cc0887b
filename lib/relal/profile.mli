(** Instrumented plan evaluation (EXPLAIN ANALYZE): evaluates a plan once,
    bottom-up, recording output cardinality and wall-clock time per node.

    Implementation note: each child's result is materialized and substituted
    as a literal relation before its parent is timed, so a node's time covers
    that node's own work only. A filter over a base table, and a join whose
    right side is an indexed base table, keep the real scan so the index fast
    path stays on the measured path; the scan child then reports the rows
    the probe returned. Only valid for top-level plans (no outer-row
    references). *)

type node_stats = {
  label : string;  (** node kind, e.g. "Filter", "INNERJoin" *)
  rows : int;  (** output cardinality *)
  time : float;  (** seconds spent in this node alone *)
  children : node_stats list;
}

(** Evaluates and profiles; returns the final rows and the stats tree. *)
val run : Ra.plan -> Value.t array list * node_stats

(** Multi-line tree rendering with per-node rows and milliseconds. *)
val render : node_stats -> string

(** The one host clock every timing section in the code base reads:
    monotonic, in seconds from an arbitrary origin, so only differences are
    meaningful. *)
val now : unit -> float

(** [timed label f] runs [f ()], timing it on {!now}, and returns the result
    with the elapsed seconds. The scheduler routes its protocol-query phase
    through this so external observers (metrics, tests) can watch query-eval
    time without touching the scheduler. *)
val timed : string -> (unit -> 'a) -> 'a * float

(** Installs (or clears, with [None]) the global section observer notified by
    every {!timed} call with its label and elapsed seconds. {!Table} reports
    its index-maintenance work (incremental updates, lazy builds, merges,
    compaction) through the same observer under the label
    ["index-maintenance"]. *)
val set_section_observer : (string -> float -> unit) option -> unit
