(** The multi-user experiment of §4.2: N closed-loop clients run OLTP
    transactions directly against the server under isolation level
    SERIALIZABLE, enforced by the native strict-2PL scheduler
    ({!Lock_manager}); deadlocks are detected on block and resolved by
    aborting the youngest transaction, which restarts after a backoff.

    Lock waiting consumes no CPU, so rising contention starves the server —
    reproducing the throughput collapse the paper reports between 300 and
    500 clients. Work is priced by {!Cost_model.default}. *)

open Ds_workload

type config = {
  n_clients : int;
  duration : float;  (** measurement window in virtual seconds (paper: 240) *)
  spec : Spec.t;
  seed : int;
  log_schedule : bool;  (** record the committed schedule for replay *)
  mpl : int option;
      (** multiprogramming limit: at most this many transactions execute
          concurrently, the rest queue for admission — the external MPL
          tuning of Schroeder et al. (EQMS) discussed in the paper's 2.
          [None] = unlimited (the paper's own setup). *)
  deadlock_policy : [ `Detection | `Wound_wait ];
      (** [`Detection] (default): waits-for cycle search on every block,
          youngest on the cycle aborts. [`Wound_wait]: an older requester
          aborts younger conflicting holders outright; deadlock-free but
          more aggressive under contention. *)
  trace : Ds_obs.Trace.t option;
      (** lifecycle event sink. Events are keyed by the lock-table attempt
          id (each deadlock retry is its own span tree); lock waits and
          grants come from the {!Lock_manager} observer, admissions map to
          lock grants. *)
}

val default_config : config

type stats = {
  n_clients : int;
  duration : float;
  committed_txns : int;
  committed_stmts : int;  (** data statements of committed transactions *)
  wasted_stmts : int;  (** executed, then rolled back *)
  deadlocks : int;
  wounds : int;  (** transactions aborted by the wound-wait policy *)
  intrinsic_aborts : int;
  lock_waits : int;
  total_wait_time : float;
  cpu_busy : float;
  cpu_utilization : float;
  mean_txn_latency : float;
  p95_txn_latency : float;
  schedule : Schedule.entry list;
      (** committed transactions' statements and commit points, execution
          order *)
  final_store : Row_store.t;
      (** the data after the run; under correct strict 2PL it must equal a
          sequential replay of [schedule] on a fresh store
          ({!Replay.apply_to_store}) *)
}

val run : config -> stats

val pp_stats : Format.formatter -> stats -> unit
