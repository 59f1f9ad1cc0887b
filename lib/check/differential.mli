(** Differential fuzzing of the scheduler formulations.

    One iteration draws a random closed-loop workload from a seed and drives
    it, cycle by cycle and in lockstep, through the hand-coded
    [ss2pl-ocaml] protocol (the reference; the [core] tests hold it to
    {!Ds_core.Oracle}) and every subject formulation — by default SS2PL through
    the SQL engine on base relations, on extended relations, and through the
    Datalog engine. Each transaction behaves like a middleware client: it has
    at most one outstanding request, and submits its next one only after the
    previous qualified. Starved transactions (SS2PL's incremental lock
    acquisition can deadlock) are aborted deterministically in every
    scheduler at once, mirroring the middleware's starvation handling.

    Checked per iteration:
    - the qualified (TA, INTRATA) sequence of every subject equals the
      oracle's, cycle by cycle;
    - every formulation's [rte] execution log passes the full
      {!Serializability} battery on its committed projection;
    - (optionally) a native strict-2PL server run from the same seed
      produces a checker-clean committed schedule;
    - (with [parallel_workers]) the exact admitted batches replayed through
      a K-worker {!Ds_server.Worker_pool} yield a merged schedule that is
      conflict-equivalent to the sequential admitted order
      ({!Equivalence.check} with [~complete:true]), checker-clean, and
      leaves the same final table state — once fault-free and (with
      [parallel_worker_faults]) once more under injected worker crashes,
      permanent deaths and stalls with the pool supervisor reassigning and
      hedging classes.

    Failures carry the seed, so any report reproduces by rerunning
    [run_one ~seed]. No shrinking: workloads are small enough to read. *)

open Ds_core

type config = {
  n_txns : int;
  selects_per_txn : int;
  updates_per_txn : int;
  n_objects : int;  (** small = contended; must be >= statements per txn *)
  abort_fraction : float;
  stall_abort_after : int;
      (** cycles with no qualification and nothing submittable before the
          youngest stalled transaction is aborted everywhere *)
  include_native : bool;
  native_clients : int;
  native_duration : float;  (** virtual seconds *)
  check_trace : bool;
      (** attach a {!Ds_obs.Trace} sink to the reference scheduler and check
          that the trace is well-formed and that its derived commit order
          (admitted requests with a commit op) equals the [rte] log's *)
  parallel_workers : int list;
      (** pool sizes for the parallel-vs-sequential oracle replay (default
          [[2; 4]]; [[]] disables the mode) *)
  parallel_worker_faults : bool;
      (** additionally replay each pool size under a deterministic
          worker-fault script (crashes, permanent deaths, stalls — drawn
          from the iteration seed) with supervision deadlines and hedging
          armed; the merged schedule must pass the exact same checks
          (default [true]) *)
}

val default_config : config

type failure =
  | Divergence of {
      formulation : string;
      cycle : int;
      expected : (int * int) list;  (** the oracle's qualified keys *)
      got : (int * int) list;
    }
  | Stuck of { cycle : int; pending : int }
      (** the reference made no progress despite starvation aborts *)
  | Unclean of { formulation : string; report : Serializability.report }
  | Trace_mismatch of {
      formulation : string;
      detail : string;  (** validation error, or what disagreed *)
      expected : int list;  (** commit-op TAs in [rte] execution order *)
      got : int list;  (** commit-op TAs in trace admission order *)
    }
  | Parallel_mismatch of { workers : int; detail : string }
      (** the K-worker replay was not conflict-equivalent to sequential *)

type outcome = {
  seed : int;
  cycles : int;
  executed : int;  (** requests the reference qualified *)
  committed_txns : int;
  aborted_txns : int;  (** starvation aborts *)
  failures : failure list;
}

val clean : outcome -> bool

(** (name, extended relations, protocol). *)
val default_subjects : unit -> (string * bool * Protocol.t) list

(** One differential iteration. [subjects] overrides the formulations under
    test (the reference is always the OCaml oracle) — used by the harness's
    own self-test, which checks that a wrong protocol is actually caught. *)
val run_one :
  ?config:config ->
  ?subjects:(string * bool * Protocol.t) list ->
  seed:int ->
  unit ->
  outcome

type summary = {
  runs : int;
  clean_runs : int;
  total_executed : int;
  failed : outcome list;
}

(** [run ~seeds ()] executes one iteration per seed. *)
val run :
  ?config:config ->
  ?subjects:(string * bool * Protocol.t) list ->
  seeds:int list ->
  unit ->
  summary

val pp_failure : Format.formatter -> failure -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val pp_summary : Format.formatter -> summary -> unit
