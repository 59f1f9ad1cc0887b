(** A pool of K simulated worker backends executing each admitted batch as
    overlapping spans, one conflict class at a time, under a supervisor that
    survives worker failures.

    Each batch is split by {!Partition.partition} into conflict classes;
    whole classes are placed on workers (cheapest-loaded first, deterministic
    ties), so two conflicting requests of the same batch always share a
    worker and keep their batch order, while independent classes overlap in
    virtual time. Batch makespan therefore shrinks from sum-of-all toward
    max-per-worker. A pool-level barrier serializes {e batches}: batch N+1
    starts only once batch N has drained on every worker, which pins
    cross-batch conflict order to admission order.

    {b Supervision.} Workers execute their classes one at a time off a
    per-worker queue, which gives the pool a safe failover unit: an
    {e unstarted} class has delivered nothing and conflicts with no other
    class, so it can be handed to any surviving worker without perturbing
    conflict order. Injected worker faults (see {!worker_fault}) crash a
    worker between classes, kill it permanently, or slow it down; a
    per-class execution deadline ({!set_deadline_factor}) declares a worker
    stuck when a class overruns its modeled cost budget, reassigns the
    worker's queue, and — with {!set_hedging} — races a duplicate of the
    overdue class on a survivor. Deliveries are deduplicated first-wins per
    request key, so a hedged class still delivers each request exactly once
    and the merged order stays conflict-equivalent to the admitted order.

    With [workers = 1] the pool is the plain sequential {!Backend} — same
    events at the same virtual times, no barrier bookkeeping — so seeded
    single-worker runs are bit-identical to the pre-pool code; worker faults
    are not applied (there is no survivor to fail over to). *)

open Ds_model
open Ds_sim

type t

(** A worker-scoped fault for one dispatched batch, drawn by the hook
    installed with {!set_worker_fault_hook}. [Crash] takes the worker down
    after it completes [after] more classes ([0] = before starting any);
    it rejoins at the next batch. [Die] removes the worker permanently
    (ignored if it would leave no survivor). [Slow] delays each class the
    worker starts this batch by [delay] seconds (an IO-bound straggler —
    the budget-based deadline can catch it). *)
type worker_fault =
  | Crash of { worker : int; after : int }
  | Die of { worker : int }
  | Slow of { worker : int; delay : float }

val create : Engine.t -> Cost_model.t -> workers:int -> t

val workers : t -> int
val backends : t -> Backend.t array
val backend : t -> int -> Backend.t

(** [execute t requests ~on_each k] runs the batch across the pool.
    [on_each] fires at each request's completion time, once per request
    (which worker ran it is on the trace's [exec_start] events). [k (`Failed r)] fires at the {e failed request's} completion
    time (other workers keep draining; their remaining deliveries are
    suppressed and left to the caller to retry — same wasted-work semantics
    as a sequential early-exit); [k `Completed] fires when every worker has
    drained. A batch submitted while another is draining queues behind it. *)
val execute :
  t ->
  Request.t list ->
  on_each:(Request.t -> unit) ->
  ([ `Completed | `Failed of Request.t ] -> unit) ->
  unit

(** Installs the failure hook on every worker backend. *)
val set_fault_hook :
  t -> (Request.t -> [ `Ok | `Fail | `Stall of float ]) -> unit

(** Installs (or clears) the per-batch worker-fault draw, consulted once at
    the start of every non-empty batch with the currently-alive worker ids.
    No-op at K=1. *)
val set_worker_fault_hook :
  t -> (alive:int list -> worker_fault list) option -> unit

(** [set_deadline_factor t (Some f)] arms per-class execution deadlines:
    a class dispatched to a worker must complete within [f] times its
    modeled cost, or the worker is declared stuck (queue reassigned,
    class optionally hedged). [None] (the default) disarms supervision
    deadlines — the scheduling and event timing of un-supervised runs is
    then unchanged. *)
val set_deadline_factor : t -> float option -> unit

(** Enables hedged re-execution of overdue classes (requires an armed
    deadline factor to ever trigger). Duplicate deliveries are suppressed
    first-wins. *)
val set_hedging : t -> bool -> unit

(** Attaches the trace sink to the pool and every worker backend (exec spans
    carry the worker id, see {!Backend.set_trace}). The supervisor records
    each decision on it, with the cause in the event's [op]:
    - [worker_down] ([arg] the worker): ['c'] crash, ['d'] death, ['s']
      stuck ([obj] the overdue class);
    - [reassign] ([obj] the class, [arg] its new worker): ['r'] moved off a
      failed or stuck worker, ['h'] hedged copy. *)
val set_trace : t -> Ds_obs.Trace.t option -> unit

(** Data statements executed across all workers. *)
val executed_stmts : t -> int

(** Batches fully drained so far. *)
val batch_count : t -> int

(** Batch makespans (seconds, virtual time), one sample per drained batch. *)
val makespans : t -> Ds_stats.Histogram.t

(** Per-worker [(worker, executed_stmts, busy_time, utilization)]. *)
val worker_stats : t -> (int * int * float * float) list

(** Supervision counters: conflict classes moved off a failed/stuck worker,
    hedged duplicate executions dispatched, and worker-down events by
    cause. *)
val reassigned_classes : t -> int

val hedged_classes : t -> int
val worker_crashes : t -> int
val worker_deaths : t -> int
val worker_stalls_detected : t -> int

(** Worker ids currently alive / permanently dead ([Die] faults). *)
val alive_workers : t -> int list

val dead_workers : t -> int list
