(** End-to-end middleware simulation (the architecture of Figure 1): clients
    connect to the scheduler, client workers buffer their requests in the
    incoming queue, a trigger periodically fires the scheduler cycle, and
    qualified requests are executed by the server as a batch with its own
    scheduling disabled. Results return to the clients, which then submit
    their next request (closed loop).

    Scheduler cycles run for real on the embedded relational engine; the
    measured wall-clock time of each cycle is charged to the simulated clock
    (configurable), so throughput reflects genuine declarative-scheduling
    overhead rather than a model of it.

    Transactions whose pending request makes no progress for
    [starvation_cycles] scheduler cycles are aborted and retried with a fresh
    transaction number — the middleware analogue of the native scheduler's
    deadlock handling.

    {2 Faults and degradation}

    A nonzero {!Faults.plan} threads deterministic failures through the loop:
    server batches fail or stall mid-batch, poison requests fail every
    attempt, clients disconnect mid-transaction, and the middleware itself
    can crash at a chosen cycle and recover live from its journal.

    The plan also sets the client contract. With a non-empty plan, clients
    redo every transaction the middleware aborts (under a fresh TA), and
    each batch attempt times out after 0.25 virtual seconds; a fault-free
    run has neither. The middleware degrades gracefully rather than
    wedging:

    - a failed batch retries its unexecuted suffix after capped exponential
      backoff (10 ms, doubling, capped at 0.5 s) with jitter, charged to the
      simulated clock;
    - the per-batch timeout abandons a stalled attempt and goes through the
      same retry path;
    - a request that fails 4 attempts in a row (3 retries) is dead-lettered
      into the [dead] relation (journalled, so recovery preserves it) and
      its transaction is aborted;
    - a request whose transaction has ended (starved, shed, dead-lettered
      or disconnected) is dropped from every later attempt, and a late
      completion of one is wasted work, not a delivery;
    - with [queue_capacity] set, the incoming queue is bounded: a full queue
      sheds its least urgent request for a strictly-more-urgent arrival
      (SLA-tier-aware load shedding) or pushes back on the client
      (backpressure);
    - after a crash, {!Journal.recover}/{!Journal.restore} rebuild the
      relations, lost responses are re-delivered from the recovered history,
      requests whose submission never reached the disk are resubmitted, and
      the run continues — the [rte] log stays one continuous, checkable
      schedule. With [checkpoint_interval] set, recovery replays only the
      journal suffix since the last snapshot;
    - with [workers > 1], injected {e worker} faults (crash, permanent
      death, stall) are survived by the pool supervisor: unstarted conflict
      classes move to surviving workers, stragglers are detected against
      per-class execution deadlines and optionally hedged, and every
      decision is a trace event ([worker_down]/[reassign], the cause in
      [op]; see {!Ds_server.Worker_pool.set_trace}).

    {2 Sharding}

    With [shards = S > 1] the middleware runs S+1 scheduler {e lanes}: shard
    lane [i] owns object group [i] (objects with [obj mod S = i]) and a
    global lane at index [S] runs every transaction whose footprint spans
    more than one group. Each lane is a full scheduler — its own
    [requests]/[history] relations, prepared protocol query, trigger state,
    backend pool and journal segment ([journal_path] becomes a directory of
    per-lane segments; see {!Journal.lane_paths}).

    Routing is deterministic from the transaction's object footprint, done
    once at submission ({e before} any statement runs), and recorded as one
    [shard_route] trace event; {!handle.shard_of} answers it after the run.
    Cross-shard SS2PL is kept by a drain barrier: the global lane admits
    work only when every shard lane is idle, and shard lanes admit work only
    while no global transaction holds locks; a newly arriving shard
    transaction that finds the global lane with outstanding work parks on a
    wait list until the global lane drains (counted in [shard_deferrals]).
    Every qualification draws a run-global admission stamp that is
    journalled with the Q record, so the per-lane execution logs merge into
    one totally ordered schedule — {!run_sharded} returns it, and
    {!Ds_check.Equivalence.check_sharded} verifies it, including that no
    conflicting pair was ever split across two shard lanes.

    [shards = 1] (default) is bit-identical to the historical
    single-scheduler middleware: one lane, no stamps, no barrier, and a
    plain single-file journal. *)

open Ds_model
open Ds_workload

(** {2 Hot-standby replication}

    Replication lives in the [ds_replica] library (which depends on this
    one); the middleware drives it through this closure record, built by
    [Ds_replica.Session.hooks]. With [config.repl] set, every journal record
    the primary writes is streamed to a warm standby; the middleware pumps
    the link periodically, gates commit acks on the watermark in sync mode,
    and — on an injected [pcrash] fault — promotes the standby under a fresh
    epoch (a [failover] trace event) and continues the run from its
    recovered state. *)

(** What a promotion hands the middleware: the standby's recovered state (as
    of the replication watermark) and its reopened journal with the new
    epoch already stamped ({!Journal.writer_epoch}). *)
type repl_promotion = {
  rp_recovered : Journal.recovered;
  rp_journal : Journal.t;
}

type repl_status = {
  rs_epoch : int;  (** current promotion epoch (0 before any failover) *)
  rs_watermark : int;  (** highest contiguous journal LSN the standby acked *)
  rs_primary_lsn : int;  (** last record streamed off the primary *)
  rs_lag : int;  (** [rs_primary_lsn - rs_watermark]: the async loss bound *)
  rs_fenced : int;  (** stale-epoch records refused after a promotion *)
  rs_divergences : int;  (** checkpoint-hash mismatches detected *)
  rs_sync : bool;  (** session runs in sync (commit-gating) mode *)
}

type repl_hooks = {
  repl_attach : Journal.t -> unit;  (** tap the primary's journal writer *)
  repl_set_clock : (unit -> float) -> unit;  (** virtual clock for the link *)
  repl_pump : now:float -> unit;  (** deliver/apply/ack/retransmit step *)
  repl_synced : ta:int -> bool;  (** sync-mode commit gate for one txn *)
  repl_promote : unit -> repl_promotion;  (** standby becomes primary *)
  repl_status : unit -> repl_status;
}

type config = {
  n_clients : int;
  duration : float;  (** virtual seconds *)
  spec : Spec.t;
  workers : int;
      (** simulated worker backends; with [workers > 1] each admitted batch
          is split into conflict classes and executed as overlapping
          per-worker spans (see {!Ds_server.Worker_pool}); each [exec_start]
          trace event carries its worker id in [arg]. [1]
          (default) is the paper's single sequential server, bit-identical
          to the pre-pool behavior. *)
  shards : int;
      (** scheduler lanes; [1] (default) is the single scheduler, [S > 1]
          runs S shard lanes plus a global lane for cross-shard
          transactions (see {e Sharding} above). Each lane gets its own
          [workers]-sized pool. *)
  seed : int;
  protocol : Protocol.t;
  trigger : Trigger.t;
  charge_scheduler_time : bool;
  prune_history : bool;
  starvation_cycles : int;
  faults : Faults.plan;
      (** fault plan ({!Faults.none} = fault-free); a non-empty plan also
          turns on the client contract above *)
  queue_capacity : int option;
      (** incoming-queue bound, positive ([None] = unbounded) *)
  journal_path : string option;
      (** write-ahead journal; a crash fault without one gets a temp file *)
  sync_journal : bool;  (** fsync the journal at every cycle flush *)
  checkpoint_interval : int option;
      (** minimum spacing, in cycles, of journal checkpoint blocks
          (requires a journal to have any effect): a block is written on a
          multiple of N once the records since the last block add up to its
          size; recovery then replays only the suffix since the last
          snapshot. [None] (default) = never checkpoint. *)
  hedging : bool;
      (** race a duplicate of an overdue class on a surviving worker;
          deliveries are deduplicated first-wins (off by default) *)
  repl : repl_hooks option;
      (** hot-standby replication session (see above). Requires
          [shards = 1] and a journal; incompatible with [crash_at_cycle]
          ([pcrash_at_cycle] is the failure model for replicated runs, and
          requires this to be set). [None] (default) = unreplicated. *)
  trace : Ds_obs.Trace.t option;
      (** lifecycle event sink threaded through scheduler, backend and
          middleware; its clock is set to the simulation's virtual clock.
          [None] (default) records nothing and adds no work. *)
  metrics : Ds_obs.Metrics.t option;
      (** online metrics: per-SLA-tier commit latency histograms, per-cycle
          scheduler rows and per-worker rows. [None] (default) records
          nothing. *)
}

val default_config : config

type stats = {
  committed_txns : int;
  committed_stmts : int;
  aborted_txns : int;
      (** all middleware-initiated aborts: starvation, load shedding,
          dead-lettering and client disconnects *)
  cycles : int;
  mean_cycle_time : float;  (** real seconds per scheduler cycle *)
  p95_cycle_time : float;
  mean_batch : float;  (** qualified requests per cycle *)
  mean_pending : float;  (** pending-table size at cycle start *)
  scheduler_time : float;  (** total real time spent in cycles *)
  mean_txn_latency : float;
  p95_txn_latency : float;
  latency_by_tier : (Sla.tier * float * float * int) list;
      (** (tier, mean, p95, committed txns) *)
  retries : int;  (** batch re-dispatches after a failure or timeout *)
  timeouts : int;  (** batch attempts abandoned by the per-batch timeout *)
  injected_failures : int;  (** transient batch failures drawn by the plan *)
  injected_stalls : int;  (** stalls drawn by the plan *)
  shed_txns : int;  (** transactions shed by the bounded queue *)
  backpressure_waits : int;  (** submissions turned away to retry later *)
  dead_lettered : int;  (** requests given up on (dead relation) *)
  disconnects : int;  (** injected client disconnects *)
  crashes : int;  (** middleware crashes survived *)
  workers : int;  (** pool size the run executed with *)
  batches_dispatched : int;  (** batches fully drained by the pool *)
  mean_batch_makespan : float;  (** virtual seconds from dispatch to drain *)
  p95_batch_makespan : float;
  worker_crashes : int;  (** injected worker crashes handled by the supervisor *)
  worker_deaths : int;  (** workers permanently removed *)
  worker_stalls : int;  (** stuck workers detected via execution deadlines *)
  reassigned_classes : int;  (** conflict classes moved to surviving workers *)
  hedged_classes : int;  (** duplicate executions raced against stragglers *)
  checkpoints : int;  (** journal snapshot blocks written *)
  recovery_replayed : int;  (** journal lines replayed across recoveries *)
  recovery_skipped : int;  (** lines skipped thanks to checkpoints *)
  recovery_time : float;  (** real seconds spent in crash recovery *)
  shards : int;  (** shard lanes the run executed with (1 = unsharded) *)
  global_lane_txns : int;
      (** transactions routed to the global lane (0 when [shards = 1]) *)
  shard_deferrals : int;
      (** parks of new shard-lane transactions on the cross-shard barrier's
          wait list (0 when [shards = 1]) *)
  failovers : int;  (** standby promotions survived (0 or 1) *)
  repl_epoch : int;  (** final promotion epoch (0 = never failed over) *)
  repl_watermark : int;  (** final acked replication watermark *)
  repl_lag : int;
      (** records above the watermark at the end of the run — the async
          loss bound; 0 in a settled sync run *)
  repl_fenced : int;  (** stale-epoch records the standby refused *)
  repl_divergences : int;  (** checkpoint-hash mismatches detected *)
}

(** The preconditions {!run} checks, naming the first one broken.
    [replicated] (default: [config.repl] is set) says whether a replication
    session runs with it, for a caller that checks before making one. *)
val validate : ?replicated:bool -> config -> (unit, string) result

val run : config -> stats

(** Post-run inspection surface of a (possibly) sharded run. *)
type handle = {
  lane_schedulers : Scheduler.t array;
      (** lane [i]'s scheduler; index [shards] is the global lane. A single
          element when [shards = 1]. *)
  shard_of : int -> int option;
      (** the lane each transaction was routed to, for the whole run
          (including aborted and retried transactions) — the view
          {!Ds_check.Equivalence.check_sharded} consumes *)
  merged_rte : Request.t list;
      (** per-lane [rte] logs merged by global admission stamp: the run's
          single serial-equivalent execution order. At [shards = 1] this is
          exactly the one lane's [rte]. *)
  merged_execution_order : (int * int) list;
      (** [(ta, intrata)] per delivered request in cross-lane delivery
          order, as the middleware recorded it. The order restarts at every
          crash or failover: it covers the last incarnation only. *)
}

(** {!run}, also returning the lanes and the merged cross-shard artifacts for
    inspection and checking ([lane_schedulers.(0)] is the only lane at
    [shards = 1]). *)
val run_sharded : config -> stats * handle

(** [s] with its host-time measurements (cycle times, scheduler and
    recovery time) zeroed. With [charge_scheduler_time = false] what is left
    is a function of the configuration alone, so two runs that decide alike
    give equal values. *)
val without_host_time : stats -> stats

val pp_stats : Format.formatter -> stats -> unit
