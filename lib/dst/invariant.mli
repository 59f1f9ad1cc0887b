(** The invariant battery: every correctness predicate the repo knows, run
    against the artifacts of one completed scenario. The paper's central
    claim is that a declarative scheduler is auditable — the protocol is a
    query, so its decisions can be checked against the data it ran on; the
    battery is that audit, applied end to end (middleware, scheduler, worker
    pool, journal) instead of per-subsystem:

    - {b serializability}: the committed projection of the continuous [rte]
      log passes conflict-serializability (with witness cycle), strictness,
      rigor and commit-order consistency ({!Ds_check.Serializability});
    - {b conflict-equivalence}: the merged (delivery-order) schedule of the
      worker pool agrees with the admitted [rte] order on every conflicting
      pair ({!Ds_check.Equivalence});
    - {b trace-wellformed}: the lifecycle trace passes the span battery —
      per-transaction time monotonicity, exactly one terminal per terminated
      transaction, no execution without admission ({!Ds_obs.Span.validate})
      — and its commit admissions agree with the [rte] log: the same TA
      sequence, or with a crash or failover a supersequence of the log's;
    - {b recovery-identity}: replaying the run's journal reproduces the live
      scheduler state — equal dead set, live pending/history contained in
      the replay, no corrupt records after a clean close;
    - {b dead-letter}: the dead relation, the dead-letter counter and the
      abort accounting agree (every shed/disconnected/dead-lettered
      transaction was aborted);
    - {b failover}: on replicated scenarios, no checkpoint-hash divergence
      between the primary and standby mirrors; after a promotion, no
      client-acked transaction at or below the replication watermark was
      lost (and in sync mode, none at all —
      {!Ds_check.Equivalence.check_failover});
    - {b progress}: the run committed at least one transaction (scenario
      ranges are sized so a live system always can);
    - {b formulation-equivalence}: a protocol written more than one way
      (SQL at three optimizer levels, Datalog, hand-coded) decides alike in
      every formulation: the run and its rerun under a sibling formulation
      ({!Runner.formulation_diff}) give the same stats, [rte] log and
      delivery order. *)

open Ds_model

(** What two formulations of one protocol must agree on, read from a run
    before any {!Scenario.inject}. *)
type formulation_run = {
  protocol : string;
  stats : Ds_core.Middleware.stats;
  rte : Request.t list;  (** {!Ds_core.Middleware.handle.merged_rte} *)
  order : (int * int) list;
      (** {!Ds_core.Middleware.handle.merged_execution_order} *)
}

(** Everything a completed scenario run leaves behind. [rte] and [merged]
    are the {e observed} schedules — a test-only {!Scenario.inject} has
    already been applied to them when the scenario carries one. *)
type ctx = {
  scenario : Scenario.t;
  stats : Ds_core.Middleware.stats;
  rte : Request.t list;  (** the continuous execution log, qualification order *)
  merged : Request.t list;
      (** cross-lane delivery order since the last crash or failover
          ({!Ds_core.Middleware.handle.merged_execution_order}) *)
  trace_events : Ds_obs.Trace.event list;
  recovered : Ds_core.Journal.recovered;  (** post-run journal replay *)
  pending_live : Request.t list;
      (** scheduler [requests] tables at run end (all lanes) *)
  history_live : Request.t list;
      (** scheduler [history] tables at run end (all lanes) *)
  dead_live : Request.t list;  (** dead-letter relations at run end (all lanes) *)
  shards : int;  (** lanes the run executed with (1 = single scheduler) *)
  shard_of : int -> int option;
      (** routed lane per transaction; drives the cross-shard router
          soundness clause of the equivalence check when [shards > 1] *)
  repl_promoted : bool;  (** the run failed over to its hot standby *)
  repl_divergences : int;
      (** checkpoint-hash mismatches the replication session detected *)
  repl_failover : Ds_check.Equivalence.failover_report option;
      (** durability audit of a promoted run ([None] when no failover
          happened): client-acked transactions vs the promoted journal,
          classified against the replication watermark *)
  formulations : (formulation_run * formulation_run) option;
      (** the run and its rerun under a sibling formulation; [None] when
          the protocol has no sibling *)
}

(** [Ok ()] when the two runs have equal stats (host-time fields aside,
    {!Ds_core.Middleware.without_host_time}), [rte] logs and delivery
    orders; else where they first differ. *)
val same_formulation :
  formulation_run -> formulation_run -> (unit, string) result

(** The battery, in reporting order. Names are stable — they key the swarm
    report and the shrinker's failure-preservation test. *)
val battery : (string * (ctx -> (unit, string) result)) list

val names : string list

(** Run the complete battery (never short-circuits: every invariant is
    checked on every scenario). *)
val apply : ctx -> (string * (unit, string) result) list
