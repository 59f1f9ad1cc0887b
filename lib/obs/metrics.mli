(** Tiered latency metrics and per-cycle scheduler metrics.

    A {!t} is an online accumulator fed by the middleware loop: request
    latencies bucketed per SLA tier (one {!Ds_stats.Histogram} each) plus one
    {!cycle_row} per scheduler cycle (drain size, admit ratio, query-eval
    time). The [*_of_events] functions are the offline counterpart used by
    [dsched trace]: they recompute the same latency views from a loaded
    event list. *)

type cycle_row = {
  cycle : int;
  drained : int;  (** requests moved from the incoming queue to [pending] *)
  pending_before : int;  (** pending size when qualification started *)
  qualified : int;  (** requests admitted this cycle *)
  admit_ratio : float;  (** [qualified / max 1 (pending_before + drained)] *)
  query_time : float;  (** seconds spent evaluating the protocol query *)
  index_time : float;
      (** seconds of table index maintenance inside the cycle (subset of the
          cycle's phase times, reported by {!Ds_relal.Table}) *)
}

(** One parallel-backend worker's totals for the run. *)
type worker_row = {
  worker : int;
  executed : int;  (** data statements executed *)
  busy : float;  (** seconds of CPU busy time (virtual) *)
  utilization : float;  (** busy / (elapsed * cores) *)
}

type t

val create : unit -> t

(** Per-worker rows, set once at end of run by the middleware (every lane's
    pool, in lane order). Run-level counters (batches, makespans, worker
    faults, recovery, replication) live in [Middleware.stats] only. *)
val set_workers : t -> worker_row list -> unit

val workers : t -> worker_row list

(** [observe_latency t ~tier dt] adds one request latency (seconds) to the
    tier's histogram. *)
val observe_latency : t -> tier:string -> float -> unit

val record_cycle :
  t ->
  drained:int ->
  pending_before:int ->
  qualified:int ->
  query_time:float ->
  ?index_time:float ->
  unit ->
  unit

(** [(tier, n, p50, p95, p99)] per tier with at least one sample, in SLA
    urgency order (premium, standard, free), unknown tiers last. *)
val tier_quantiles : t -> (string * int * float * float * float) list

val cycles : t -> cycle_row list

(** Human-readable report: the tier table, cycle aggregates, and — when
    {!set_workers} was given rows — the per-worker utilization table. *)
val render : t -> string

(** Per-transaction latencies from a trace: [(tier, seconds)] for every TA
    whose span tree has a terminal event (see {!Span.latency}). *)
val latencies_of_events : Trace.event list -> (string * float) list

(** Offline version of {!tier_quantiles}. *)
val latency_rows : Trace.event list -> (string * int * float * float * float) list

val render_latency_rows : (string * int * float * float * float) list -> string

(** [lock_wait_offenders events] pairs each [Lock_wait] with the next
    [Lock_grant] for the same [(ta, seq, obj)] and aggregates per object:
    [(obj, total_wait_seconds, n_waits)], sorted by total wait descending,
    truncated to [top] (default 10). *)
val lock_wait_offenders :
  ?top:int -> Trace.event list -> (int * float * int) list
