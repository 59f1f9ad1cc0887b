(** Deterministic-simulation scenarios: one point in the configuration
    cross-product the swarm harness sweeps.

    A scenario fully determines a middleware run — workload shape, SLA mix,
    protocol, worker count, fault plan (worker faults and crash/recover
    points included), checkpoint interval and queue bound — plus the
    middleware seed. Running the same scenario twice produces bit-identical
    schedules and counters, so a scenario value {e is} the repro: the swarm
    report embeds it as JSON and [dsched swarm --replay] re-runs it.

    Scenarios only use protocols with a serializability guarantee, because
    the invariant battery ({!Invariant}) checks the executed schedule with
    the full serializability predicate set. *)

open Ds_core

type access = Uniform | Zipf | Hotspot

(** Test-only fault hook: a deterministic corruption applied to the {e
    observed} run artifacts (the rte log and the merged delivery order)
    before the invariant battery runs — never to the run itself. It
    simulates a buggy scheduler so the shrinker and the failure-reporting
    path can be exercised (and regression-tested) without actually breaking
    the scheduler. The generator never samples injections; they enter only
    through hand-written scenarios and replay files. Indices wrap modulo the
    artifact length, so a shrunk run keeps its injection valid. *)
type inject =
  | Dup_delivery of int  (** duplicate the k-th entry of the merged order *)
  | Drop_rte of int  (** delete the k-th rte entry (merged keeps it) *)
  | Swap_rte of int
      (** swap the k-th rte entry that has a later conflicting partner with
          that partner (commuting swaps are unobservable, and under 2PL
          conflicting entries are never adjacent; no-op if nothing
          conflicts) *)

(** Hot-standby replication dimension: the run streams its journal to a warm
    standby over a faulty {!Ds_replica.Link}, and a [pcrash=N] fault in the
    scenario's plan fails over to it mid-run (epoch-fenced promotion). *)
type repl = {
  repl_sync : bool;  (** gate commit acks on the replication watermark *)
  repl_link : Ds_replica.Link.plan;
}

type t = {
  seed : int;  (** middleware + workload seed *)
  clients : int;
  duration : float;  (** virtual seconds *)
  n_objects : int;
  stmts_per_txn : int;  (** SELECTs and UPDATEs per transaction (each) *)
  access : access;
  sla_mix : bool;  (** premium/standard/free mix vs all-standard *)
  protocol : string;  (** a {!Ds_core.Builtin} name from {!protocols} *)
  workers : int;  (** pool size K *)
  shards : int;
      (** scheduler lanes S ({!Ds_core.Middleware.config.shards}); [1] is
          the single-scheduler middleware. Optional in the JSON codec
          (default 1), so pre-sharding scenario files replay unchanged. *)
  faults : Faults.plan;
  checkpoint : int option;  (** journal checkpoint interval, cycles *)
  queue_cap : int option;  (** incoming-queue bound (shedding/backpressure) *)
  hedging : bool;
  inject : inject option;
  repl : repl option;
      (** hot-standby replication session; requires [shards = 1], excludes
          the [crash] fault ([pcrash] is the failure model for replicated
          runs and requires this). Optional in the JSON codec (default
          [None]), so pre-replication scenario files replay unchanged. *)
}

(** Builtin protocol names eligible for scenarios (serializable guarantee
    only). *)
val protocols : string list

(** The middleware config a run of the scenario uses, host time not
    charged; the caller adds a replicated scenario's session hooks. *)
val config :
  ?trace:Ds_obs.Trace.t -> t -> protocol:Ds_core.Protocol.t ->
  journal_path:string -> Ds_core.Middleware.config

(** The scenario's own rules (protocol, clients, duration, statements), then
    {!Ds_core.Middleware.validate} on its {!config}. *)
val validate : t -> (unit, string) result

val to_json : t -> Ds_obs.Json.t

(** @return [Error _] on malformed JSON or a scenario failing {!validate}. *)
val of_json : Ds_obs.Json.t -> (t, string) result

(** One-line [key=value] rendering for logs and failure messages. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
