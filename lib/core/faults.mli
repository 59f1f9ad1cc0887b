(** Deterministic fault injection for the middleware loop.

    The paper positions the declarative scheduler as middleware for highly
    scalable systems; a middleware is only a system once it survives the
    failures such systems produce (Gray, "Queues Are Databases"). This module
    is a seeded fault {e plan} plus the runtime state needed to inject it:

    - {b transient batch failures}: a dispatched server batch fails at a
      random request; the remaining suffix must be retried;
    - {b stalls}: one request of a batch takes [stall_duration] extra
      seconds, tripping the middleware's per-batch timeout;
    - {b poison requests}: requests that fail on {e every} execution attempt
      (decided by a deterministic hash, so a poison request is still poison
      after a retry or a crash recovery);
    - {b client disconnects}: a client abandons its transaction after a few
      statements, leaving the middleware to clean up;
    - {b a middleware crash} at a chosen scheduler cycle, followed by a live
      {!Journal.recover}/{!Journal.restore} and continuation of the run.

    All randomness is drawn from a {!Ds_sim.Rng} stream, so a run with a
    fixed seed and a fixed plan is exactly reproducible. *)

open Ds_model

type plan = {
  batch_fail_rate : float;  (** per batch attempt: whole-batch transient failure *)
  stall_rate : float;  (** per batch attempt: one request stalls *)
  stall_duration : float;  (** seconds a stalled request hangs before completing *)
  poison_rate : float;  (** per data request: always-failing request *)
  disconnect_rate : float;  (** per transaction: client disconnects mid-txn *)
  crash_at_cycle : int option;
      (** crash the middleware at this scheduler cycle and recover from the
          journal *)
  worker_crash_rate : float;
      (** per dispatched batch: one pool worker crashes between conflict
          classes; its unstarted classes are reassigned and it rejoins at the
          next batch *)
  worker_death_rate : float;
      (** per dispatched batch: one pool worker dies permanently for the rest
          of the run *)
  worker_stall_rate : float;
      (** per dispatched batch: one pool worker turns straggler, adding
          [worker_stall_duration]-scaled latency to each class it runs *)
  worker_stall_duration : float;  (** straggler slowdown scale, in seconds *)
  pcrash_at_cycle : int option;
      (** kill the {e primary} permanently at this scheduler cycle and
          promote the hot standby (needs a replication session — see
          [Middleware.config.repl]); unlike [crash_at_cycle] the dead
          primary's disk is never consulted *)
}

(** The zero plan: no faults. [Middleware.default_config] uses it. *)
val none : plan

(** The plan's [key=value,...] format: one row per field, each with its
    key, range and help line. The functions below are derived from it. *)
val codec : plan Ds_util.Kv.t

val is_none : plan -> bool

(** True iff the plan injects any worker-scoped fault (crash, permanent
    death or straggler stall). *)
val has_worker_faults : plan -> bool

(** {!Ds_util.Kv.validate} over {!codec}. *)
val validate : plan -> (unit, string) result

(** {!Ds_util.Kv.of_string} over {!codec}: unknown keys are errors. *)
val plan_of_string : string -> (plan, string) result

val plan_to_string : plan -> string
val pp_plan : Format.formatter -> plan -> unit

(** [backoff ~base ~cap ~attempt] — capped exponential retry backoff:
    [min cap (base *. 2^(min 10 attempt))]. The exponent clamp keeps the
    shift well inside native-int range for any attempt count; the result is
    monotone non-decreasing in [attempt] and never exceeds [cap]. *)
val backoff : base:float -> cap:float -> attempt:int -> float

type t

(** [create plan rng] — [rng] drives every probabilistic draw. *)
val create : plan -> Ds_sim.Rng.t -> t

val plan : t -> plan

(** Draw this batch attempt's fate: possibly choose a victim request that
    will fail and/or one that will stall. Must be called once per dispatch
    attempt (retries included) before the batch executes. *)
val begin_attempt : t -> Request.t list -> unit

(** The backend's per-request failure hook (see
    {!Ds_server.Backend.set_fault_hook}): poison and the current attempt's
    victims fail or stall, everything else proceeds. *)
val request_outcome : t -> Request.t -> [ `Ok | `Fail | `Stall of float ]

(** Deterministic per-request poison predicate (stable across retries and
    crash recovery; terminals are never poison). *)
val is_poison : t -> Request.t -> bool

(** Drawn at transaction start: [Some n] means the client disconnects after
    its [n]-th executed data statement. *)
val draw_disconnect_after : t -> data_stmts:int -> int option

(** Injected-fault counters (transient batch failures / stalls drawn so
    far). *)
val injected_failures : t -> int

val injected_stalls : t -> int

(** [draw_worker_faults t ~alive] — draw this batch's worker fates among the
    currently-alive worker ids, in the form the worker pool's fault hook
    takes (see {!Ds_server.Worker_pool.worker_fault}). At most one fault
    per channel per batch; crash/death need at least two alive workers
    (never kill the last survivor). Draws are gated on nonzero rates so
    zero-rate plans consume no randomness from this channel. *)
val draw_worker_faults :
  t -> alive:int list -> Ds_server.Worker_pool.worker_fault list
