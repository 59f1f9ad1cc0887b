(** Open-loop batch simulation: the operating mode of the paper's §4.3
    ("pre-scheduled workloads"). Whole transactions arrive as a Poisson
    stream, every request of an arriving transaction enters the incoming
    queue at once, and a periodic scheduler cycle moves the qualified subset
    to the server. A transaction completes when its last request has
    executed. The cycle fires every 10 ms of virtual time on the default
    {!Ds_server.Cost_model}, and each cycle's measured wall-clock time delays
    its batch's dispatch. Runs are seeded with 42.

    Contrast with {!Middleware}, the closed-loop mode where each client holds
    one outstanding request. Open loop exposes saturation: beyond the
    server's capacity the backlog grows without bound. *)

open Ds_workload

type config = {
  arrival_rate : float;  (** transactions per second (Poisson arrivals) *)
  duration : float;  (** virtual seconds *)
  spec : Spec.t;
  protocol : Protocol.t;
}

val default_config : config

type stats = {
  offered_txns : int;  (** arrivals within the window *)
  completed_txns : int;
  completed_stmts : int;
  mean_latency : float;  (** arrival -> last request executed *)
  p95_latency : float;
  cycles : int;
  mean_cycle_time : float;  (** real seconds per scheduler cycle *)
  peak_backlog : int;  (** maximum pending-table size observed *)
  residual_pending : int;  (** requests still pending at the horizon *)
}

val run : config -> stats

val pp_stats : Format.formatter -> stats -> unit
