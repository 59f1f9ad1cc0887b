(** Server facade for the middleware architecture (Figure 1): when the
    declarative scheduler has already decided the execution order, the server
    runs the qualified requests as a batch job with its own scheduler
    disabled ("use the schedules produced by our declaratively programmed
    component", §1). *)

open Ds_model
open Ds_sim

type t

(** [create ?worker engine cost] — [worker] is this backend's id in a
    {!Worker_pool}; when set, it is stamped as the [arg] of [exec_start]
    trace events so per-worker spans are attributable offline. *)
val create : ?worker:int -> Engine.t -> Cost_model.t -> t

(** The pool worker id this backend was created with, if any. *)
val worker : t -> int option

(** [execute_seq t requests ~on_each k] executes the batch in order, calling
    [on_each req] at each request's own completion time and [k] at the end.
    This preserves the schedule's intra-batch ordering, which is what makes
    SLA-priority ordering observable in response times. Failures injected by
    the fault hook are swallowed ([k] still runs at the point of failure);
    use {!execute_seq_result} to observe them. *)
val execute_seq :
  t -> Request.t list -> on_each:(Request.t -> unit) -> (unit -> unit) -> unit

(** Like {!execute_seq}, but consults the fault hook before each request.
    [`Stall d] delays that request [d] seconds (an IO hang — the cores stay
    free) and then executes it normally; [`Fail] charges the attempt's
    service time and finishes the batch early with [`Failed r], {e without}
    calling [on_each r] — the failed request and the unexecuted suffix are
    the caller's to retry. *)
val execute_seq_result :
  t ->
  Request.t list ->
  on_each:(Request.t -> unit) ->
  ([ `Completed | `Failed of Request.t ] -> unit) ->
  unit

(** Installs the per-request failure hook consulted by
    {!execute_seq_result} (default: everything [`Ok]). The middleware wires
    {!Ds_core.Faults.request_outcome} here. *)
val set_fault_hook :
  t -> (Request.t -> [ `Ok | `Fail | `Stall of float ]) -> unit

(** Attaches (or detaches, with [None]) a trace sink; {!execute_seq_result}
    emits [exec_start] when a request starts charging service time (with the
    worker id as [arg] if this backend belongs to a pool) and [exec_done] at
    its completion ([arg] 0 = ok, 1 = injected failure). *)
val set_trace : t -> Ds_obs.Trace.t option -> unit

(** Service time [execute_seq_result] would charge for one request. *)
val request_work : t -> Request.t -> float

(** Statements executed so far (data operations only). *)
val executed_stmts : t -> int

val cpu : t -> Cpu.t
