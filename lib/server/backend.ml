open Ds_model
open Ds_sim

type t = {
  engine : Engine.t;
  cpu_ : Cpu.t;
  cost : Cost_model.t;
  worker : int option;
  mutable executed : int;
  mutable fault_hook : Request.t -> [ `Ok | `Fail | `Stall of float ];
  mutable trace : Ds_obs.Trace.t option;
}

let create ?worker engine cost =
  {
    engine;
    cpu_ = Cpu.create engine ~n_cores:cost.Cost_model.n_cores;
    cost;
    worker;
    executed = 0;
    fault_hook = (fun _ -> `Ok);
    trace = None;
  }

let worker t = t.worker

let emit_start t r =
  match t.worker with
  | None -> Ds_obs.Trace.emit_req t.trace Ds_obs.Trace.Exec_start r
  | Some w -> Ds_obs.Trace.emit_req t.trace ~arg:w Ds_obs.Trace.Exec_start r

let set_fault_hook t hook = t.fault_hook <- hook

let set_trace t trace = t.trace <- trace

let request_work t (r : Request.t) =
  match r.Request.op with
  | Op.Read | Op.Write -> Cost_model.stmt_cost t.cost ~locking:false
  | Op.Commit | Op.Abort -> t.cost.Cost_model.commit_service

let execute_seq_result t requests ~on_each k =
  let rec step = function
    | [] -> k `Completed
    | r :: rest -> (
      let run_ok () =
        emit_start t r;
        Cpu.submit t.cpu_ ~work:(request_work t r) (fun () ->
            if Request.is_data r then t.executed <- t.executed + 1;
            Ds_obs.Trace.emit_req t.trace ~arg:0 Ds_obs.Trace.Exec_done r;
            on_each r;
            step rest)
      in
      match t.fault_hook r with
      | `Ok -> run_ok ()
      | `Stall d ->
        (* A stall is an IO hang, not CPU work: the request sits for [d]
           seconds (cores stay free), then executes normally. *)
        ignore (Engine.schedule t.engine ~after:d run_ok)
      | `Fail ->
        (* The server charged the attempt but the request failed; the
           middleware sees the failure at the request's completion time. *)
        emit_start t r;
        Cpu.submit t.cpu_ ~work:(request_work t r) (fun () ->
            Ds_obs.Trace.emit_req t.trace ~arg:1 Ds_obs.Trace.Exec_done r;
            k (`Failed r)))
  in
  if requests = [] then ignore (Engine.schedule t.engine ~after:0. (fun () -> k `Completed))
  else step requests

let execute_seq t requests ~on_each k =
  execute_seq_result t requests ~on_each (fun _ -> k ())

let executed_stmts t = t.executed

let cpu t = t.cpu_
