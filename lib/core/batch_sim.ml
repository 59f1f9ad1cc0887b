open Ds_model
open Ds_sim
open Ds_workload

type config = {
  arrival_rate : float;
  duration : float;
  spec : Spec.t;
  protocol : Protocol.t;
}

let default_config =
  {
    arrival_rate = 20.;
    duration = 10.;
    spec = Spec.paper_default;
    protocol = Builtin.ss2pl_ocaml;
  }

(* The scheduler fires every 10 ms of virtual time. *)
let cycle_period = 0.01

type stats = {
  offered_txns : int;
  completed_txns : int;
  completed_stmts : int;
  mean_latency : float;
  p95_latency : float;
  cycles : int;
  mean_cycle_time : float;
  peak_backlog : int;
  residual_pending : int;
}

type open_txn = { arrived : float; mutable remaining : int; data_stmts : int }

let run (cfg : config) =
  if cfg.arrival_rate <= 0. then invalid_arg "Batch_sim.run: arrival_rate <= 0";
  (match Spec.validate cfg.spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("Batch_sim.run: " ^ m));
  let engine = Engine.create () in
  let master = Rng.create 42 in
  let arrival_rng = Rng.split master in
  let gen = Generator.create cfg.spec (Rng.split master) in
  let sched = Scheduler.create cfg.protocol in
  let backend = Ds_server.Backend.create engine Ds_server.Cost_model.default in
  let in_flight : (int, open_txn) Hashtbl.t = Hashtbl.create 256 in
  let latencies = Ds_stats.Histogram.create () in
  let cycle_times = Ds_stats.Summary.create () in
  let offered = ref 0 in
  let completed = ref 0 in
  let completed_stmts = ref 0 in
  let peak_backlog = ref 0 in
  let ta_counter = ref 0 in
  let req_counter = ref 0 in
  (* Poisson arrivals: a whole transaction enters the queue at once. *)
  let rec arrive () =
    if Engine.now engine <= cfg.duration then begin
      incr offered;
      incr ta_counter;
      let txn = Generator.next_txn gen ~ta:!ta_counter in
      let now = Engine.now engine in
      Hashtbl.replace in_flight !ta_counter
        {
          arrived = now;
          remaining = Txn.length txn;
          data_stmts = List.length (Txn.data_requests txn);
        };
      List.iter
        (fun (r : Request.t) ->
          incr req_counter;
          Scheduler.submit sched
            { r with Request.id = !req_counter; arrival = now })
        txn.Txn.requests;
      let gap = Dist.sample (Dist.Exponential (1. /. cfg.arrival_rate)) arrival_rng in
      ignore (Engine.schedule engine ~after:gap arrive)
    end
  in
  let deliver (r : Request.t) =
    match Hashtbl.find_opt in_flight r.Request.ta with
    | None -> ()
    | Some t ->
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then begin
        Hashtbl.remove in_flight r.Request.ta;
        let now = Engine.now engine in
        if now <= cfg.duration then begin
          incr completed;
          completed_stmts := !completed_stmts + t.data_stmts;
          Ds_stats.Histogram.add latencies (now -. t.arrived)
        end
      end
  in
  let rec tick () =
    if Scheduler.queue_length sched > 0 || Scheduler.pending_count sched > 0
    then begin
      let qualified, stats = Scheduler.cycle sched in
      let dt = Scheduler.total_time stats.Scheduler.times in
      Ds_stats.Summary.add cycle_times dt;
      peak_backlog :=
        max !peak_backlog
          (stats.Scheduler.pending_before + stats.Scheduler.drained);
      ignore
        (Engine.schedule engine ~after:dt (fun () ->
             Ds_server.Backend.execute_seq backend qualified ~on_each:deliver
               (fun () -> ())))
    end;
    if Engine.now engine < cfg.duration then
      ignore (Engine.schedule engine ~after:cycle_period tick)
  in
  ignore (Engine.schedule engine ~after:0. arrive);
  ignore (Engine.schedule engine ~after:cycle_period tick);
  Engine.run_until engine ~until:cfg.duration;
  {
    offered_txns = !offered;
    completed_txns = !completed;
    completed_stmts = !completed_stmts;
    mean_latency = Ds_stats.Histogram.mean latencies;
    p95_latency = Ds_stats.Histogram.p95 latencies;
    cycles = Scheduler.cycles_run sched;
    mean_cycle_time = Ds_stats.Summary.mean cycle_times;
    peak_backlog = !peak_backlog;
    residual_pending = Scheduler.pending_count sched;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "offered=%d completed=%d stmts=%d latency(mean=%.3fs p95=%.3fs) cycles=%d \
     cycle=%.2fms backlog(peak=%d residual=%d)"
    s.offered_txns s.completed_txns s.completed_stmts s.mean_latency
    s.p95_latency s.cycles
    (1000. *. s.mean_cycle_time)
    s.peak_backlog s.residual_pending
