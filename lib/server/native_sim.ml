open Ds_model
open Ds_sim
open Ds_workload

(* Every run prices its work with the paper's server model. *)
let cost = Cost_model.default

type config = {
  n_clients : int;
  duration : float;
  spec : Spec.t;
  seed : int;
  log_schedule : bool;
  trace : Ds_obs.Trace.t option;
}

let default_config =
  {
    n_clients = 1;
    duration = 240.;
    spec = Spec.paper_default;
    seed = 42;
    log_schedule = false;
    trace = None;
  }

type stats = {
  n_clients : int;
  duration : float;
  committed_txns : int;
  committed_stmts : int;
  wasted_stmts : int;
  deadlocks : int;
  intrinsic_aborts : int;
  lock_waits : int;
  total_wait_time : float;
  cpu_busy : float;
  cpu_utilization : float;
  mean_txn_latency : float;
  p95_txn_latency : float;
  schedule : Schedule.entry list;
  final_store : Row_store.t;
}

type client = {
  cid : int;
  gen : Generator.t;
  mutable txn : Txn.t;  (** transaction being executed (retried on deadlock) *)
  mutable attempt : int;  (** lock-table transaction id of the current attempt *)
  mutable remaining : Request.t list;
  mutable executed : (Op.t * int) list;  (** reverse order *)
  mutable txn_start : float;
  mutable wait_start : float;
  mutable next_ta : int;
  mutable undo : (int * int) list;  (** (row, before-image), newest first *)
}

type sim = {
  cfg : config;
  engine : Engine.t;
  cpu : Cpu.t;
  locks : Lock_manager.t;
  store : Row_store.t;
  clients : client array;
  by_attempt : (int, client) Hashtbl.t;
  mutable attempt_counter : int;
  log : Schedule.t;
  committed : (int, unit) Hashtbl.t;  (** committed attempt ids *)
  latencies : Ds_stats.Histogram.t;
  mutable committed_txns : int;
  mutable committed_stmts : int;
  mutable wasted_stmts : int;
  mutable deadlocks : int;
  mutable intrinsic_aborts : int;
  mutable lock_waits : int;
  mutable total_wait_time : float;
  rng : Rng.t;
}

(* Trace events use the lock-table attempt id as the TA: each deadlock
   retry is a fresh attempt with its own span tree and (at most one)
   terminal, even though the logical transaction is re-run. *)
let emit_ev sim client ?(arg = -1) kind (req : Request.t) =
  Ds_obs.Trace.emit sim.cfg.trace kind ~ta:client.attempt
    ~seq:req.Request.intrata
    ~op:(Op.to_char req.Request.op)
    ?obj:req.Request.obj ~arg
    ~tier:(Sla.tier_to_string client.txn.Txn.sla.Sla.tier)
    ()

let emit_terminal sim client kind =
  Ds_obs.Trace.emit_txn sim.cfg.trace
    ~tier:(Sla.tier_to_string client.txn.Txn.sla.Sla.tier)
    kind ~ta:client.attempt

let fresh_attempt sim client =
  sim.attempt_counter <- sim.attempt_counter + 1;
  Hashtbl.remove sim.by_attempt client.attempt;
  client.attempt <- sim.attempt_counter;
  Hashtbl.replace sim.by_attempt client.attempt client

(* Begin (or, for a deadlock victim, retry) a transaction for [client]. *)
let rec start_txn sim client ~retry =
  if not retry then begin
    client.txn <- Generator.next_txn client.gen ~ta:client.next_ta;
    client.next_ta <- client.next_ta + sim.cfg.n_clients
  end;
  fresh_attempt sim client;
  client.undo <- [];
  client.remaining <- client.txn.Txn.requests;
  client.executed <- [];
  client.txn_start <- Engine.now sim.engine;
  next_stmt sim client

and next_stmt sim client =
  match client.remaining with
  | [] -> assert false (* transactions always end with a terminal op *)
  | req :: _ -> (
    match req.Request.op with
    | Op.Read | Op.Write -> acquire_and_exec sim client req
    | Op.Commit -> do_commit sim client
    | Op.Abort -> do_intrinsic_abort sim client)

and acquire_and_exec sim client req =
  let obj = Option.get req.Request.obj in
  let mode =
    match req.Request.op with
    | Op.Read -> Lock_manager.S
    | Op.Write -> Lock_manager.X
    | Op.Abort | Op.Commit -> assert false
  in
  match Lock_manager.acquire sim.locks ~txn:client.attempt ~obj ~mode with
  | Lock_manager.Granted ->
    emit_ev sim client Ds_obs.Trace.Sched_admit req;
    exec_stmt sim client req
  | Lock_manager.Blocked ->
    sim.lock_waits <- sim.lock_waits + 1;
    client.wait_start <- Engine.now sim.engine;
    (* The contention check itself costs server CPU. *)
    Cpu.submit sim.cpu ~work:cost.Cost_model.deadlock_check_cost
      (fun () -> ());
    check_deadlock sim client

and check_deadlock sim client =
  let successors txn = Lock_manager.blockers sim.locks ~txn in
  (* One blocked acquire adds a waits-for edge to *every* current holder, so
     it can close several cycles at once. Aborting a single victim only breaks
     the one cycle it sits on; the others would never be re-examined (their
     members are all blocked, so no further acquire fires detection) and would
     starve. Resolve until no cycle remains through the requester — every
     newly created cycle must pass through it. *)
  let rec resolve () =
    match Deadlock.find_cycle ~successors client.attempt with
    | None -> ()
    | Some cycle ->
      sim.deadlocks <- sim.deadlocks + 1;
      let victim_attempt = Deadlock.pick_victim cycle in
      let victim = Hashtbl.find sim.by_attempt victim_attempt in
      abort_attempt sim victim ~restart:true;
      if victim_attempt <> client.attempt then resolve ()
  in
  resolve ()

(* Roll back the victim's work and (optionally) retry the same transaction
   after a backoff. A deadlock victim is blocked and an intrinsic abort is
   its transaction's next step, so no statement of the victim is in flight. *)
and abort_attempt sim victim ~restart =
  emit_terminal sim victim Ds_obs.Trace.Abort;
  (* Roll the data back while the X locks are still held. *)
  List.iter (fun (row, before) -> Row_store.write sim.store row before) victim.undo;
  victim.undo <- [];
  let newly = Lock_manager.release_all sim.locks ~txn:victim.attempt in
  let undo =
    float_of_int (List.length victim.executed)
    *. cost.Cost_model.abort_cost_per_stmt
  in
  sim.wasted_stmts <- sim.wasted_stmts + List.length victim.executed;
  victim.executed <- [];
  victim.remaining <- [];
  let delay =
    cost.Cost_model.restart_delay *. (0.5 +. Rng.float sim.rng)
  in
  Cpu.submit sim.cpu ~work:undo (fun () ->
      ignore
        (Engine.schedule sim.engine ~after:delay (fun () ->
             start_txn sim victim ~retry:restart)));
  wake_granted sim newly

and wake_granted sim newly =
  List.iter
    (fun (attempt, obj) ->
      match Hashtbl.find_opt sim.by_attempt attempt with
      | None -> () (* already gone *)
      | Some client -> resume_after_grant sim client obj)
    newly

and resume_after_grant sim client obj =
  sim.total_wait_time <-
    sim.total_wait_time +. (Engine.now sim.engine -. client.wait_start);
  match client.remaining with
  | req :: _ when req.Request.obj = Some obj ->
    emit_ev sim client Ds_obs.Trace.Sched_admit req;
    exec_stmt sim client req
  | _ -> assert false

and exec_stmt sim client req =
  let work = Cost_model.stmt_cost cost ~locking:true in
  emit_ev sim client Ds_obs.Trace.Exec_start req;
  Cpu.submit sim.cpu ~work (fun () ->
      let obj = Option.get req.Request.obj in
      let value =
        match req.Request.op with
        | Op.Read ->
          ignore (Row_store.read sim.store obj);
          0
        | Op.Write ->
          client.undo <- (obj, Row_store.read sim.store obj) :: client.undo;
          let v = client.attempt in
          Row_store.write sim.store obj v;
          v
        | Op.Abort | Op.Commit -> 0
      in
      client.executed <- (req.Request.op, obj) :: client.executed;
      emit_ev sim client ~arg:0 Ds_obs.Trace.Exec_done req;
      if sim.cfg.log_schedule then
        Schedule.append sim.log
          { Schedule.ta = client.attempt; op = req.Request.op; obj; value };
      client.remaining <- List.tl client.remaining;
      next_stmt sim client)

and do_commit sim client =
  Cpu.submit sim.cpu ~work:cost.Cost_model.commit_service (fun () ->
      (* Log the commit point itself: the correctness checker needs terminal
         positions to decide strictness and commit ordering. *)
      if sim.cfg.log_schedule then
        Schedule.append sim.log
          { Schedule.ta = client.attempt; op = Op.Commit; obj = -1; value = 0 };
      emit_terminal sim client Ds_obs.Trace.Commit;
      let now = Engine.now sim.engine in
      if now <= sim.cfg.duration then begin
        sim.committed_txns <- sim.committed_txns + 1;
        sim.committed_stmts <- sim.committed_stmts + List.length client.executed;
        Hashtbl.replace sim.committed client.attempt ();
        Ds_stats.Histogram.add sim.latencies (now -. client.txn_start)
      end;
      client.undo <- [];
      let newly = Lock_manager.release_all sim.locks ~txn:client.attempt in
      wake_granted sim newly;
      let think = Dist.sample cost.Cost_model.think_time sim.rng in
      (if think <= 0. then start_txn sim client ~retry:false
      else
        ignore
          (Engine.schedule sim.engine ~after:think (fun () ->
               start_txn sim client ~retry:false))))

and do_intrinsic_abort sim client =
  sim.intrinsic_aborts <- sim.intrinsic_aborts + 1;
  abort_attempt sim client ~restart:false

let run (cfg : config) =
  if cfg.n_clients <= 0 then invalid_arg "Native_sim.run: n_clients <= 0";
  (match Spec.validate cfg.spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("Native_sim.run: " ^ m));
  let engine = Engine.create () in
  let master_rng = Rng.create cfg.seed in
  let sim =
    {
      cfg;
      engine;
      cpu = Cpu.create engine ~n_cores:cost.Cost_model.n_cores;
      locks = Lock_manager.create ();
      store = Row_store.create ~n_rows:cfg.spec.Spec.n_objects;
      clients = [||];
      by_attempt = Hashtbl.create (4 * cfg.n_clients);
      attempt_counter = 0;
      log = Schedule.create ();
      committed = Hashtbl.create 1024;
      latencies = Ds_stats.Histogram.create ();
      committed_txns = 0;
      committed_stmts = 0;
      wasted_stmts = 0;
      deadlocks = 0;
      intrinsic_aborts = 0;
      lock_waits = 0;
      total_wait_time = 0.;
      rng = Rng.split master_rng;
    }
  in
  let clients =
    Array.init cfg.n_clients (fun i ->
        {
          cid = i;
          gen = Generator.create cfg.spec (Rng.split master_rng);
          txn = Generator.next_txn (Generator.create Spec.small (Rng.create 0)) ~ta:0;
          attempt = 0;
          remaining = [];
          executed = [];
          txn_start = 0.;
          wait_start = 0.;
          next_ta = i + 1;
          undo = [];
        })
  in
  let sim = { sim with clients } in
  (match cfg.trace with
  | None -> ()
  | Some tr ->
    Ds_obs.Trace.set_clock tr (fun () -> Engine.now engine);
    Lock_manager.set_observer sim.locks
      ~on_wait:(fun ~txn ~obj ~blocker ->
        match Hashtbl.find_opt sim.by_attempt txn with
        | Some c -> (
          match c.remaining with
          | req :: _ -> emit_ev sim c ~arg:blocker Ds_obs.Trace.Lock_wait req
          | [] ->
            Ds_obs.Trace.emit cfg.trace Ds_obs.Trace.Lock_wait ~ta:txn
              ~seq:(-1) ~obj ~arg:blocker ())
        | None ->
          Ds_obs.Trace.emit cfg.trace Ds_obs.Trace.Lock_wait ~ta:txn ~seq:(-1)
            ~obj ~arg:blocker ())
      ~on_grant:(fun ~txn ~obj ->
        match Hashtbl.find_opt sim.by_attempt txn with
        | Some c -> (
          match c.remaining with
          | req :: _ -> emit_ev sim c Ds_obs.Trace.Lock_grant req
          | [] ->
            Ds_obs.Trace.emit cfg.trace Ds_obs.Trace.Lock_grant ~ta:txn
              ~seq:(-1) ~obj ())
        | None ->
          Ds_obs.Trace.emit cfg.trace Ds_obs.Trace.Lock_grant ~ta:txn ~seq:(-1)
            ~obj ()));
  Array.iter
    (fun c -> ignore (Engine.schedule engine ~after:0. (fun () -> start_txn sim c ~retry:false)))
    clients;
  Engine.run_until engine ~until:cfg.duration;
  (* The measurement window closes with transactions still in flight; roll
     their uncommitted writes back (what crash recovery would do), so the
     final store reflects exactly the committed schedule. *)
  Array.iter
    (fun c ->
      List.iter
        (fun (row, before) -> Row_store.write sim.store row before)
        c.undo;
      c.undo <- [])
    clients;
  {
    n_clients = cfg.n_clients;
    duration = cfg.duration;
    committed_txns = sim.committed_txns;
    committed_stmts = sim.committed_stmts;
    wasted_stmts = sim.wasted_stmts;
    deadlocks = sim.deadlocks;
    intrinsic_aborts = sim.intrinsic_aborts;
    lock_waits = sim.lock_waits;
    total_wait_time = sim.total_wait_time;
    cpu_busy = Cpu.busy_time sim.cpu;
    cpu_utilization = Cpu.utilization sim.cpu;
    mean_txn_latency = Ds_stats.Histogram.mean sim.latencies;
    p95_txn_latency = Ds_stats.Histogram.p95 sim.latencies;
    schedule =
      (if cfg.log_schedule then
         Schedule.filter sim.log (Hashtbl.mem sim.committed)
       else []);
    final_store = sim.store;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "clients=%d window=%.0fs committed_txns=%d committed_stmts=%d deadlocks=%d \
     wasted=%d waits=%d wait_time=%.1fs cpu=%.0f%% \
     latency(mean=%.3fs p95=%.3fs)"
    s.n_clients s.duration s.committed_txns s.committed_stmts s.deadlocks
    s.wasted_stmts s.lock_waits s.total_wait_time
    (100. *. s.cpu_utilization) s.mean_txn_latency s.p95_txn_latency
