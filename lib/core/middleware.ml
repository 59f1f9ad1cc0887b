open Ds_model
open Ds_sim
open Ds_workload

(* Hot-standby replication is provided by the [ds_replica] library, which
   depends on this one; the middleware sees it only through this closure
   record (constructed by [Ds_replica.Session.hooks]) so the dependency
   stays one-way. *)
type repl_promotion = {
  rp_recovered : Journal.recovered;
  rp_journal : Journal.t;
}

type repl_status = {
  rs_epoch : int;
  rs_watermark : int;
  rs_primary_lsn : int;
  rs_lag : int;
  rs_fenced : int;
  rs_divergences : int;
  rs_sync : bool;
}

type repl_hooks = {
  repl_attach : Journal.t -> unit;
  repl_set_clock : (unit -> float) -> unit;
  repl_pump : now:float -> unit;
  repl_synced : ta:int -> bool;
  repl_promote : unit -> repl_promotion;
  repl_status : unit -> repl_status;
}

type config = {
  n_clients : int;
  duration : float;
  spec : Spec.t;
  workers : int;
  shards : int;
  seed : int;
  protocol : Protocol.t;
  trigger : Trigger.t;
  charge_scheduler_time : bool;
  prune_history : bool;
  starvation_cycles : int;
  faults : Faults.plan;
  queue_capacity : int option;
  journal_path : string option;
  sync_journal : bool;
  checkpoint_interval : int option;
  hedging : bool;
  repl : repl_hooks option;
  trace : Ds_obs.Trace.t option;
  metrics : Ds_obs.Metrics.t option;
}

(* The client contract under a non-empty fault plan: aborted transactions
   are redone, a batch attempt is abandoned after [attempt_timeout] virtual
   seconds, and a request is dead-lettered once it has failed more than
   [retry_budget] times in a row. A fault-free run has no timeout and no
   redo. *)
let attempt_timeout = 0.25
let retry_budget = 3

let default_config =
  {
    n_clients = 10;
    duration = 10.;
    spec = Spec.paper_default;
    workers = 1;
    shards = 1;
    seed = 42;
    protocol = Builtin.ss2pl_ocaml;
    trigger = Trigger.Hybrid (0.01, 50);
    charge_scheduler_time = true;
    prune_history = true;
    starvation_cycles = 50;
    faults = Faults.none;
    queue_capacity = None;
    journal_path = None;
    sync_journal = false;
    checkpoint_interval = None;
    hedging = false;
    repl = None;
    trace = None;
    metrics = None;
  }

type stats = {
  committed_txns : int;
  committed_stmts : int;
  aborted_txns : int;
  cycles : int;
  mean_cycle_time : float;
  p95_cycle_time : float;
  mean_batch : float;
  mean_pending : float;
  scheduler_time : float;
  mean_txn_latency : float;
  p95_txn_latency : float;
  latency_by_tier : (Sla.tier * float * float * int) list;
  retries : int;
  timeouts : int;
  injected_failures : int;
  injected_stalls : int;
  shed_txns : int;
  backpressure_waits : int;
  dead_lettered : int;
  disconnects : int;
  crashes : int;
  workers : int;
  batches_dispatched : int;
  mean_batch_makespan : float;
  p95_batch_makespan : float;
  worker_crashes : int;
  worker_deaths : int;
  worker_stalls : int;
  reassigned_classes : int;
  hedged_classes : int;
  checkpoints : int;
  recovery_replayed : int;
  recovery_skipped : int;
  recovery_time : float;
  shards : int;
  global_lane_txns : int;
  shard_deferrals : int;
  failovers : int;
  repl_epoch : int;
  repl_watermark : int;
  repl_lag : int;
  repl_fenced : int;
  repl_divergences : int;
}

type client = {
  gen : Generator.t;
  mutable txn : Txn.t;
  mutable remaining : Request.t list;
  mutable txn_start : float;
  mutable outstanding : Request.t option;
  mutable stall_cycles : int;
  mutable admitted_in : int;
      (** the cycle ([sim.cycles_done]) that admitted [outstanding] *)
  mutable data_stmts : int;  (** executed data statements of current txn *)
  mutable disconnect_after : int option;
      (** injected fault: client disconnects after this many data stmts *)
  mutable redo : Txn.t option;
      (** under faults, the txn to re-run after a middleware abort *)
  mutable lane : int;  (** scheduler lane the current txn is routed to *)
  mutable entered : bool;
      (** the current txn has submitted at least one request to its lane
          (counted in the lane's [active]) and has not yet ended *)
}

(* One dispatch attempt of a batch. [closed] flips when the attempt ends
   (completion, failure handling, timeout) and suppresses late events from the
   server — after a timeout the server may still grind through the abandoned
   suffix, but those completions are wasted work, not deliveries. *)
type attempt = {
  mutable closed : bool;
  batch : Request.t list;
  delivered : (int * int, unit) Hashtbl.t;  (** keys delivered so far *)
}

(* The batch suffix still owed, in batch order. Only a timeout or a failure
   needs it, so deliveries just record their key. *)
let undelivered att =
  List.filter (fun q -> not (Hashtbl.mem att.delivered (Request.key q))) att.batch

(* One scheduler lane. At S=1 there is exactly one lane holding today's
   single scheduler; at S>1 there are S shard lanes (lane [i] owns object
   group [i]) plus the global lane at index S, which runs the multi-group
   transactions behind a drain barrier. Each lane owns a full scheduler
   (requests/history relations, prepared protocol query), its own backend
   pool and its own journal segment. *)
type lane = {
  lane_id : int;
  pool : Ds_server.Worker_pool.t;
  mutable sched : Scheduler.t;
  mutable journal : Journal.t option;
  journal_path : string option;
  mutable fire_pending : bool;
  mutable last_cycle_at : float;
  mutable active : int;
      (** entered, unfinished transactions routed to this lane *)
}

type sim = {
  cfg : config;
  engine : Engine.t;
  lanes : lane array;
  clients : client array;
  by_ta : (int, client) Hashtbl.t;
  rng : Rng.t;
  route_of : (int, int) Hashtbl.t;
      (** ta -> lane id, for the whole run (never pruned: the checker's
          shard_of view) *)
  holding_tas : (int, unit) Hashtbl.t;
      (** global-lane transactions with admitted (= lock-holding, under
          SS2PL) requests that have not ended; only maintained at S>1 *)
  stamps : (int * int, int) Hashtbl.t;
      (** qualified key -> global admission sequence (S>1 only) *)
  gseq : int ref;  (** next global admission sequence number *)
  stamp : (Request.t -> int) option;
      (** the {!Scheduler.create} stamp hook shared by every lane (S>1) *)
  mutable faults : Faults.t option;
  mutable epoch : int;  (** bumped at crash; stale server callbacks check it *)
  mutable crash_done : bool;
  mutable pcrash_done : bool;
  mutable ack_gate : (ta:int -> bool) option;
      (** under sync replication, until a failover: whether [ta]'s journal
          records have reached the standby; its commit ack waits until then *)
  mutable failovers : int;
  mutable cycles_done : int;
  mutable ta_counter : int;
  mutable req_counter : int;
  delivered : (int * int) Ds_util.Vec.t;
      (** keys in cross-lane delivery order since start-up or the last
          crash or failover *)
  mutable committed_txns : int;
  mutable committed_stmts : int;
  mutable aborted_txns : int;
  fail_streaks : (int * int, int) Hashtbl.t;
      (** consecutive failed attempts per request key; cleared on delivery *)
  mutable retries : int;
  mutable timeouts : int;
  mutable shed_txns : int;
  mutable backpressure_waits : int;
  mutable dead_lettered : int;
  mutable disconnects : int;
  mutable crashes : int;
  mutable global_lane_txns : int;
  mutable shard_deferrals : int;
  parked : client Queue.t;
      (** new shard-lane transactions waiting, FIFO, for the global lane to
          go idle (S>1 only) *)
  mutable checkpoints_acc : int;
      (** checkpoints written by journals already crashed and replaced *)
  mutable recovery_replayed : int;
  mutable recovery_skipped : int;
  mutable recovery_time : float;
  cycle_times : Ds_stats.Summary.t;
  cycle_times_hist : Ds_stats.Histogram.t;
  batch_sizes : Ds_stats.Summary.t;
  pending_sizes : Ds_stats.Summary.t;
  latencies : Ds_stats.Histogram.t;
  tier_latencies : (Sla.tier, Ds_stats.Histogram.t) Hashtbl.t;
}

(* A lane's scheduler, fresh at start-up or rebuilt from [recovered] state
   after a crash or failover. ~rte keeps the execution log continuous across
   the rebuild, so the whole run still check-validates as one schedule. *)
let lane_sched cfg ~stamp ?journal ?recovered () =
  let sched =
    Scheduler.create ~prune_history_each_cycle:cfg.prune_history ?journal
      ?checkpoint_every:cfg.checkpoint_interval ?trace:cfg.trace ?stamp
      cfg.protocol
  in
  let rels = Scheduler.relations sched in
  Option.iter (fun r -> Journal.restore ~rte:true r rels) recovered;
  sched

let renumber sim (r : Request.t) =
  sim.req_counter <- sim.req_counter + 1;
  { r with Request.id = sim.req_counter; arrival = Engine.now sim.engine }

(* Deterministic shard router: a transaction's object-group footprint is the
   set of [obj mod S] over its data operations. Single-group transactions go
   to the owning shard lane; terminal-only ones (no data footprint) hash by
   TA; multi-group transactions escalate to the global lane [S]. *)
let route sim (txn : Txn.t) ~ta =
  let s = sim.cfg.shards in
  if s <= 1 then 0
  else begin
    let groups = Hashtbl.create 8 in
    List.iter
      (fun (r : Request.t) ->
        match r.Request.obj with
        | Some o -> Hashtbl.replace groups (o mod s) ()
        | None -> ())
      txn.Txn.requests;
    match Hashtbl.length groups with
    | 0 -> ta mod s
    | 1 -> Hashtbl.fold (fun g () _ -> g) groups 0
    | _ -> s
  end

(* The lane a transaction was routed to; every TA is routed when it starts. *)
let lane_of sim ta = sim.lanes.(Hashtbl.find sim.route_of ta)

(* A lane with queued, pending or in-flight transactions. "In-flight"
   ([active]) matters because a transaction between statements — last
   response delivered, next not yet submitted — is invisible to both queue
   and pending counts. *)
let lane_busy lane =
  lane.active > 0
  || Scheduler.queue_length lane.sched > 0
  || Scheduler.pending_count lane.sched > 0

(* Parked shard-lane clients with nothing left to wait for: the global lane
   (lane [S]) is idle. Only asked at S>1, the only layout with a global
   lane and the only one where anything parks. *)
let wake_due sim =
  (not (Queue.is_empty sim.parked))
  && not (lane_busy sim.lanes.(sim.cfg.shards))

(* SS2PL across lanes: the global lane admits work only when every shard
   lane is fully drained (its conflicts may span any pair of shards), and
   shard lanes admit work only while no global transaction holds locks.
   Global transactions merely *queued* don't block shard cycles — the
   shard lanes must keep cycling to drain toward the barrier. *)
let barrier_clear sim lane =
  let s = sim.cfg.shards in
  if lane.lane_id = s then
    let rec drained i =
      i = s || ((not (lane_busy sim.lanes.(i))) && drained (i + 1))
    in
    drained 0
  else Hashtbl.length sim.holding_tas = 0

(* Centralized transaction teardown: every way a transaction leaves the
   system (terminal delivered, aborted, reconciled away after a crash) goes
   through here so the lane [active] counts and the global lane's lock
   holders, which the barrier relies on, stay consistent. *)
let rec end_txn sim ta =
  (match Hashtbl.find_opt sim.by_ta ta with
  | Some c ->
    Hashtbl.remove sim.by_ta ta;
    if c.entered then begin
      c.entered <- false;
      let l = lane_of sim ta in
      l.active <- l.active - 1;
      if l.lane_id = sim.cfg.shards then wake_parked sim
    end
  | None -> ());
  Hashtbl.remove sim.holding_tas ta

and start_txn sim client =
  sim.ta_counter <- sim.ta_counter + 1;
  let ta = sim.ta_counter in
  Hashtbl.replace sim.by_ta ta client;
  (match client.redo with
  | Some txn ->
    (* Client-side transaction retry: re-run the aborted transaction's
       operations under a fresh TA (new locks, new poison hash). *)
    client.redo <- None;
    let ops =
      List.map
        (fun (r : Request.t) -> (r.Request.op, r.Request.obj))
        txn.Txn.requests
    in
    client.txn <- Txn.make ~ta ~sla:txn.Txn.sla ops
  | None -> client.txn <- Generator.next_txn client.gen ~ta);
  client.remaining <- client.txn.Txn.requests;
  client.txn_start <- Engine.now sim.engine;
  client.data_stmts <- 0;
  client.stall_cycles <- 0;
  client.disconnect_after <-
    Option.bind sim.faults (fun f ->
        Faults.draw_disconnect_after f
          ~data_stmts:
            (List.length (List.filter Request.is_data client.txn.Txn.requests)));
  let lane_id = route sim client.txn ~ta in
  client.lane <- lane_id;
  Hashtbl.replace sim.route_of ta lane_id;
  if sim.cfg.shards > 1 then begin
    if lane_id = sim.cfg.shards then
      sim.global_lane_txns <- sim.global_lane_txns + 1;
    Ds_obs.Trace.emit sim.cfg.trace Ds_obs.Trace.Shard_route ~ta ~seq:(-1)
      ~arg:lane_id ()
  end;
  begin_txn sim client

(* Lane admission control: a NEW shard-lane transaction parks on the wait
   list while the global lane has outstanding work, so the shard lanes drain
   toward the barrier instead of starving the global lane forever.
   Global-lane transactions enqueue immediately — they wait at the barrier
   inside their own lane. Never parks at S=1. *)
and begin_txn sim client =
  let s = sim.cfg.shards in
  if s > 1 && client.lane < s && lane_busy sim.lanes.(s) then begin
    sim.shard_deferrals <- sim.shard_deferrals + 1;
    Queue.push client sim.parked
  end
  else begin
    client.entered <- true;
    let l = sim.lanes.(client.lane) in
    l.active <- l.active + 1;
    submit_next sim client
  end

(* Release the wait list once the global lane is idle. It can only go idle
   where [end_txn] lowers its [active], where its [run_cycle] empties its
   queue and pending table, and where [recover_lanes] rebuilds the counts;
   those are the only callers. A request waits in a lane's queue or pending
   table only while its transaction is entered there (an abort drops the
   transaction's pending requests before it ends it, and recovery restores
   only live transactions' requests), so today only the first of the three
   finds the lane idle; the other two keep the wait list safe should that
   change. One zero-delay event releases every parked client in FIFO
   order. A global transaction that entered at the same
   instant (a global client starting its next transaction) keeps them all
   parked, and the lane's next drain wakes them again. *)
and wake_parked sim =
  if wake_due sim then
    ignore
      (Engine.schedule sim.engine ~after:0. (fun () ->
           if wake_due sim then begin
             let released = Queue.create () in
             Queue.transfer sim.parked released;
             Queue.iter (begin_txn sim) released
           end))

(* Transaction [ta] ends without committing. Its client, if still
   connected to it, starts its next transaction after a short backoff: under
   faults, with [redo], the same operations again. *)
and restart ~redo sim ta =
  match Hashtbl.find_opt sim.by_ta ta with
  | Some c ->
    end_txn sim ta;
    c.outstanding <- None;
    if redo && Option.is_some sim.faults then c.redo <- Some c.txn;
    let backoff = 0.001 *. (1. +. Rng.float sim.rng) in
    ignore (Engine.schedule sim.engine ~after:backoff (fun () -> start_txn sim c))
  | None -> ()

and submit_next sim client =
  match client.remaining with
  | [] -> ()
  | req :: rest -> (
    let req = renumber sim req in
    let lane = sim.lanes.(client.lane) in
    let accept () =
      client.remaining <- rest;
      client.outstanding <- Some req;
      client.stall_cycles <- 0
    in
    match sim.cfg.queue_capacity with
    | None ->
      accept ();
      Scheduler.submit lane.sched req;
      maybe_fire sim lane
    | Some cap -> (
      match Scheduler.submit_bounded lane.sched ~capacity:cap req with
      | `Accepted ->
        accept ();
        maybe_fire sim lane
      | `Accepted_shed victim ->
        (* Overload: the queue made room by shedding its least urgent
           request; that transaction is aborted and its client restarts.
           The victim was queued in this same lane, so the abort marker
           lands in the right history. *)
        accept ();
        sim.shed_txns <- sim.shed_txns + 1;
        abort sim lane victim.Request.ta;
        maybe_fire sim lane
      | `Rejected ->
        (* Backpressure: nothing queued, nothing journalled — hold the
           request at the client and try again shortly. *)
        sim.backpressure_waits <- sim.backpressure_waits + 1;
        let wait = 0.005 *. (1. +. Rng.float sim.rng) in
        ignore
          (Engine.schedule sim.engine ~after:wait (fun () ->
               submit_next sim client))))

(* The one abort path: the middleware gives up on transaction [ta] of
   [lane] (queue shed, starvation, dead letter, client disconnect, poison
   found after a crash). The abort marker goes to the lane's scheduler and
   the client restarts. Callers count their own cause. *)
and abort ?(redo = true) sim lane ta =
  ignore (Scheduler.abort_txn lane.sched ta);
  sim.aborted_txns <- sim.aborted_txns + 1;
  restart ~redo sim ta

(* The one fire path: schedule [lane]'s next cycle [after] seconds from now
   unless one is already scheduled. *)
and fire ?(after = 0.) sim lane =
  if not lane.fire_pending then begin
    lane.fire_pending <- true;
    ignore (Engine.schedule sim.engine ~after (fun () -> run_cycle sim lane))
  end

and maybe_fire sim lane =
  let elapsed = Engine.now sim.engine -. lane.last_cycle_at in
  if
    Trigger.due sim.cfg.trigger
      ~queue_len:(Scheduler.queue_length lane.sched)
      ~elapsed
  then fire sim lane

and run_cycle sim lane =
  lane.fire_pending <- false;
  lane.last_cycle_at <- Engine.now sim.engine;
  (* Process-level faults fire once, at the first cycle at or past the
     planned index. *)
  let due at fired =
    (not fired)
    && match at with Some c -> sim.cycles_done + 1 >= c | None -> false
  in
  if due sim.cfg.faults.Faults.crash_at_cycle sim.crash_done then begin
    sim.crash_done <- true;
    crash_and_recover sim
  end
  else if due sim.cfg.faults.Faults.pcrash_at_cycle sim.pcrash_done then begin
    sim.pcrash_done <- true;
    (* validated: pcrash requires a replication session *)
    failover_promote sim (Option.get sim.cfg.repl)
  end
  else if not (barrier_clear sim lane) then
    (* Cross-shard barrier: this lane may not admit work right now. Hold
       the fire and retry shortly — deliveries on the other lanes are what
       eventually clear it. Never taken at S=1. *)
    fire ~after:0.001 sim lane
  else if
    Scheduler.queue_length lane.sched > 0
    || Scheduler.pending_count lane.sched > 0
  then begin
    let qualified, stats = Scheduler.cycle lane.sched in
    sim.cycles_done <- sim.cycles_done + 1;
    if lane.lane_id = sim.cfg.shards then begin
      (* lock-holder accounting for the barrier: a global transaction holds
         locks from its first admitted request until it ends *)
      List.iter
        (fun (r : Request.t) -> Hashtbl.replace sim.holding_tas r.Request.ta ())
        qualified;
      wake_parked sim
    end;
    let dt = Scheduler.total_time stats.Scheduler.times in
    Ds_stats.Summary.add sim.cycle_times dt;
    Ds_stats.Histogram.add sim.cycle_times_hist dt;
    Ds_stats.Summary.add sim.batch_sizes (float_of_int stats.Scheduler.qualified);
    Ds_stats.Summary.add sim.pending_sizes
      (float_of_int stats.Scheduler.pending_before);
    Option.iter
      (fun m ->
        Ds_obs.Metrics.record_cycle m ~drained:stats.Scheduler.drained
          ~pending_before:stats.Scheduler.pending_before
          ~qualified:stats.Scheduler.qualified
          ~query_time:stats.Scheduler.times.Scheduler.query
          ~index_time:stats.Scheduler.index_time ())
      sim.cfg.metrics;
    (* Starvation accounting: clients routed to THIS lane whose outstanding
       request is still pending after this cycle. (A request can only ever
       qualify in its own lane's cycles, so other lanes' clients are not
       stalled by this one.) At S=1 every client is on lane 0, which is the
       historical behavior. Each admitted request marks its client, found by
       TA, with this cycle's number; the walk then needs no lookup. *)
    let cycle = sim.cycles_done in
    List.iter
      (fun (r : Request.t) ->
        match Hashtbl.find_opt sim.by_ta r.Request.ta with
        | Some ({ outstanding = Some o; _ } as c)
          when o.Request.ta = r.Request.ta && o.Request.intrata = r.Request.intrata ->
          c.admitted_in <- cycle
        | _ -> ())
      qualified;
    Array.iter
      (fun c ->
        match c.outstanding with
        | Some o when c.lane = lane.lane_id && c.admitted_in <> cycle ->
          c.stall_cycles <- c.stall_cycles + 1;
          if c.stall_cycles >= sim.cfg.starvation_cycles then
            abort sim lane o.Request.ta
        | _ -> ())
      sim.clients;
    let dispatch_delay = if sim.cfg.charge_scheduler_time then dt else 0. in
    let epoch = sim.epoch in
    ignore
      (Engine.schedule sim.engine ~after:dispatch_delay (fun () ->
           if sim.epoch = epoch then dispatch sim lane ~epoch qualified))
  end

and dispatch sim lane ~epoch requests =
  (* A request whose transaction ended meanwhile (starved, shed,
     dead-lettered, disconnected) was rolled back with it: it must not
     execute on a later attempt. *)
  let requests =
    List.filter (fun (r : Request.t) -> Hashtbl.mem sim.by_ta r.Request.ta) requests
  in
  if requests <> [] then begin
    List.iter
      (fun r -> Ds_obs.Trace.emit_req sim.cfg.trace Ds_obs.Trace.Dispatched r)
      requests;
    Option.iter (fun f -> Faults.begin_attempt f requests) sim.faults;
    let att =
      {
        closed = false;
        batch = requests;
        delivered = Hashtbl.create (List.length requests);
      }
    in
    let live () = (not att.closed) && sim.epoch = epoch in
    if Option.is_some sim.faults then
      ignore
        (Engine.schedule sim.engine ~after:attempt_timeout (fun () ->
             if live () then begin
               att.closed <- true;
               sim.timeouts <- sim.timeouts + 1;
               match undelivered att with
               | [] -> ()
               | r :: _ as rest -> handle_failure sim lane ~epoch r rest
             end));
    Ds_server.Worker_pool.execute lane.pool requests
      ~on_each:(fun r ->
        if live () then begin
          (* Parallel workers complete out of batch order, so record the
             delivered request by key rather than by head match. *)
          let key = Request.key r in
          Hashtbl.replace att.delivered key ();
          Hashtbl.remove sim.fail_streaks key;
          (* A completion for an ended transaction is wasted work, as on an
             abandoned attempt, not a delivery. *)
          if Hashtbl.mem sim.by_ta r.Request.ta then begin
            Ds_util.Vec.push sim.delivered key;
            deliver sim r
          end
        end)
      (fun result ->
        if live () then begin
          att.closed <- true;
          match result with
          | `Completed -> ()
          | `Failed r -> handle_failure sim lane ~epoch r (undelivered att)
        end)
  end

and handle_failure sim lane ~epoch failed undelivered =
  let key = Request.key failed in
  let streak =
    1 + Option.value ~default:0 (Hashtbl.find_opt sim.fail_streaks key)
  in
  Hashtbl.replace sim.fail_streaks key streak;
  if streak > retry_budget then begin
    (* Poison: the same request failed every attempt. Dead-letter it, abort
       its transaction and keep the rest of the batch moving. *)
    Hashtbl.remove sim.fail_streaks key;
    sim.dead_lettered <- sim.dead_lettered + 1;
    Scheduler.dead_letter lane.sched failed;
    abort sim lane failed.Request.ta;
    let rest = List.filter (fun q -> Request.key q <> key) undelivered in
    dispatch sim lane ~epoch rest
  end
  else begin
    sim.retries <- sim.retries + 1;
    Ds_obs.Trace.emit_req sim.cfg.trace ~arg:streak Ds_obs.Trace.Retry failed;
    let backoff =
      Faults.backoff ~base:0.01 ~cap:0.5 ~attempt:(streak - 1)
      *. (1. +. (0.5 *. Rng.float sim.rng))
    in
    ignore
      (Engine.schedule sim.engine ~after:backoff (fun () ->
           if sim.epoch = epoch then dispatch sim lane ~epoch undelivered))
  end

and deliver sim (req : Request.t) =
  match Hashtbl.find_opt sim.by_ta req.Request.ta with
  | None -> () (* aborted meanwhile *)
  | Some client -> (
    match client.outstanding with
    | Some o
      when Request.key o = Request.key req
           && (not (Request.is_data req))
           && (match sim.ack_gate with
              | Some synced -> not (synced ~ta:req.Request.ta)
              | None -> false) ->
      (* Sync replication gates the commit ack: the response stays with the
         middleware until the transaction's journal records are at or below
         the standby's watermark. The epoch capture kills a held ack if the
         primary dies meanwhile — the promoted standby's reconciliation
         decides the transaction's fate instead. *)
      let epoch = sim.epoch in
      ignore
        (Engine.schedule sim.engine ~after:0.002 (fun () ->
             if sim.epoch = epoch then deliver sim req))
    | Some o when Request.key o = Request.key req ->
      client.outstanding <- None;
      if Request.is_data req then begin
        client.data_stmts <- client.data_stmts + 1;
        match client.disconnect_after with
        | Some n when client.data_stmts >= n ->
          (* Injected fault: the client vanishes mid-transaction; the
             middleware aborts the orphan and the client reconnects. *)
          sim.disconnects <- sim.disconnects + 1;
          abort ~redo:false sim (lane_of sim req.Request.ta) req.Request.ta
        | _ -> submit_next sim client
      end
      else begin
        (* Terminal executed: transaction complete. *)
        let now = Engine.now sim.engine in
        let tier = client.txn.Txn.sla.Sla.tier in
        end_txn sim req.Request.ta;
        Ds_obs.Trace.emit_txn sim.cfg.trace ~tier:(Sla.tier_to_string tier)
          (if Op.equal req.Request.op Op.Commit then Ds_obs.Trace.Commit
           else Ds_obs.Trace.Abort)
          ~ta:req.Request.ta;
        if now <= sim.cfg.duration && Op.equal req.Request.op Op.Commit then begin
          sim.committed_txns <- sim.committed_txns + 1;
          sim.committed_stmts <- sim.committed_stmts + client.data_stmts;
          let latency = now -. client.txn_start in
          Ds_stats.Histogram.add sim.latencies latency;
          Option.iter
            (fun m ->
              Ds_obs.Metrics.observe_latency m ~tier:(Sla.tier_to_string tier)
                latency)
            sim.cfg.metrics;
          let hist =
            match Hashtbl.find_opt sim.tier_latencies tier with
            | Some hist -> hist
            | None ->
              let hist = Ds_stats.Histogram.create () in
              Hashtbl.add sim.tier_latencies tier hist;
              hist
          in
          Ds_stats.Histogram.add hist latency
        end;
        start_txn sim client
      end
    | Some _ | None -> ())

(* Middleware crash: every lane resumes its own journal (segment), which
   truncates any torn tail and seeds the reopened journal's state mirror from
   the recovered state. A crash fault always has a journal: [run_sim]
   provides a temp file when none is set. *)
and crash_and_recover sim =
  sim.crashes <- sim.crashes + 1;
  recover_lanes sim (fun lane ->
      Journal.resume ~sync:sim.cfg.sync_journal (Option.get lane.journal_path))

(* Hot-standby failover: the primary dies permanently (its disk is never
   consulted) and the replication session promotes the warm standby under
   the next epoch. Whatever had not crossed the replication watermark is
   gone; client reconciliation turns that loss into resubmissions and redos.
   Replication requires shards = 1, so lane 0 is the only lane. *)
and failover_promote sim h =
  sim.failovers <- sim.failovers + 1;
  sim.ack_gate <- None;
  recover_lanes sim (fun _ ->
      let p = h.repl_promote () in
      Ds_obs.Trace.emit sim.cfg.trace Ds_obs.Trace.Failover ~ta:(-1) ~seq:(-1)
        ~arg:(Journal.writer_epoch p.rp_journal) ();
      (p.rp_recovered, p.rp_journal))

(* Lane lifecycle: the one path that rebuilds lanes mid-run. [recover lane]
   returns the state the lane continues from and the journal it continues
   on. The epoch bump orphans every in-flight server callback and every held
   sync-mode ack: whatever the dead process still owed its clients is now
   decided by the recovered state. *)
and recover_lanes sim recover =
  sim.epoch <- sim.epoch + 1;
  (* Host-timed end to end (read + replay + restore): with
     checkpointing on, it stays sublinear in journal length. *)
  let t0 = Ds_relal.Profile.now () in
  let recovered_by_lane =
    Array.map
      (fun lane ->
        Option.iter
          (fun j ->
            sim.checkpoints_acc <-
              sim.checkpoints_acc + Journal.checkpoints_written j;
            Journal.crash j)
          lane.journal;
        let recovered, j = recover lane in
        lane.sched <- lane_sched sim.cfg ~stamp:sim.stamp ~journal:j ~recovered ();
        lane.journal <- Some j;
        lane.fire_pending <- false;
        sim.recovery_replayed <-
          sim.recovery_replayed + recovered.Journal.replayed;
        sim.recovery_skipped <- sim.recovery_skipped + recovered.Journal.skipped;
        recovered)
      sim.lanes
  in
  sim.recovery_time <- sim.recovery_time +. (Ds_relal.Profile.now () -. t0);
  (* The admission-order clock survives the crash: reseed the stamp table
     from the recovered segments and continue the gseq sequence past the
     largest stamp any segment persisted. *)
  if sim.cfg.shards > 1 then begin
    Hashtbl.reset sim.stamps;
    Array.iter
      (fun (r : Journal.recovered) ->
        List.iter
          (fun ((req : Request.t), g) ->
            match g with
            | Some g ->
              Hashtbl.replace sim.stamps (Request.key req) g;
              if g >= !(sim.gseq) then sim.gseq := g + 1
            | None -> ())
          r.Journal.history_stamped)
      recovered_by_lane
  end;
  (* In-flight retry bookkeeping died with the process, and the delivery
     order restarts with the rebuilt lanes. *)
  Hashtbl.reset sim.fail_streaks;
  Ds_util.Vec.clear sim.delivered;
  reconcile_clients sim recovered_by_lane;
  (* Rebuild the barrier accounting from surviving state: [active] from the
     clients still connected to a live transaction, the lock holders from
     the global lane's restored history. *)
  if sim.cfg.shards > 1 then begin
    Hashtbl.reset sim.holding_tas;
    Array.iter (fun l -> l.active <- 0) sim.lanes;
    Array.iter
      (fun c ->
        if c.entered then begin
          let l = sim.lanes.(c.lane) in
          l.active <- l.active + 1
        end)
      sim.clients;
    List.iter
      (fun (r : Request.t) ->
        let ta = r.Request.ta in
        if (not (Request.is_abort_marker r)) && Hashtbl.mem sim.by_ta ta then
          Hashtbl.replace sim.holding_tas ta ())
      (Relations.history_requests
         (Scheduler.relations sim.lanes.(sim.cfg.shards).sched));
    wake_parked sim
  end;
  Array.iter (fun l -> maybe_fire sim l) sim.lanes

(* Reconcile every connected client against its own lane's recovered
   relations (at S=1 there is exactly one lane, the historical path). Shared
   by live crash recovery and hot-standby failover — the client contract is
   the same either way. *)
and reconcile_clients sim recovered_by_lane =
  let set_of key xs =
    let tbl = Hashtbl.create (2 * List.length xs) in
    List.iter (fun x -> Hashtbl.replace tbl (key x) ()) xs;
    Hashtbl.mem tbl
  in
  let views =
    Array.map
      (fun (r : Journal.recovered) ->
        ( set_of Request.key r.Journal.history,
          set_of Request.key r.Journal.dead,
          set_of Request.key r.Journal.pending,
          set_of Fun.id r.Journal.aborted ))
      recovered_by_lane
  in
  Array.iter
    (fun c ->
      match c.outstanding with
      | None -> ()
      | Some req ->
        let in_history, in_dead, in_pending, aborted = views.(c.lane) in
        let lane = sim.lanes.(c.lane) in
        let key = Request.key req in
        let ta = req.Request.ta in
        if aborted ta || in_dead key then
          (* The middleware had already given up on this transaction. *)
          restart ~redo:true sim ta
        else if in_history key then begin
          match sim.faults with
          | Some f when Faults.is_poison f req ->
            (* Qualified before the crash but can never execute; dead-letter
               it now instead of re-delivering. *)
            sim.dead_lettered <- sim.dead_lettered + 1;
            Scheduler.dead_letter lane.sched req;
            abort sim lane ta
          | _ ->
            (* Qualified (= logically executed) but the response was lost in
               the crash: re-deliver it. *)
            ignore
              (Engine.schedule sim.engine ~after:0. (fun () -> deliver sim req))
        end
        else if in_pending key then
          (* Restored into the pending table; it will qualify in a later
             cycle and the client keeps waiting. *)
          ()
        else
          (* The S record was still in the channel buffer when the process
             died; the client resubmits. *)
          Scheduler.submit lane.sched req)
    sim.clients

let validate (cfg : config) =
  let require ok msg = if not ok then invalid_arg ("Middleware.run: " ^ msg) in
  let valid what = Result.iter_error (fun m -> require false (what ^ m)) in
  valid "" (Spec.validate cfg.spec);
  valid "faults: " (Faults.validate cfg.faults);
  let positive = Option.fold ~none:true ~some:(fun x -> x > 0) in
  require (cfg.workers >= 1) "workers must be >= 1";
  require (cfg.shards >= 1) "shards must be >= 1";
  require (positive cfg.checkpoint_interval)
    "checkpoint_interval must be positive";
  require (positive cfg.queue_capacity) "queue_capacity must be positive";
  match cfg.repl with
  | Some _ ->
    require (cfg.shards = 1) "replication requires shards = 1";
    require (cfg.journal_path <> None) "replication requires a journal";
    require
      (cfg.faults.Faults.crash_at_cycle = None)
      "crash fault is incompatible with replication (use pcrash)"
  | None ->
    require
      (cfg.faults.Faults.pcrash_at_cycle = None)
      "pcrash fault requires a replication session"

(* S shard lanes + 1 global lane; at S=1 a single lane, the historical
   single-scheduler layout. Each lane journals to its own segment of
   [cfg.journal_path] (the file itself at S=1). A crash fault needs a
   journal to recover from, so without a path the run journals to a temp
   file or directory, returned as the second component for removal after
   the run. *)
let open_lanes (cfg : config) engine ~stamp =
  let n_lanes = if cfg.shards > 1 then cfg.shards + 1 else 1 in
  let journal_path, auto_journal =
    match (cfg.journal_path, cfg.faults.Faults.crash_at_cycle) with
    | Some p, _ -> (Some p, None)
    | None, Some _ ->
      let p =
        if cfg.shards > 1 then begin
          (* temp_file both reserves and creates the name; drop the file so
             init_segment_dir can make the directory. *)
          let p = Filename.temp_file "dsched" ".journal.d" in
          Sys.remove p;
          p
        end
        else Filename.temp_file "dsched" ".journal"
      in
      (Some p, Some p)
    | None, None -> (None, None)
  in
  let lane_paths =
    match journal_path with
    | None -> Array.make n_lanes None
    | Some p ->
      if cfg.shards > 1 then
        Array.of_list
          (List.map Option.some (Journal.init_segment_dir p ~shards:cfg.shards))
      else [| Some p |]
  in
  let lanes =
    Array.mapi
      (fun i path ->
        let journal =
          Option.map (fun p -> Journal.open_ ~sync:cfg.sync_journal p) path
        in
        let sched = lane_sched cfg ~stamp ?journal () in
        {
          lane_id = i;
          pool =
            Ds_server.Worker_pool.create engine Ds_server.Cost_model.default
              ~workers:cfg.workers;
          sched;
          journal;
          journal_path = path;
          fire_pending = false;
          last_cycle_at = 0.;
          active = 0;
        })
      lane_paths
  in
  (lanes, auto_journal)

(* The run's state, with its lanes open and its clients not yet started.
   Returns the master RNG, from which the fault stream splits later, and
   the temp journal to remove after the run. *)
let create_sim (cfg : config) =
  let engine = Engine.create () in
  Option.iter
    (fun tr -> Ds_obs.Trace.set_clock tr (fun () -> Engine.now engine))
    cfg.trace;
  let master = Rng.create cfg.seed in
  (* The global admission clock (S>1 only): every qualification, in every
     lane, draws the next gseq through this hook. The scheduler journals the
     stamp with the Q record, so the merged order is recoverable. *)
  let stamps = Hashtbl.create 1024 in
  let gseq = ref 0 in
  let stamp_hook =
    if cfg.shards > 1 then
      Some
        (fun (r : Request.t) ->
          let g = !gseq in
          incr gseq;
          Hashtbl.replace stamps (Request.key r) g;
          g)
    else None
  in
  let lanes, auto_journal = open_lanes cfg engine ~stamp:stamp_hook in
  let sim =
    {
      cfg;
      engine;
      lanes;
      clients =
        Array.init cfg.n_clients (fun _ ->
            {
              gen = Generator.create cfg.spec (Rng.split master);
              txn = Txn.make ~ta:0 [ (Op.Commit, None) ];
              remaining = [];
              txn_start = 0.;
              outstanding = None;
              stall_cycles = 0;
              admitted_in = 0;
              data_stmts = 0;
              disconnect_after = None;
              redo = None;
              lane = 0;
              entered = false;
            });
      by_ta = Hashtbl.create (4 * cfg.n_clients);
      rng = Rng.split master;
      route_of = Hashtbl.create (4 * cfg.n_clients);
      holding_tas = Hashtbl.create 64;
      stamps;
      gseq;
      stamp = stamp_hook;
      faults = None;
      epoch = 0;
      crash_done = false;
      pcrash_done = false;
      failovers = 0;
      ack_gate =
        (match cfg.repl with
        | Some h when (h.repl_status ()).rs_sync -> Some h.repl_synced
        | _ -> None);
      cycles_done = 0;
      ta_counter = 0;
      req_counter = 0;
      delivered = Ds_util.Vec.create ();
      committed_txns = 0;
      committed_stmts = 0;
      aborted_txns = 0;
      fail_streaks = Hashtbl.create 16;
      retries = 0;
      timeouts = 0;
      shed_txns = 0;
      backpressure_waits = 0;
      dead_lettered = 0;
      disconnects = 0;
      crashes = 0;
      global_lane_txns = 0;
      shard_deferrals = 0;
      parked = Queue.create ();
      checkpoints_acc = 0;
      recovery_replayed = 0;
      recovery_skipped = 0;
      recovery_time = 0.;
      cycle_times = Ds_stats.Summary.create ();
      cycle_times_hist = Ds_stats.Histogram.create ();
      batch_sizes = Ds_stats.Summary.create ();
      pending_sizes = Ds_stats.Summary.create ();
      latencies = Ds_stats.Histogram.create ();
      tier_latencies = Hashtbl.create 4;
    }
  in
  (sim, master, auto_journal)

(* Arm every lane's worker pool, then draw the fault plan. Supervision
   deadlines are armed only when the plan injects worker faults, so
   fault-free runs keep their exact event timing. The fault stream splits
   from [master] after the clients and [sim.rng], so no-fault runs keep the
   exact RNG draws (and behavior) they had before faults existed. *)
let wire_faults sim master =
  let cfg = sim.cfg in
  let worker_faults = Faults.has_worker_faults cfg.faults in
  Array.iter
    (fun lane ->
      Ds_server.Worker_pool.set_trace lane.pool cfg.trace;
      if worker_faults then
        Ds_server.Worker_pool.set_deadline_factor lane.pool (Some 4.0);
      if cfg.hedging then Ds_server.Worker_pool.set_hedging lane.pool true)
    sim.lanes;
  if not (Faults.is_none cfg.faults) then begin
    let f = Faults.create cfg.faults (Rng.split master) in
    sim.faults <- Some f;
    Array.iter
      (fun lane ->
        Ds_server.Worker_pool.set_fault_hook lane.pool (Faults.request_outcome f);
        if worker_faults then
          Ds_server.Worker_pool.set_worker_fault_hook lane.pool
            (Some (Faults.draw_worker_faults f)))
      sim.lanes
  end

(* Call [f] every [period] virtual seconds, the first time one period from
   now, until the run's end. *)
let every sim period f =
  let rec tick () =
    f ();
    if Engine.now sim.engine < sim.cfg.duration then
      ignore (Engine.schedule sim.engine ~after:period tick)
  in
  ignore (Engine.schedule sim.engine ~after:period tick)

(* Replication wiring: tap the primary's journal, drive the session's
   virtual clock off the engine, and pump the link on a short periodic
   timer (delivery, watermark advance, retransmission). *)
let wire_replication sim =
  Option.iter
    (fun h ->
      h.repl_set_clock (fun () -> Engine.now sim.engine);
      (match sim.lanes.(0).journal with
      | Some j -> h.repl_attach j
      | None -> assert false (* validated: repl requires a journal *));
      every sim 0.005 (fun () -> h.repl_pump ~now:(Engine.now sim.engine)))
    sim.cfg.repl

(* Start every client and run the engine to the end of the run. One
   periodic timer re-checks every lane even when no client is submitting.
   A time-based trigger fires on its own period. Pure fill triggers can
   stall when every client is blocked with queue_len < k, so a slow
   fallback tick fires any lane with work sitting in its incoming queue or
   pending table. *)
let run_clients sim =
  let period, tick_lane =
    match Trigger.period sim.cfg.trigger with
    | Some dt -> (dt, maybe_fire sim)
    | None ->
      ( 0.05,
        fun l ->
          if
            Scheduler.queue_length l.sched > 0
            || Scheduler.pending_count l.sched > 0
          then fire sim l )
  in
  every sim period (fun () -> Array.iter tick_lane sim.lanes);
  Array.iter
    (fun c ->
      ignore (Engine.schedule sim.engine ~after:0. (fun () -> start_txn sim c)))
    sim.clients;
  Engine.run_until sim.engine ~until:sim.cfg.duration;
  (* A client parked behind an idle global lane can only come from a missed
     wake point: it would have waited out the run for nothing. *)
  if sim.cfg.shards > 1 && wake_due sim then
    failwith
      (Printf.sprintf
         "Middleware.run: lost wake-up: %d clients parked behind an idle \
          global lane"
         (Queue.length sim.parked))

(* Bounded post-run settle: keep pumping past the end of the run so
   end-of-run lag reflects genuine loss, not records still on the wire (a
   partition that outlives the run heals inside this window; after a
   failover the same pumps surface — and fence — the old primary's
   stragglers). *)
let settle sim =
  Option.iter
    (fun h ->
      let i = ref 0 in
      while !i < 120 && ((h.repl_status ()).rs_lag > 0 || !i < 20) do
        incr i;
        h.repl_pump ~now:(sim.cfg.duration +. (0.025 *. float_of_int !i))
      done)
    sim.cfg.repl

let collect_stats sim =
  let cfg = sim.cfg in
  let repl_final = Option.map (fun h -> h.repl_status ()) cfg.repl in
  let repl f = Option.fold ~none:0 ~some:f repl_final in
  let sum_pools f = Array.fold_left (fun acc l -> acc + f l.pool) 0 sim.lanes in
  let makespans = Ds_stats.Histogram.create () in
  Array.iter
    (fun l ->
      Ds_stats.Histogram.merge_into ~dst:makespans
        (Ds_server.Worker_pool.makespans l.pool))
    sim.lanes;
  Option.iter
    (fun m ->
      Ds_obs.Metrics.set_workers m
        (List.concat_map
           (fun l ->
             List.map
               (fun (worker, executed, busy, utilization) ->
                 { Ds_obs.Metrics.worker; executed; busy; utilization })
               (Ds_server.Worker_pool.worker_stats l.pool))
           (Array.to_list sim.lanes)))
    cfg.metrics;
  let checkpoints =
    Array.fold_left
      (fun acc l ->
        acc + Option.fold ~none:0 ~some:Journal.checkpoints_written l.journal)
      sim.checkpoints_acc sim.lanes
  in
  let tiers =
    Hashtbl.fold
      (fun tier hist acc ->
        Ds_stats.Histogram.(tier, mean hist, p95 hist, count hist) :: acc)
      sim.tier_latencies []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) ->
           Sla.compare_urgency
             { Sla.premium with tier = a }
             { Sla.premium with tier = b })
  in
  let faults f = Option.fold ~none:0 ~some:f sim.faults in
  {
    committed_txns = sim.committed_txns;
    committed_stmts = sim.committed_stmts;
    aborted_txns = sim.aborted_txns;
    cycles = sim.cycles_done;
    mean_cycle_time = Ds_stats.Summary.mean sim.cycle_times;
    p95_cycle_time = Ds_stats.Histogram.p95 sim.cycle_times_hist;
    mean_batch = Ds_stats.Summary.mean sim.batch_sizes;
    mean_pending = Ds_stats.Summary.mean sim.pending_sizes;
    scheduler_time = Ds_stats.Summary.sum sim.cycle_times;
    mean_txn_latency = Ds_stats.Histogram.mean sim.latencies;
    p95_txn_latency = Ds_stats.Histogram.p95 sim.latencies;
    latency_by_tier = tiers;
    retries = sim.retries;
    timeouts = sim.timeouts;
    injected_failures = faults Faults.injected_failures;
    injected_stalls = faults Faults.injected_stalls;
    shed_txns = sim.shed_txns;
    backpressure_waits = sim.backpressure_waits;
    dead_lettered = sim.dead_lettered;
    disconnects = sim.disconnects;
    crashes = sim.crashes;
    workers = cfg.workers;
    batches_dispatched = sum_pools Ds_server.Worker_pool.batch_count;
    mean_batch_makespan = Ds_stats.Histogram.mean makespans;
    p95_batch_makespan = Ds_stats.Histogram.p95 makespans;
    worker_crashes = sum_pools Ds_server.Worker_pool.worker_crashes;
    worker_deaths = sum_pools Ds_server.Worker_pool.worker_deaths;
    worker_stalls = sum_pools Ds_server.Worker_pool.worker_stalls_detected;
    reassigned_classes = sum_pools Ds_server.Worker_pool.reassigned_classes;
    hedged_classes = sum_pools Ds_server.Worker_pool.hedged_classes;
    checkpoints;
    recovery_replayed = sim.recovery_replayed;
    recovery_skipped = sim.recovery_skipped;
    recovery_time = sim.recovery_time;
    shards = cfg.shards;
    global_lane_txns = sim.global_lane_txns;
    shard_deferrals = sim.shard_deferrals;
    failovers = sim.failovers;
    repl_epoch = repl (fun s -> s.rs_epoch);
    repl_watermark = repl (fun s -> s.rs_watermark);
    repl_lag = repl (fun s -> s.rs_lag);
    repl_fenced = repl (fun s -> s.rs_fenced);
    repl_divergences = repl (fun s -> s.rs_divergences);
  }

let run_sim cfg =
  validate cfg;
  let sim, master, auto_journal = create_sim cfg in
  wire_faults sim master;
  wire_replication sim;
  run_clients sim;
  settle sim;
  let stats = collect_stats sim in
  Array.iter (fun l -> Option.iter Journal.close l.journal) sim.lanes;
  Option.iter Journal.remove auto_journal;
  (stats, sim)

let run cfg = fst (run_sim cfg)

type handle = {
  lane_schedulers : Scheduler.t array;
  shard_of : int -> int option;
  merged_rte : Request.t list;
  merged_execution_order : (int * int) list;
}

let run_sharded (cfg : config) =
  let stats, sim = run_sim cfg in
  let lane_schedulers = Array.map (fun l -> l.sched) sim.lanes in
  let shard_of ta = Hashtbl.find_opt sim.route_of ta in
  let merged_rte =
    if Array.length sim.lanes = 1 then
      Relations.rte_requests (Scheduler.relations sim.lanes.(0).sched)
    else
      (* The per-lane rte logs interleave by admission stamp: every executed
         request was qualified, hence stamped, so the merge reconstructs the
         one global admission order the stamp hook handed out. *)
      Array.to_list sim.lanes
      |> List.concat_map (fun l ->
             Relations.rte_requests (Scheduler.relations l.sched))
      |> List.map (fun (r : Request.t) ->
             ( (match Hashtbl.find_opt sim.stamps (Request.key r) with
               | Some g -> g
               | None -> max_int),
               r ))
      |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd
  in
  let merged_execution_order = Ds_util.Vec.to_list sim.delivered in
  (stats, { lane_schedulers; shard_of; merged_rte; merged_execution_order })

let without_host_time s =
  {
    s with
    mean_cycle_time = 0.;
    p95_cycle_time = 0.;
    scheduler_time = 0.;
    recovery_time = 0.;
  }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "committed=%d stmts=%d aborted=%d cycles=%d cycle(mean=%.2fms p95=%.2fms) \
     batch=%.1f pending=%.1f sched_time=%.2fs latency(mean=%.3fs p95=%.3fs)"
    s.committed_txns s.committed_stmts s.aborted_txns s.cycles
    (1000. *. s.mean_cycle_time)
    (1000. *. s.p95_cycle_time)
    s.mean_batch s.mean_pending s.scheduler_time s.mean_txn_latency
    s.p95_txn_latency;
  if
    s.retries > 0 || s.timeouts > 0 || s.injected_failures > 0
    || s.injected_stalls > 0 || s.shed_txns > 0 || s.backpressure_waits > 0
    || s.dead_lettered > 0 || s.disconnects > 0 || s.crashes > 0
  then
    Format.fprintf ppf
      " faults(injected=%d stalls=%d retries=%d timeouts=%d shed=%d \
       backpressure=%d dead=%d disconnects=%d crashes=%d)"
      s.injected_failures s.injected_stalls s.retries s.timeouts s.shed_txns
      s.backpressure_waits s.dead_lettered s.disconnects s.crashes;
  if s.workers > 1 then
    Format.fprintf ppf
      " parallel(workers=%d batches=%d makespan(mean=%.2fms p95=%.2fms))"
      s.workers s.batches_dispatched
      (1000. *. s.mean_batch_makespan)
      (1000. *. s.p95_batch_makespan);
  if
    s.worker_crashes > 0 || s.worker_deaths > 0 || s.worker_stalls > 0
    || s.reassigned_classes > 0 || s.hedged_classes > 0
  then
    Format.fprintf ppf
      " supervision(crashes=%d deaths=%d stuck=%d reassigned=%d hedged=%d)"
      s.worker_crashes s.worker_deaths s.worker_stalls s.reassigned_classes
      s.hedged_classes;
  if s.checkpoints > 0 || s.crashes > 0 || s.failovers > 0 then
    Format.fprintf ppf
      " recovery(checkpoints=%d replayed=%d skipped=%d time=%.3fms)"
      s.checkpoints s.recovery_replayed s.recovery_skipped
      (1000. *. s.recovery_time);
  if s.shards > 1 then
    Format.fprintf ppf " shards(lanes=%d global_txns=%d deferrals=%d)" s.shards
      s.global_lane_txns s.shard_deferrals;
  if s.repl_watermark > 0 || s.failovers > 0 || s.repl_fenced > 0 then
    Format.fprintf ppf
      " replication(epoch=%d watermark=%d lag=%d fenced=%d divergences=%d \
       failovers=%d)"
      s.repl_epoch s.repl_watermark s.repl_lag s.repl_fenced
      s.repl_divergences s.failovers
