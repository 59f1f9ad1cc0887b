open Ds_model

type phase_times = {
  drain_insert : float;
  query : float;
  move : float;
  history : float;
  journal : float;
  checkpoint : float;
}

let zero_times =
  {
    drain_insert = 0.;
    query = 0.;
    move = 0.;
    history = 0.;
    journal = 0.;
    checkpoint = 0.;
  }

let total_time t = t.drain_insert +. t.query +. t.move

let add_times a b =
  {
    drain_insert = a.drain_insert +. b.drain_insert;
    query = a.query +. b.query;
    move = a.move +. b.move;
    history = a.history +. b.history;
    journal = a.journal +. b.journal;
    checkpoint = a.checkpoint +. b.checkpoint;
  }

type cycle_stats = {
  drained : int;
  pending_before : int;
  history_before : int;
  qualified : int;
  times : phase_times;
  index_time : float;
}

type t = {
  rels : Relations.t;
  proto : Protocol.t;
  qualify : unit -> (int * int) list;
  queue : Request.t Queue.t;
  prune : bool;
  journal : Journal.t option;
  checkpoint_every : int option;
  trace : Ds_obs.Trace.t option;
  stamp : (Request.t -> int) option;
      (* sharded runs: assigns each qualified request its global admission
         sequence number at cycle time; journals the 3-field Q record *)
  terminated : (int, unit) Hashtbl.t;
      (* transactions that already got their terminal trace event. A
         dead-letter is followed by an abort_txn, and a starved (aborted)
         transaction can still be dead-lettered when its in-flight retry
         exhausts; either way only the first terminal is recorded. *)
  mutable abort_seq : int;
  mutable cycles : int;
  mutable cum : phase_times;
}

let create ?(prune_history_each_cycle = true) ?journal
    ?checkpoint_every ?trace ?stamp proto =
  (match checkpoint_every with
  | Some n when n <= 0 ->
    invalid_arg "Scheduler.create: checkpoint_every must be positive"
  | _ -> ());
  let rels = Relations.create () in
  {
    rels;
    proto;
    qualify = proto.Protocol.prepare rels;
    queue = Queue.create ();
    prune = prune_history_each_cycle;
    journal;
    checkpoint_every;
    trace;
    stamp;
    terminated = Hashtbl.create 16;
    abort_seq = 0;
    cycles = 0;
    cum = zero_times;
  }

let relations t = t.rels

let protocol t = t.proto

let submit t r =
  Option.iter (fun j -> Journal.log_submit j r) t.journal;
  Ds_obs.Trace.emit_req t.trace Ds_obs.Trace.Enqueued r;
  Queue.push r t.queue

let queue_length t = Queue.length t.queue

let submit_bounded t ~capacity r =
  if capacity <= 0 then
    invalid_arg "Scheduler.submit_bounded: capacity must be positive";
  if Queue.length t.queue < capacity then begin
    submit t r;
    `Accepted
  end
  else begin
    let items = ref [] in
    while not (Queue.is_empty t.queue) do
      items := Queue.pop t.queue :: !items
    done;
    let items = List.rev !items in
    (* Least urgent queued request, preferring the most recently queued on
       tier ties (drop from the tail of the lowest tier). *)
    let victim =
      List.fold_left
        (fun worst (q : Request.t) ->
          match worst with
          | None -> Some q
          | Some (w : Request.t) ->
            if Sla.compare_urgency q.Request.sla w.Request.sla >= 0 then Some q
            else worst)
        None items
    in
    match victim with
    | Some v when Sla.compare_urgency r.Request.sla v.Request.sla < 0 ->
      List.iter (fun q -> if not (q == v) then Queue.push q t.queue) items;
      submit t r;
      `Accepted_shed v
    | _ ->
      List.iter (fun q -> Queue.push q t.queue) items;
      `Rejected
  end

let dead_letter t r =
  Option.iter
    (fun j ->
      Journal.log_dead j r;
      Journal.flush j)
    t.journal;
  if not (Hashtbl.mem t.terminated r.Request.ta) then begin
    Hashtbl.replace t.terminated r.Request.ta ();
    Ds_obs.Trace.emit_req t.trace Ds_obs.Trace.Dead_letter r
  end;
  (* Normally the request already left [requests] when it qualified; the
     delete covers dead-lettering straight out of pending. *)
  let ta, intrata = Request.key r in
  ignore
    (Ds_relal.Table.delete_by_keys t.rels.Relations.requests [ 1 ]
       [
         ( [ Ds_relal.Value.Int ta ],
           fun row ->
             match row.(2) with
             | Ds_relal.Value.Int intrata' -> intrata' = intrata
             | _ -> false );
       ]);
  Relations.insert_dead t.rels r

let pending_count t = Relations.pending_count t.rels

let now = Ds_relal.Profile.now

let drain t =
  let drained = ref [] in
  while not (Queue.is_empty t.queue) do
    drained := Queue.pop t.queue :: !drained
  done;
  List.rev !drained

(* End-of-cycle snapshot: on a [checkpoint_every] boundary, once the records
   written since the last block add up to that block's size, the journal
   writes its logical state as a checkpoint block, so recovery replays only
   the suffix written since. It goes out with the cycle's records, under the
   cycle's one flush. The snapshot is also a trace event — checkpointing is
   observable like every other decision. *)
let maybe_checkpoint t j =
  match t.checkpoint_every with
  | Some n when t.cycles mod n = 0 && Journal.checkpoint_due j ->
    Journal.checkpoint j ~cycle:t.cycles;
    Ds_obs.Trace.emit t.trace Ds_obs.Trace.Checkpoint ~ta:(-1) ~seq:(-1)
      ~arg:t.cycles ()
  | _ -> ()

(* Stamps are drawn in admission order whether or not a journal is attached,
   so a sharded run's merged rte order is well-defined even unjournaled. *)
let stamp_batch t reqs =
  Option.map (fun f -> List.map (fun r -> (Request.key r, f r)) reqs) t.stamp

let journal_qualified j ~stamped reqs =
  match stamped with
  | Some entries -> Journal.log_qualified_stamped j entries
  | None -> Journal.log_qualified j (List.map Request.key reqs)

let cycle t =
  t.cycles <- t.cycles + 1;
  let pending_before = Relations.pending_count t.rels in
  let history_before = Relations.history_count t.rels in
  let maint0 = Ds_relal.Table.maintenance_time () in
  let t0 = now () in
  let incoming = drain t in
  List.iter
    (fun r -> Ds_obs.Trace.emit_req t.trace Ds_obs.Trace.Drained r)
    incoming;
  Relations.insert_pending_batch t.rels incoming;
  let t1 = now () in
  let keys, query_dt =
    Ds_relal.Profile.timed "protocol-query" t.qualify
  in
  let t2 = now () in
  let qualified = Relations.move_to_history t.rels keys in
  if t.prune then ignore (Relations.prune_history t.rels);
  List.iter
    (fun r -> Ds_obs.Trace.emit_req t.trace Ds_obs.Trace.Sched_admit r)
    qualified;
  if Ds_obs.Trace.is_on t.trace then begin
    (* Deferrals, with the blocking conflict: anything still pending lost
       to some conflicting request of an active transaction in history. *)
    let blocker = Relations.blocker_lookup t.rels in
    List.iter
      (fun r ->
        Ds_obs.Trace.emit_req t.trace ?arg:(blocker r)
          Ds_obs.Trace.Sched_defer r)
      (Relations.pending t.rels)
  end;
  let t3 = now () in
  let stamped = stamp_batch t qualified in
  (* Consecutive timestamps split the journal work around the checkpoint:
     records, then the block, then the one flush. *)
  let t4, t5 =
    match t.journal with
    | None -> (t3, t3)
    | Some j ->
      journal_qualified j ~stamped qualified;
      if t.prune then Journal.log_prune j;
      let t4 = now () in
      maybe_checkpoint t j;
      let t5 = now () in
      Journal.flush j;
      (t4, t5)
  in
  let t6 = now () in
  let history = t3 -. t2 and checkpoint = t5 -. t4 in
  let journal = t4 -. t3 +. (t6 -. t5) in
  let times =
    {
      drain_insert = t1 -. t0;
      query = query_dt;
      move = history +. journal +. checkpoint;
      history;
      journal;
      checkpoint;
    }
  in
  t.cum <- add_times t.cum times;
  let stats =
    {
      drained = List.length incoming;
      pending_before;
      history_before;
      qualified = List.length qualified;
      times;
      index_time = Ds_relal.Table.maintenance_time () -. maint0;
    }
  in
  (qualified, stats)

let abort_txn t ta =
  Option.iter
    (fun j ->
      Journal.log_abort j ta;
      Journal.flush j)
    t.journal;
  if not (Hashtbl.mem t.terminated ta) then begin
    Hashtbl.replace t.terminated ta ();
    Ds_obs.Trace.emit_txn t.trace Ds_obs.Trace.Abort ~ta
  end;
  let dropped =
    Ds_relal.Table.delete_by_keys t.rels.Relations.requests [ 1 ]
      [ ([ Ds_relal.Value.Int ta ], fun _ -> true) ]
  in
  (* Record the abort so the protocol sees the transaction's locks as
     released. The marker's reserved sentinel (negative INTRATA/id) cannot
     collide with any real request, whatever ids the workload uses. *)
  t.abort_seq <- t.abort_seq + 1;
  let marker = Request.abort_marker ~ta ~seq:t.abort_seq () in
  assert (Request.is_abort_marker marker);
  Relations.insert_history t.rels marker;
  dropped

let cycles_run t = t.cycles

let cumulative_times t = t.cum
