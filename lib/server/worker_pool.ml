open Ds_model
open Ds_sim

type batch = {
  requests : Request.t list;
  on_each : Request.t -> unit;
  k : [ `Completed | `Failed of Request.t ] -> unit;
}

type worker_fault =
  | Crash of { worker : int; after : int }
  | Die of { worker : int }
  | Slow of { worker : int; delay : float }

type t = {
  engine : Engine.t;
  backends : Backend.t array;
  queue : batch Queue.t;
  mutable draining : bool;
  mutable batches_done : int;
  makespans : Ds_stats.Histogram.t;
  dead : bool array;  (* permanently-dead workers (Die faults) *)
  mutable worker_fault_hook : (alive:int list -> worker_fault list) option;
  mutable trace : Ds_obs.Trace.t option;
  mutable deadline_factor : float option;
  mutable hedging : bool;
  mutable n_reassigned : int;
  mutable n_hedged : int;
  mutable n_crashes : int;
  mutable n_deaths : int;
  mutable n_stuck : int;
}

let create engine cost ~workers =
  if workers < 1 then invalid_arg "Worker_pool.create: workers must be >= 1";
  {
    engine;
    backends = Array.init workers (fun w -> Backend.create ~worker:w engine cost);
    queue = Queue.create ();
    draining = false;
    batches_done = 0;
    makespans = Ds_stats.Histogram.create ();
    dead = Array.make workers false;
    worker_fault_hook = None;
    trace = None;
    deadline_factor = None;
    hedging = false;
    n_reassigned = 0;
    n_hedged = 0;
    n_crashes = 0;
    n_deaths = 0;
    n_stuck = 0;
  }

let workers t = Array.length t.backends

let backends t = t.backends

let backend t w = t.backends.(w)

let set_fault_hook t hook =
  Array.iter (fun b -> Backend.set_fault_hook b hook) t.backends

let set_worker_fault_hook t hook = t.worker_fault_hook <- hook

let set_deadline_factor t f = t.deadline_factor <- f

let set_hedging t b = t.hedging <- b

let set_trace t trace =
  t.trace <- trace;
  Array.iter (fun b -> Backend.set_trace b trace) t.backends

let executed_stmts t =
  Array.fold_left (fun acc b -> acc + Backend.executed_stmts b) 0 t.backends

let batch_count t = t.batches_done

let makespans t = t.makespans

let reassigned_classes t = t.n_reassigned

let hedged_classes t = t.n_hedged

let worker_crashes t = t.n_crashes

let worker_deaths t = t.n_deaths

let worker_stalls_detected t = t.n_stuck

let alive_workers t =
  List.filter (fun w -> not t.dead.(w)) (List.init (workers t) (fun w -> w))

let dead_workers t =
  List.filter (fun w -> t.dead.(w)) (List.init (workers t) (fun w -> w))

let worker_stats t =
  Array.to_list
    (Array.mapi
       (fun w b ->
         let cpu = Backend.cpu b in
         (w, Backend.executed_stmts b, Cpu.busy_time cpu, Cpu.utilization cpu))
       t.backends)

(* Supervisor decisions, as trace events whose [op] names the cause:
   [Worker_down] 'c'rash / 'd'eath / 's'tuck, [Reassign] 'r'eassign /
   'h'edge. [arg] is the worker that went down, or the class's new worker. *)
let worker_down t op ?obj worker =
  Ds_obs.Trace.emit t.trace Ds_obs.Trace.Worker_down ~ta:(-1) ~seq:(-1) ~op
    ?obj ~arg:worker ()

let reassign t op ~cls ~to_ =
  Ds_obs.Trace.emit t.trace Ds_obs.Trace.Reassign ~ta:(-1) ~seq:(-1) ~op
    ~obj:cls ~arg:to_ ()

let finish_batch t started k result =
  t.batches_done <- t.batches_done + 1;
  Ds_stats.Histogram.add t.makespans (Engine.now t.engine -. started);
  k result

let class_cost t cls =
  List.fold_left
    (fun acc r -> acc +. Backend.request_work t.backends.(0) r)
    0. cls.Partition.requests

(* Deterministic class -> worker placement: cheapest-loaded eligible worker,
   ties to the lowest id, classes considered in batch order. Load is the
   service time already assigned this batch — a plain LPT-style greedy,
   computed on the host (no virtual time, no randomness). *)
let assign_classes t classes ~eligible =
  let load = Array.make (workers t) infinity in
  List.iter (fun w -> load.(w) <- 0.) eligible;
  List.map
    (fun cls ->
      let best = ref (List.hd eligible) in
      List.iter (fun w -> if load.(w) < load.(!best) then best := w) eligible;
      load.(!best) <- load.(!best) +. class_cost t cls;
      (cls, !best))
    classes

(* Per-batch supervision state.  [queues] holds each worker's unstarted
   classes; [running] the class a worker is currently executing (-1 when
   idle); [crashed] marks workers down for the remainder of this batch only
   (they rejoin at the next batch, unlike [t.dead]). *)
type ctx = {
  mutable cls_remaining : int;  (* classes not yet completed by any copy *)
  mutable outstanding : int;  (* class executions in flight, hedges included *)
  cls_done : bool array;
  hedged : bool array;
  delivered : (int * int, unit) Hashtbl.t;
  mutable finished : bool;
      (* batch already reported drained; a hedged class's late primary copy
         completing afterwards must not finish (and dequeue) a second time *)
  mutable failed : bool;
  queues : Partition.cls Queue.t array;
  running : int array;
  crashed : bool array;
  crash_at : int array;  (* class completions until an injected crash; -1 = none *)
  slow : float array;  (* per-class straggler delay; 0 = healthy *)
}

let eligible_target t ctx ~except =
  let best = ref (-1) in
  for w = 0 to workers t - 1 do
    if
      w <> except && (not t.dead.(w)) && (not ctx.crashed.(w))
      && (!best = -1 || Queue.length ctx.queues.(w) < Queue.length ctx.queues.(!best))
    then best := w
  done;
  if !best = -1 then None else Some !best

let rec run_batch t batch =
  let started = Engine.now t.engine in
  let n_workers = workers t in
  let crash_at = Array.make n_workers (-1) in
  let slow = Array.make n_workers 0. in
  (* Draw this batch's worker fates before placement, so a death is already
     excluded from it. *)
  (match t.worker_fault_hook with
  | Some hook when batch.requests <> [] ->
    List.iter
      (fun fault ->
        match fault with
        | Crash { worker; after } ->
          if not t.dead.(worker) then crash_at.(worker) <- after
        | Die { worker } ->
          if (not t.dead.(worker)) && List.length (alive_workers t) > 1 then begin
            t.dead.(worker) <- true;
            t.n_deaths <- t.n_deaths + 1;
            worker_down t 'd' worker
          end
        | Slow { worker; delay } ->
          if not t.dead.(worker) then slow.(worker) <- slow.(worker) +. delay)
      (hook ~alive:(alive_workers t))
  | _ -> ());
  let classes = Partition.partition batch.requests in
  let ctx =
    {
      cls_remaining = List.length classes;
      outstanding = 0;
      cls_done = Array.make (max 1 (List.length classes)) false;
      hedged = Array.make (max 1 (List.length classes)) false;
      delivered = Hashtbl.create 64;
      finished = false;
      failed = false;
      queues = Array.init n_workers (fun _ -> Queue.create ());
      running = Array.make n_workers (-1);
      crashed = Array.make n_workers false;
      crash_at;
      slow;
    }
  in
  let finish () =
    t.batches_done <- t.batches_done + 1;
    Ds_stats.Histogram.add t.makespans (Engine.now t.engine -. started);
    if not ctx.failed then batch.k `Completed;
    t.draining <- false;
    match Queue.take_opt t.queue with
    | None -> ()
    | Some next ->
      t.draining <- true;
      run_batch t next
  in
  if classes = [] then
    ignore (Engine.schedule t.engine ~after:0. finish)
  else begin
    let deliver r =
      if not ctx.failed then begin
        let key = Request.key r in
        (* First delivery wins: a hedged copy of a straggler's class may
           re-execute requests the primary already delivered. *)
        if not (Hashtbl.mem ctx.delivered key) then begin
          Hashtbl.add ctx.delivered key ();
          batch.on_each r
        end
      end
    in
    (* Move every unstarted class off worker [w] onto surviving workers.
       Safe at any time: classes are disjoint, and an unstarted class has
       delivered nothing. *)
    let rec reassign_queue t ctx w ~kick =
      match Queue.take_opt ctx.queues.(w) with
      | None -> ()
      | Some cls -> (
        match eligible_target t ctx ~except:w with
        | None ->
          (* No survivor to take the work: leave it where it was. *)
          Queue.push cls ctx.queues.(w)
        | Some target ->
          Queue.add cls ctx.queues.(target);
          t.n_reassigned <- t.n_reassigned + 1;
          reassign t 'r' ~cls:cls.Partition.id ~to_:target;
          kick target;
          reassign_queue t ctx w ~kick)
    in
    let rec kick w =
      if
        ctx.running.(w) = -1 && (not ctx.crashed.(w)) && not t.dead.(w)
      then
        match Queue.take_opt ctx.queues.(w) with
        | None -> ()
        | Some cls -> start_class w cls
    and start_class w cls =
      ctx.running.(w) <- cls.Partition.id;
      (* The deadline is what the supervisor can legitimately know: the
         modeled cost of the class times a headroom factor, from dispatch
         time. An injected slowdown is NOT added — blowing this budget is
         precisely how a straggler gets detected. *)
      (match t.deadline_factor with
      | Some factor when n_workers > 1 ->
        let expected = max (class_cost t cls) 1e-9 in
        ignore
          (Engine.schedule t.engine ~after:(factor *. expected) (fun () ->
               on_deadline w cls))
      | _ -> ());
      let exec () = run_class w cls ~primary:true in
      if ctx.slow.(w) > 0. then
        (* A straggler is an IO-bound slowdown, not CPU work: the class sits
           before starting, so its deadline can expire and trip the
           supervisor. *)
        ignore (Engine.schedule t.engine ~after:(ctx.slow.(w)) exec)
      else exec ()
    and run_class w cls ~primary =
      ctx.outstanding <- ctx.outstanding + 1;
      Backend.execute_seq_result t.backends.(w) cls.Partition.requests
        ~on_each:deliver
        (fun result ->
          ctx.outstanding <- ctx.outstanding - 1;
          (match result with
          | `Completed -> ()
          | `Failed r ->
            if not ctx.failed then begin
              ctx.failed <- true;
              batch.k (`Failed r)
            end);
          if not ctx.cls_done.(cls.Partition.id) then begin
            ctx.cls_done.(cls.Partition.id) <- true;
            ctx.cls_remaining <- ctx.cls_remaining - 1
          end;
          if primary then begin
            ctx.running.(w) <- -1;
            if ctx.crash_at.(w) > 0 then begin
              ctx.crash_at.(w) <- ctx.crash_at.(w) - 1;
              if ctx.crash_at.(w) = 0 then do_crash w
            end;
            kick w
          end;
          if ctx.outstanding = 0 && ctx.cls_remaining = 0 && not ctx.finished
          then begin
            ctx.finished <- true;
            finish ()
          end)
    and do_crash w =
      (* An injected crash fires between classes — the worker just finished
         one and has not picked up the next — so no class is half-executed
         and moving its unstarted queue is exactly safe. *)
      if eligible_target t ctx ~except:w <> None then begin
        ctx.crashed.(w) <- true;
        t.n_crashes <- t.n_crashes + 1;
        worker_down t 'c' w;
        reassign_queue t ctx w ~kick
      end
    and on_deadline w cls =
      (* The per-class deadline expired with the class still running on this
         worker: declare it stuck, move its unstarted classes to survivors,
         and optionally race a hedged copy of the overdue class. *)
      if
        (not ctx.cls_done.(cls.Partition.id))
        && ctx.running.(w) = cls.Partition.id
        && not ctx.failed
      then begin
        t.n_stuck <- t.n_stuck + 1;
        worker_down t 's' ~obj:cls.Partition.id w;
        reassign_queue t ctx w ~kick;
        if t.hedging && not ctx.hedged.(cls.Partition.id) then
          match eligible_target t ctx ~except:w with
          | None -> ()
          | Some target ->
            ctx.hedged.(cls.Partition.id) <- true;
            t.n_hedged <- t.n_hedged + 1;
            reassign t 'h' ~cls:cls.Partition.id ~to_:target;
            run_class target cls ~primary:false
      end
    in
    let eligible = alive_workers t in
    let placed = assign_classes t classes ~eligible in
    List.iter (fun (cls, w) -> Queue.add cls ctx.queues.(w)) placed;
    (* Crash-at-zero workers go down before executing anything. *)
    Array.iteri
      (fun w c ->
        if c = 0 && not t.dead.(w) then begin
          ctx.crash_at.(w) <- -1;
          do_crash w
        end)
      ctx.crash_at;
    List.iter kick eligible
  end

let execute t requests ~on_each k =
  if workers t = 1 then begin
    (* Single worker: exactly the legacy sequential backend — same events,
       same virtual times — so K=1 runs are bit-identical to the old code.
       Worker faults are not applied at K=1 (there is no survivor to fail
       over to). *)
    let started = Engine.now t.engine in
    Backend.execute_seq_result t.backends.(0) requests ~on_each
      (fun result -> finish_batch t started k result)
  end
  else begin
    (* Batch barrier: batch N+1 starts only after batch N fully drains on
       every worker. Conflicting requests of {e different} batches may land
       on different workers, so overlapping batches could reorder them; the
       barrier keeps cross-batch conflict order equal to admission order. *)
    let batch = { requests; on_each; k } in
    if t.draining then Queue.add batch t.queue
    else begin
      t.draining <- true;
      run_batch t batch
    end
  end
