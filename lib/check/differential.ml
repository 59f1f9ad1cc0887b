open Ds_model
open Ds_core

type config = {
  n_txns : int;
  selects_per_txn : int;
  updates_per_txn : int;
  n_objects : int;
  include_native : bool;
  parallel_workers : int list;
}

let default_config =
  {
    n_txns = 8;
    selects_per_txn = 3;
    updates_per_txn = 3;
    n_objects = 12;
    include_native = true;
    parallel_workers = [ 2; 4 ];
  }

(* Fixed parameters of every iteration: the share of transactions that end
   in an intrinsic abort, the stalled cycles before the youngest stalled
   transaction is aborted everywhere, and the native run's size. *)
let abort_fraction = 0.15
let stall_abort_after = 2
let native_clients = 6
let native_duration = 0.3

type failure =
  | Divergence of {
      formulation : string;
      cycle : int;
      expected : (int * int) list;
      got : (int * int) list;
    }
  | Stuck of { cycle : int; pending : int }
  | Unclean of { formulation : string; report : Serializability.report }
  | Trace_mismatch of {
      formulation : string;
      detail : string;
      expected : int list;
      got : int list;
    }
  | Parallel_mismatch of { workers : int; detail : string }

type outcome = {
  seed : int;
  cycles : int;
  executed : int;
  committed_txns : int;
  aborted_txns : int;
  failures : failure list;
}

let clean o = o.failures = []

let default_subjects () =
  [
    ("ss2pl-sql", Builtin.ss2pl_sql);
    ("ss2pl-datalog", Builtin.ss2pl_datalog);
  ]

(* A closed-loop client: one transaction, at most one outstanding request. *)
type client = {
  ta : int;
  mutable remaining : Request.t list;
  mutable outstanding : (int * int) option;
  mutable aborted : bool;
}

exception Stop

let spec_of config =
  {
    Ds_workload.Spec.small with
    Ds_workload.Spec.n_objects = config.n_objects;
    selects_per_txn = config.selects_per_txn;
    updates_per_txn = config.updates_per_txn;
    abort_fraction;
  }

let run_one ?(config = default_config) ?(subjects = default_subjects ())
    ~seed () =
  let rng = Ds_sim.Rng.create seed in
  let gen = Ds_workload.Generator.create (spec_of config) rng in
  let txns = Ds_workload.Generator.txns gen ~first_ta:1 config.n_txns in
  let clients =
    List.map
      (fun (t : Txn.t) ->
        {
          ta = t.Txn.ta;
          remaining = t.Txn.requests;
          outstanding = None;
          aborted = false;
        })
      txns
  in
  let trace = Ds_obs.Trace.create () in
  let reference = Scheduler.create ~trace Builtin.ss2pl_ocaml in
  let schedulers =
    ("ss2pl-ocaml", reference)
    :: List.map
         (fun (name, proto) -> (name, Scheduler.create proto))
         subjects
  in
  let failures = ref [] in
  let batches = ref [] in
  (* admitted reference batches, newest first *)
  let cycles = ref 0 in
  let executed = ref 0 in
  let committed = ref 0 in
  let starved = ref 0 in
  let req_counter = ref 0 in
  let stall = ref 0 in
  (* Generous bound: every request needs at most a handful of cycles, plus
     the starvation-abort budget. *)
  let total_requests =
    List.fold_left (fun acc (t : Txn.t) -> acc + Txn.length t) 0 txns
  in
  let max_cycles =
    (total_requests * (stall_abort_after + 2)) + 100
  in
  (try
     while List.exists (fun c -> not c.aborted && c.remaining <> []) clients
           || List.exists (fun c -> c.outstanding <> None) clients
     do
       incr cycles;
       if !cycles > max_cycles then begin
         failures :=
           Stuck { cycle = !cycles; pending = Scheduler.pending_count reference }
           :: !failures;
         raise Stop
       end;
       (* Closed loop: a client submits its next request once the previous
          one has been delivered. Every scheduler sees the same stream. *)
       let submitted = ref 0 in
       List.iter
         (fun c ->
           match (c.aborted, c.outstanding, c.remaining) with
           | false, None, r :: rest ->
             c.remaining <- rest;
             incr req_counter;
             let r = { r with Request.id = !req_counter } in
             c.outstanding <- Some (Request.key r);
             List.iter (fun (_, s) -> Scheduler.submit s r) schedulers;
             incr submitted
           | _ -> ())
         clients;
       let keys_of (_, s) =
         let q, _ = Scheduler.cycle s in
         List.map Request.key q
       in
       let reference_batch, _ = Scheduler.cycle reference in
       if reference_batch <> [] then batches := reference_batch :: !batches;
       let reference_keys = List.map Request.key reference_batch in
       List.iter
         (fun ((name, _) as entry) ->
           let got = keys_of entry in
           if got <> reference_keys then begin
             failures :=
               Divergence
                 { formulation = name; cycle = !cycles;
                   expected = reference_keys; got }
               :: !failures;
             raise Stop
           end)
         (List.tl schedulers);
       executed := !executed + List.length reference_keys;
       (* Deliveries. *)
       List.iter
         (fun key ->
           List.iter
             (fun c ->
               if c.outstanding = Some key then begin
                 c.outstanding <- None;
                 if c.remaining = [] then incr committed
                 (* terminal delivered: transaction done (commit or
                    intrinsic abort) *)
               end)
             clients)
         reference_keys;
       (* Starvation handling: SS2PL's incremental lock acquisition can
          deadlock; when nothing qualified and nothing could be submitted,
          abort the youngest stalled transaction in every scheduler. *)
       if reference_keys = [] && !submitted = 0 then begin
         incr stall;
         if !stall >= stall_abort_after then begin
           stall := 0;
           let victim =
             List.fold_left
               (fun acc c ->
                 if c.outstanding <> None then
                   match acc with
                   | Some v when v.ta > c.ta -> acc
                   | _ -> Some c
                 else acc)
               None clients
           in
           match victim with
           | None ->
             failures :=
               Stuck
                 { cycle = !cycles;
                   pending = Scheduler.pending_count reference }
               :: !failures;
             raise Stop
           | Some c ->
             c.aborted <- true;
             c.outstanding <- None;
             c.remaining <- [];
             incr starved;
             List.iter (fun (_, s) -> ignore (Scheduler.abort_txn s c.ta)) schedulers
         end
       end
       else stall := 0
     done
   with Stop -> ());
  (* Schedule-level checks: every formulation's execution log must be
     conflict-serializable, strict, rigorous and commit-ordered on its
     committed projection. *)
  if !failures = [] then
    List.iter
      (fun (name, s) ->
        let events =
          Conflict_graph.events_of_requests
            (Relations.rte_requests (Scheduler.relations s))
        in
        let report = Serializability.check_committed events in
        if not (Serializability.is_clean report) then
          failures := Unclean { formulation = name; report } :: !failures)
      schedulers;
  (* Trace cross-check: the observability layer must agree with the rte
     execution log. The scheduler admits a commit request exactly when rte
     executes it, so the commit-op TA sequence derived from [Sched_admit]
     events must equal the one read off the log. *)
  let events = Ds_obs.Trace.events trace in
  (match Ds_obs.Span.validate events with
  | Error detail ->
    failures :=
      Trace_mismatch
        { formulation = "ss2pl-ocaml"; detail; expected = []; got = [] }
      :: !failures
  | Ok () -> ());
  let got =
    List.filter_map
      (fun (e : Ds_obs.Trace.event) ->
        if e.Ds_obs.Trace.kind = Ds_obs.Trace.Sched_admit && e.op = 'c' then
          Some e.Ds_obs.Trace.ta
        else None)
      events
  in
  let expected =
    List.filter_map
      (fun (r : Request.t) ->
        if Op.equal r.Request.op Op.Commit then Some r.Request.ta else None)
      (Relations.rte_requests (Scheduler.relations reference))
  in
  if got <> expected then
    failures :=
      Trace_mismatch
        {
          formulation = "ss2pl-ocaml";
          detail = "trace commit order <> rte commit order";
          expected;
          got;
        }
      :: !failures;
  (* The native lock-based server from the same seed: its committed schedule
     (including commit points) must pass the same battery un-projected. *)
  if config.include_native then begin
    let stats =
      Ds_server.Native_sim.run
        {
          Ds_server.Native_sim.default_config with
          Ds_server.Native_sim.n_clients = native_clients;
          duration = native_duration;
          seed;
          log_schedule = true;
          spec = spec_of config;
          deadlock_policy =
            (if seed mod 2 = 0 then `Detection else `Wound_wait);
        }
    in
    let events =
      Conflict_graph.events_of_schedule stats.Ds_server.Native_sim.schedule
    in
    let report = Serializability.check events in
    if not (Serializability.is_clean report) then
      failures := Unclean { formulation = "native-2pl"; report } :: !failures
  end;
  (* Parallel-vs-sequential oracle: replay the exact admitted batches
     through a K-worker pool and require the merged (delivery-order)
     schedule to be conflict-equivalent to the sequential admitted order,
     serializable on its committed projection, and to leave the same final
     table state (last writer per object). *)
  if !failures = [] && config.parallel_workers <> [] then begin
    let sequential = List.concat (List.rev !batches) in
    let final_state schedule =
      let last = Hashtbl.create 32 in
      List.iter
        (fun (r : Request.t) ->
          match (r.Request.op, r.Request.obj) with
          | Op.Write, Some o -> Hashtbl.replace last o (Request.key r)
          | _ -> ())
        schedule;
      List.sort compare
        (Hashtbl.fold (fun o k acc -> (o, k) :: acc) last [])
    in
    List.iter
      (fun workers ->
        let modes = if workers > 1 then [ false; true ] else [ false ] in
        List.iter
          (fun faulty ->
            if workers >= 1 && !failures = [] then begin
              let engine = Ds_sim.Engine.create () in
              let pool =
                Ds_server.Worker_pool.create engine
                  Ds_server.Cost_model.default ~workers
              in
              if faulty then begin
                (* Deterministic worker-fault script from the iteration
                   seed: crashes, permanent deaths and stalls rain on the
                   pool while the supervisor reassigns and hedges — the
                   merged schedule must STILL pass every check below. *)
                let frng = Ds_sim.Rng.create ((seed * 7919) + workers) in
                Ds_server.Worker_pool.set_deadline_factor pool (Some 3.0);
                Ds_server.Worker_pool.set_hedging pool true;
                Ds_server.Worker_pool.set_worker_fault_hook pool
                  (Some
                     (fun ~alive ->
                       let pick () =
                         let a = Array.of_list alive in
                         a.(Ds_sim.Rng.int frng (Array.length a))
                       in
                       let fs = ref [] in
                       if
                         List.length alive > 1
                         && Ds_sim.Rng.float frng < 0.35
                       then
                         fs :=
                           Ds_server.Worker_pool.Crash
                             { worker = pick ();
                               after = Ds_sim.Rng.int frng 3 }
                           :: !fs;
                       if
                         List.length alive > 1
                         && Ds_sim.Rng.float frng < 0.1
                       then
                         fs :=
                           Ds_server.Worker_pool.Die { worker = pick () }
                           :: !fs;
                       if alive <> [] && Ds_sim.Rng.float frng < 0.35 then
                         fs :=
                           Ds_server.Worker_pool.Slow
                             { worker = pick (); delay = 0.02 }
                           :: !fs;
                       !fs))
              end;
              let merged = ref [] in
              (* Chain batches through each completion so batch N+1
                 dispatches only after batch N drains, mirroring the
                 middleware's admission order regardless of pool
                 internals. *)
              let rec replay = function
                | [] -> ()
                | batch :: rest ->
                  Ds_server.Worker_pool.execute pool batch
                    ~on_each:(fun r ->
                      merged := r :: !merged)
                    (fun _ -> replay rest)
              in
              replay (List.rev !batches);
              Ds_sim.Engine.run engine;
              let merged = List.rev !merged in
              let fail detail =
                let detail =
                  if faulty then "with worker faults: " ^ detail else detail
                in
                failures := Parallel_mismatch { workers; detail } :: !failures
              in
              let eq =
                Equivalence.check ~complete:true ~reference:sequential
                  ~candidate:merged ()
              in
              if not (Equivalence.is_equivalent eq) then
                fail (Format.asprintf "%a" Equivalence.pp_report eq)
              else begin
                let report =
                  Serializability.check_committed
                    (Conflict_graph.events_of_requests merged)
                in
                if not (Serializability.is_clean report) then
                  fail
                    (Format.asprintf "merged schedule dirty: %a"
                       Serializability.pp_report report)
                else if final_state merged <> final_state sequential then
                  fail "final table state differs from sequential replay"
              end
            end)
          modes)
      config.parallel_workers
  end;
  {
    seed;
    cycles = !cycles;
    executed = !executed;
    committed_txns = !committed;
    aborted_txns = !starved;
    failures = List.rev !failures;
  }

type summary = {
  runs : int;
  clean_runs : int;
  total_executed : int;
  failed : outcome list;
}

let run ?(config = default_config) ?subjects ~seeds () =
  let outcomes = List.map (fun seed -> run_one ~config ?subjects ~seed ()) seeds in
  {
    runs = List.length outcomes;
    clean_runs = List.length (List.filter clean outcomes);
    total_executed = List.fold_left (fun acc o -> acc + o.executed) 0 outcomes;
    failed = List.filter (fun o -> not (clean o)) outcomes;
  }

let pp_keys ppf keys =
  Format.fprintf ppf "[%s]"
    (String.concat "; "
       (List.map (fun (ta, i) -> Printf.sprintf "(%d,%d)" ta i) keys))

let pp_failure ppf = function
  | Divergence { formulation; cycle; expected; got } ->
    Format.fprintf ppf "%s diverged at cycle %d: oracle %a, got %a" formulation
      cycle pp_keys expected pp_keys got
  | Stuck { cycle; pending } ->
    Format.fprintf ppf "no progress at cycle %d (%d pending)" cycle pending
  | Unclean { formulation; report } ->
    Format.fprintf ppf "%s produced a dirty schedule: %a" formulation
      Serializability.pp_report report
  | Trace_mismatch { formulation; detail; expected; got } ->
    let tas l = String.concat ";" (List.map string_of_int l) in
    Format.fprintf ppf "%s trace check failed: %s (rte [%s], trace [%s])"
      formulation detail (tas expected) (tas got)
  | Parallel_mismatch { workers; detail } ->
    Format.fprintf ppf "parallel replay with %d workers diverged: %s" workers
      detail

let pp_outcome ppf o =
  Format.fprintf ppf
    "seed=%d cycles=%d executed=%d committed=%d starvation_aborts=%d%s" o.seed
    o.cycles o.executed o.committed_txns o.aborted_txns
    (if o.failures = [] then " clean" else "");
  List.iter (fun f -> Format.fprintf ppf "@.  FAIL %a" pp_failure f) o.failures

let pp_summary ppf s =
  Format.fprintf ppf "%d/%d iterations clean (%d requests executed)"
    s.clean_runs s.runs s.total_executed;
  List.iter (fun o -> Format.fprintf ppf "@.%a" pp_outcome o) s.failed
