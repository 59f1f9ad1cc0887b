(* Tests for the conflict-class parallel backend: partition properties,
   worker-pool execution semantics, placement through the traces relation,
   conflict equivalence of merged schedules, and the per-worker metrics
   report. *)

open Ds_model
open Ds_server
open Ds_core

let req id ta intrata op obj = Request.make ~id ~ta ~intrata ~op ~obj ()
let terminal id ta intrata op = Request.make ~id ~ta ~intrata ~op ()

(* The class id of each request of [classes], looked up by request key. *)
let class_of classes =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun r -> Hashtbl.replace tbl (Request.key r) c.Partition.id)
        c.Partition.requests)
    classes;
  fun r -> Hashtbl.find_opt tbl (Request.key r)

(* --- partition: qcheck property ----------------------------------- *)

let partition_is_true_partition =
  QCheck2.Test.make ~name:"conflict-class partition is a true partition"
    ~count:300
    (Helpers.batch_gen ())
    (fun triples ->
      let batch = Helpers.requests_of_triples triples in
      let classes = Partition.partition batch in
      (* Every request lands in exactly one class. *)
      let scattered =
        List.concat_map (fun c -> c.Partition.requests) classes
      in
      let multiset rs = List.sort compare (List.map Request.key rs) in
      if multiset scattered <> multiset batch then
        QCheck2.Test.fail_report "not a partition of the batch";
      (* No two requests in different classes conflict or share a TA. *)
      let cls_of = class_of classes in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j && (Request.conflicts a b || a.Request.ta = b.Request.ta)
              then
                if cls_of a <> cls_of b then
                  QCheck2.Test.fail_reportf
                    "related requests (%d,%d) and (%d,%d) in different classes"
                    a.Request.ta a.Request.intrata b.Request.ta
                    b.Request.intrata)
            batch)
        batch;
      (* Batch order is preserved within every class. *)
      let pos = Hashtbl.create 32 in
      List.iteri (fun i r -> Hashtbl.replace pos (Request.key r) i) batch;
      List.iter
        (fun c ->
          let ps = List.map (fun r -> Hashtbl.find pos (Request.key r)) c.Partition.requests in
          if List.sort compare ps <> ps then
            QCheck2.Test.fail_report "batch order not preserved in a class")
        classes;
      true)

let test_partition_empty () =
  Alcotest.(check int) "empty batch partitions to no classes" 0
    (List.length (Partition.partition []))

let test_partition_single_txn () =
  (* One transaction touching disjoint objects: same-TA requests must stay
     in one class regardless of object overlap, in batch order. *)
  let batch =
    [ req 1 7 1 Op.Read 10; req 2 7 2 Op.Write 20; terminal 3 7 3 Op.Commit ]
  in
  match Partition.partition batch with
  | [ c ] ->
    Alcotest.(check (list (pair int int)))
      "single class holds the whole txn in order"
      (List.map Request.key batch)
      (List.map Request.key c.Partition.requests)
  | classes ->
    Alcotest.failf "single-txn batch split into %d classes"
      (List.length classes)

let test_partition_fully_conflicting () =
  (* Distinct transactions all writing one object: one class, batch order
     preserved — the parallel backend degrades to sequential here. *)
  let qcheck_conflicting =
    QCheck2.Test.make ~name:"fully-conflicting batch is one class"
      ~count:(Helpers.Config.qcheck_count 100)
      QCheck2.Gen.(int_range 2 12)
      (fun n ->
        let batch = List.init n (fun i -> req (i + 1) (i + 1) 1 Op.Write 5) in
        match Partition.partition batch with
        | [ c ] ->
          List.map Request.key c.Partition.requests = List.map Request.key batch
        | _ -> false)
  in
  match QCheck2.Test.check_exn qcheck_conflicting with
  | () -> ()
  | exception QCheck2.Test.Test_fail (name, _) -> Alcotest.fail name

let test_partition_examples () =
  (* Two independent writers, one shared-object pair, one read-only group. *)
  let batch =
    [
      req 1 1 1 Op.Write 10;
      req 2 2 1 Op.Write 20;
      req 3 3 1 Op.Write 10;
      (* conflicts with id 1 *)
      req 4 4 1 Op.Read 30;
      req 5 5 1 Op.Read 30;
      (* read-read: no edge *)
    ]
  in
  let classes = Partition.partition batch in
  Alcotest.(check int) "4 classes" 4 (List.length classes);
  let cls_of = class_of classes in
  Alcotest.(check bool) "w-w same class" true
    (cls_of (List.nth batch 0) = cls_of (List.nth batch 2));
  Alcotest.(check bool) "r-r different classes" true
    (cls_of (List.nth batch 3) <> cls_of (List.nth batch 4));
  Alcotest.(check (list int)) "ids in first-appearance order" [ 0; 1; 2; 3 ]
    (List.map (fun c -> c.Partition.id) classes)

(* --- worker pool -------------------------------------------------- *)

(* Pairs each delivered request with the worker that ran it, read from the
   request's [exec_start] event (the pool records placement only there). *)
let placed trace deliveries =
  let worker = Hashtbl.create 64 in
  List.iter
    (fun (e : Ds_obs.Trace.event) ->
      if e.Ds_obs.Trace.kind = Ds_obs.Trace.Exec_start then
        Hashtbl.replace worker (e.Ds_obs.Trace.ta, e.Ds_obs.Trace.seq)
          e.Ds_obs.Trace.arg)
    (Ds_obs.Trace.events trace);
  List.map (fun r -> (Hashtbl.find worker (Request.key r), r)) deliveries

let run_pool ~workers batch =
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers in
  let trace = Ds_obs.Trace.create () in
  Worker_pool.set_trace pool (Some trace);
  let deliveries = ref [] in
  let result = ref None in
  Worker_pool.execute pool batch
    ~on_each:(fun r -> deliveries := r :: !deliveries)
    (fun res -> result := Some res);
  Ds_sim.Engine.run engine;
  (pool, Ds_sim.Engine.now engine, placed trace (List.rev !deliveries), !result)

let independent_batch n =
  List.init n (fun i -> req (i + 1) (i + 1) 1 Op.Write (100 + i))

let test_pool_speedup () =
  let batch = independent_batch 16 in
  let _, t1, d1, r1 = run_pool ~workers:1 batch in
  let _, t4, d4, r4 = run_pool ~workers:4 batch in
  Alcotest.(check bool) "k1 completed" true (r1 = Some `Completed);
  Alcotest.(check bool) "k4 completed" true (r4 = Some `Completed);
  Alcotest.(check int) "k1 delivers all" 16 (List.length d1);
  Alcotest.(check int) "k4 delivers all" 16 (List.length d4);
  Alcotest.(check bool)
    (Printf.sprintf "independent batch >=2x faster on 4 workers (%.4f vs %.4f)"
       t1 t4)
    true
    (t4 <= t1 /. 2.)

let test_pool_conflicts_serialize () =
  (* All five requests write the same object: one class, one worker, batch
     order preserved — no speedup possible. *)
  let batch = List.init 5 (fun i -> req (i + 1) (i + 1) 1 Op.Write 7) in
  let _, t1, _, _ = run_pool ~workers:1 batch in
  let _, t4, d4, _ = run_pool ~workers:4 batch in
  Alcotest.(check (float 1e-9)) "conflicting batch gains nothing" t1 t4;
  let workers = List.sort_uniq compare (List.map fst d4) in
  Alcotest.(check int) "single worker used" 1 (List.length workers);
  Alcotest.(check (list (pair int int))) "batch order preserved"
    (List.map Request.key batch)
    (List.map (fun (_, r) -> Request.key r) d4)

let test_pool_batch_barrier () =
  (* Batch 2 conflicts with batch 1 on object 5; with the barrier, every
     batch-1 delivery precedes every batch-2 delivery of that object. *)
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers:4 in
  let batch1 =
    [ req 1 1 1 Op.Write 5; req 2 2 1 Op.Write 6; req 3 3 1 Op.Write 7 ]
  in
  let batch2 = [ req 4 4 1 Op.Read 5; req 5 5 1 Op.Write 8 ] in
  let order = ref [] in
  let record r = order := Request.key r :: !order in
  Worker_pool.execute pool batch1
    ~on_each:(fun r -> record r)
    (fun _ -> ());
  Worker_pool.execute pool batch2
    ~on_each:(fun r -> record r)
    (fun _ -> ());
  Ds_sim.Engine.run engine;
  let order = List.rev !order in
  Alcotest.(check int) "all delivered" 5 (List.length order);
  let idx k =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = k then i else go (i + 1) rest
    in
    go 0 order
  in
  List.iter
    (fun k1 ->
      List.iter
        (fun k2 ->
          Alcotest.(check bool) "cross-batch order" true (idx k1 < idx k2))
        (List.map Request.key batch2))
    (List.map Request.key batch1);
  Alcotest.(check int) "two batches drained" 2 (Worker_pool.batch_count pool)

let test_pool_empty_batch () =
  let _, _, deliveries, result = run_pool ~workers:4 [] in
  Alcotest.(check bool) "empty batch completes" true (result = Some `Completed);
  Alcotest.(check int) "nothing delivered" 0 (List.length deliveries)

let test_pool_failure () =
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers:4 in
  let batch = independent_batch 8 in
  let poison = Request.key (List.nth batch 3) in
  Worker_pool.set_fault_hook pool (fun r ->
      if Request.key r = poison then `Fail else `Ok);
  let delivered = ref [] in
  let result = ref None in
  Worker_pool.execute pool batch
    ~on_each:(fun r -> delivered := Request.key r :: !delivered)
    (fun res -> result := Some res);
  Ds_sim.Engine.run engine;
  (match !result with
  | Some (`Failed r) ->
    Alcotest.(check (pair int int)) "failed request reported" poison (Request.key r)
  | _ -> Alcotest.fail "expected `Failed");
  Alcotest.(check bool) "poison never delivered" false
    (List.mem poison !delivered);
  (* The pool keeps draining and stays usable for the retry. *)
  Alcotest.(check int) "batch drained" 1 (Worker_pool.batch_count pool)

let test_pool_k1_matches_backend () =
  (* K=1 must be the plain sequential backend: same completion time, same
     executed count. *)
  let batch =
    [
      req 1 1 1 Op.Write 1; req 2 1 2 Op.Read 2; terminal 3 1 3 Op.Commit;
      req 4 2 1 Op.Write 1;
    ]
  in
  let engine_b = Ds_sim.Engine.create () in
  let backend = Backend.create engine_b Cost_model.default in
  Backend.execute_seq backend batch ~on_each:(fun _ -> ()) (fun () -> ());
  Ds_sim.Engine.run engine_b;
  let _, t_pool, deliveries, _ = run_pool ~workers:1 batch in
  Alcotest.(check (float 1e-12)) "identical completion time"
    (Ds_sim.Engine.now engine_b) t_pool;
  Alcotest.(check (list (pair int int))) "batch order delivery"
    (List.map Request.key batch)
    (List.map (fun (_, r) -> Request.key r) deliveries);
  List.iter (fun (w, _) -> Alcotest.(check int) "worker 0" 0 w) deliveries

(* --- middleware end-to-end with workers=4 ------------------------- *)

let middleware_run ?(workers = 4) ?metrics ?trace () =
  Middleware.run_sharded
    {
      Middleware.default_config with
      Middleware.n_clients = 15;
      duration = 3.0;
      workers;
      charge_scheduler_time = false;
      spec =
        { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 2000 };
      metrics;
      trace;
    }

let merged_schedule (h : Middleware.handle) =
  let rte = h.Middleware.merged_rte in
  let by_key = Hashtbl.create (2 * List.length rte) in
  List.iter (fun r -> Hashtbl.replace by_key (Request.key r) r) rte;
  ( rte,
    List.filter_map
      (fun key -> Hashtbl.find_opt by_key key)
      h.Middleware.merged_execution_order )

let test_middleware_parallel_clean () =
  let s, h = middleware_run () in
  Alcotest.(check bool) "made progress" true (s.Middleware.committed_txns > 0);
  Alcotest.(check int) "ran with 4 workers" 4 s.Middleware.workers;
  Alcotest.(check bool) "batches drained" true
    (s.Middleware.batches_dispatched > 0);
  let rte, merged = merged_schedule h in
  let report =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_requests rte)
  in
  Alcotest.(check bool) "rte checker-clean" true
    (Ds_check.Serializability.is_clean report);
  let eq = Ds_check.Equivalence.check ~reference:rte ~candidate:merged () in
  Alcotest.(check bool)
    (Format.asprintf "merged conflict-equivalent to admitted order: %a"
       Ds_check.Equivalence.pp_report eq)
    true
    (Ds_check.Equivalence.is_equivalent eq)

let traced_middleware_run () =
  let trace = Ds_obs.Trace.create () in
  let _, h = middleware_run ~trace () in
  (h, Ds_obs.Trace.events trace)

(* Placement is recorded once, as the worker id in each [exec_start] event,
   and is queryable through the [traces] relation. *)
let test_placement_via_trace_sql () =
  let _, events = traced_middleware_run () in
  let catalog = Ds_sql.Catalog.create () in
  Ds_sql.Catalog.register catalog (Ds_obs.Export.to_table events);
  match
    Ds_sql.Exec.exec_script catalog
      "SELECT DISTINCT arg FROM traces WHERE kind = 'exec_start'"
  with
  | Ds_sql.Exec.Rows (_, rows) ->
    let workers =
      List.sort compare
        (List.map
           (function
             | [| Ds_relal.Value.Int w |] -> w
             | _ -> Alcotest.fail "expected one INT column")
           rows)
    in
    Alcotest.(check (list int)) "every worker ran work" [ 0; 1; 2; 3 ] workers
  | _ -> Alcotest.fail "expected rows from traces"

let test_deliveries_traced () =
  let h, events = traced_middleware_run () in
  let started = Hashtbl.create 1024 in
  List.iter
    (fun (e : Ds_obs.Trace.event) ->
      if e.Ds_obs.Trace.kind = Ds_obs.Trace.Exec_start then
        Hashtbl.replace started (e.Ds_obs.Trace.ta, e.Ds_obs.Trace.seq) ())
    events;
  let order = h.Middleware.merged_execution_order in
  Alcotest.(check bool) "deliveries recorded" true (order <> []);
  List.iter
    (fun (ta, intrata) ->
      if not (Hashtbl.mem started (ta, intrata)) then
        Alcotest.failf "delivered (%d, %d) has no exec_start event" ta intrata)
    order

let test_metrics_report_per_worker () =
  let m = Ds_obs.Metrics.create () in
  let s, _ = middleware_run ~metrics:m () in
  let rendered = Ds_obs.Metrics.render m in
  (* run-level makespans live in the stats, not in the metrics *)
  Alcotest.(check bool) "positive makespan" true
    (s.Middleware.mean_batch_makespan > 0.);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "metrics report mentions %S" needle)
        true
        (Helpers.contains rendered needle))
    [ "parallel backend: 4 worker(s)"; "worker 0"; "worker 3"; "util" ];
  Alcotest.(check int) "four worker rows" 4
    (List.length (Ds_obs.Metrics.workers m))

let test_workers_one_no_parallel_noise () =
  (* The K=1 configuration must not change observable output formats. *)
  let s, _ = middleware_run ~workers:1 () in
  let rendered = Format.asprintf "%a" Middleware.pp_stats s in
  Alcotest.(check bool) "no parallel clause at K=1" false
    (Helpers.contains rendered "parallel(")

(* --- supervision: worker faults, reassignment, hedging ------------ *)

let keys_once name keys =
  let sorted = List.sort compare keys in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then true else dup rest
    | _ -> false
  in
  Alcotest.(check bool) (name ^ ": no duplicate delivery") false (dup sorted)

(* Supervisor decisions of one kind and cause ([op]) in a trace sink. *)
let traced trace kind op =
  List.filter
    (fun (e : Ds_obs.Trace.event) ->
      e.Ds_obs.Trace.kind = kind && e.Ds_obs.Trace.op = op)
    (Ds_obs.Trace.events trace)

let test_pool_crash_reassigns () =
  (* Worker 0 crashes before starting anything; its queued classes must all
     run elsewhere, each request delivered exactly once. *)
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers:4 in
  Worker_pool.set_worker_fault_hook pool
    (Some
       (fun ~alive:_ -> [ Worker_pool.Crash { worker = 0; after = 0 } ]));
  let trace = Ds_obs.Trace.create () in
  Worker_pool.set_trace pool (Some trace);
  let batch = independent_batch 12 in
  let delivered = ref [] in
  let result = ref None in
  Worker_pool.execute pool batch
    ~on_each:(fun r -> delivered := r :: !delivered)
    (fun res -> result := Some res);
  Ds_sim.Engine.run engine;
  let ran_on =
    List.map
      (fun (w, r) -> (w, Request.key r))
      (placed trace (List.rev !delivered))
  in
  Alcotest.(check bool) "completed" true (!result = Some `Completed);
  Alcotest.(check int) "all delivered" 12 (List.length ran_on);
  keys_once "crash" (List.map snd ran_on);
  Alcotest.(check int) "one crash counted" 1 (Worker_pool.worker_crashes pool);
  Alcotest.(check bool) "classes reassigned" true
    (Worker_pool.reassigned_classes pool > 0);
  Alcotest.(check bool) "nothing ran on the crashed worker" true
    (List.for_all (fun (w, _) -> w <> 0) ran_on);
  Alcotest.(check (list int)) "crash of worker 0 traced" [ 0 ]
    (List.map
       (fun (e : Ds_obs.Trace.event) -> e.Ds_obs.Trace.arg)
       (traced trace Ds_obs.Trace.Worker_down 'c'));
  Alcotest.(check int) "each reassignment traced"
    (Worker_pool.reassigned_classes pool)
    (List.length (traced trace Ds_obs.Trace.Reassign 'r'));
  (* The crash was per-batch: worker 0 rejoins for the next one. *)
  Worker_pool.set_worker_fault_hook pool None;
  Alcotest.(check (list int)) "all alive again" [ 0; 1; 2; 3 ]
    (List.sort compare (Worker_pool.alive_workers pool))

let test_pool_death_is_permanent () =
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers:3 in
  Worker_pool.set_worker_fault_hook pool
    (Some (fun ~alive -> if List.mem 1 alive then [ Worker_pool.Die { worker = 1 } ] else []));
  let trace = Ds_obs.Trace.create () in
  Worker_pool.set_trace pool (Some trace);
  let delivered = ref [] in
  let run_batch batch =
    Worker_pool.execute pool batch
      ~on_each:(fun r -> delivered := r :: !delivered)
      (fun _ -> ());
    Ds_sim.Engine.run engine
  in
  run_batch (independent_batch 6);
  run_batch
    (List.init 6 (fun i -> req (100 + i) (100 + i) 1 Op.Write (500 + i)));
  let ran_on =
    List.map
      (fun (w, r) -> (w, Request.key r))
      (placed trace (List.rev !delivered))
  in
  Alcotest.(check int) "one death" 1 (Worker_pool.worker_deaths pool);
  Alcotest.(check (list int)) "worker 1 stays dead" [ 1 ]
    (Worker_pool.dead_workers pool);
  Alcotest.(check int) "both batches fully delivered" 12
    (List.length ran_on);
  keys_once "death" (List.map snd ran_on);
  Alcotest.(check bool) "dead worker never delivers" true
    (List.for_all (fun (w, _) -> w <> 1) ran_on)

let test_pool_stall_hedged_exactly_once () =
  (* Worker 0 turns straggler; the deadline declares it stuck and hedging
     races its classes on survivors. First-wins dedup keeps every request
     single-delivery. *)
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers:2 in
  Worker_pool.set_deadline_factor pool (Some 2.);
  Worker_pool.set_hedging pool true;
  Worker_pool.set_worker_fault_hook pool
    (Some (fun ~alive:_ -> [ Worker_pool.Slow { worker = 0; delay = 1.0 } ]));
  let delivered = ref [] in
  let result = ref None in
  Worker_pool.execute pool (independent_batch 8)
    ~on_each:(fun r ->
      delivered := Request.key r :: !delivered)
    (fun res -> result := Some res);
  Ds_sim.Engine.run engine;
  Alcotest.(check bool) "completed" true (!result = Some `Completed);
  Alcotest.(check int) "all delivered" 8 (List.length !delivered);
  keys_once "hedge" !delivered;
  Alcotest.(check bool) "stall detected" true
    (Worker_pool.worker_stalls_detected pool > 0);
  Alcotest.(check bool) "hedges dispatched" true
    (Worker_pool.hedged_classes pool > 0)

let test_pool_hedge_single_finish () =
  (* Regression: after a hedge completes the batch, the slow primary's late
     copy must not complete it a second time — the next batch would be
     dispatched twice. Count continuation firings across two batches. *)
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers:2 in
  Worker_pool.set_deadline_factor pool (Some 1.5);
  Worker_pool.set_hedging pool true;
  Worker_pool.set_worker_fault_hook pool
    (Some (fun ~alive:_ -> [ Worker_pool.Slow { worker = 0; delay = 2.0 } ]));
  let finishes = ref 0 in
  Worker_pool.execute pool (independent_batch 6)
    ~on_each:(fun _ -> ())
    (fun _ -> incr finishes);
  Worker_pool.execute pool
    (List.init 4 (fun i -> req (50 + i) (50 + i) 1 Op.Write (300 + i)))
    ~on_each:(fun _ -> ())
    (fun _ -> incr finishes);
  Ds_sim.Engine.run engine;
  Alcotest.(check int) "each batch finishes exactly once" 2 !finishes;
  Alcotest.(check int) "two batches drained" 2 (Worker_pool.batch_count pool)

let test_pool_conflict_order_survives_crash () =
  (* A crashing worker must not reorder conflicting requests: classes are
     reassigned whole, so in-class (= conflict) order is preserved. *)
  let engine = Ds_sim.Engine.create () in
  let pool = Worker_pool.create engine Cost_model.default ~workers:3 in
  Worker_pool.set_worker_fault_hook pool
    (Some (fun ~alive:_ -> [ Worker_pool.Crash { worker = 1; after = 0 } ]));
  (* three conflict classes of two ordered writes each *)
  let batch =
    List.concat_map
      (fun c ->
        [
          req ((c * 10) + 1) ((c * 10) + 1) 1 Op.Write c;
          req ((c * 10) + 2) ((c * 10) + 2) 1 Op.Write c;
        ])
      [ 0; 1; 2 ]
  in
  let delivered = ref [] in
  Worker_pool.execute pool batch
    ~on_each:(fun r -> delivered := r :: !delivered)
    (fun _ -> ());
  Ds_sim.Engine.run engine;
  let order = List.rev !delivered in
  Alcotest.(check int) "all delivered" 6 (List.length order);
  let eq = Ds_check.Equivalence.check ~reference:batch ~candidate:order () in
  Alcotest.(check bool) "conflict-equivalent to batch order" true
    (Ds_check.Equivalence.is_equivalent eq)

let test_middleware_worker_faults_clean () =
  (* End-to-end: injected worker crashes, deaths and stalls at K=4,
     supervisor reassigning and hedging — the merged schedule must stay
     checker-clean and conflict-equivalent, and the trace must carry every
     supervisor decision, its cause in [op]. *)
  let trace = Ds_obs.Trace.create () in
  let s, h =
    Middleware.run_sharded
      {
        Middleware.default_config with
        Middleware.n_clients = 15;
        duration = 3.0;
        workers = 4;
        charge_scheduler_time = false;
        hedging = true;
        trace = Some trace;
        faults =
          {
            Ds_core.Faults.none with
            Ds_core.Faults.worker_crash_rate = 0.2;
            worker_death_rate = 0.02;
            worker_stall_rate = 0.3;
            worker_stall_duration = 0.05;
          };
        spec =
          {
            Ds_workload.Spec.paper_default with
            Ds_workload.Spec.n_objects = 2000;
          };
      }
  in
  Alcotest.(check bool) "made progress" true (s.Middleware.committed_txns > 0);
  Alcotest.(check bool) "crashes injected" true (s.Middleware.worker_crashes > 0);
  Alcotest.(check bool) "classes reassigned" true
    (s.Middleware.reassigned_classes > 0);
  let rte, merged = merged_schedule h in
  let report =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_requests rte)
  in
  Alcotest.(check bool) "rte checker-clean under worker faults" true
    (Ds_check.Serializability.is_clean report);
  let eq = Ds_check.Equivalence.check ~reference:rte ~candidate:merged () in
  Alcotest.(check bool) "merged conflict-equivalent under worker faults" true
    (Ds_check.Equivalence.is_equivalent eq);
  Alcotest.(check bool) "a worker died" true (s.Middleware.worker_deaths > 0);
  Alcotest.(check bool) "a class was hedged" true
    (s.Middleware.hedged_classes > 0);
  let n_traced kind op = List.length (traced trace kind op) in
  Alcotest.(check (list int)) "trace counts = supervision counters"
    Middleware.
      [
        s.worker_crashes;
        s.worker_deaths;
        s.worker_stalls;
        s.reassigned_classes;
        s.hedged_classes;
      ]
    Ds_obs.Trace.
      [
        n_traced Worker_down 'c';
        n_traced Worker_down 'd';
        n_traced Worker_down 's';
        n_traced Reassign 'r';
        n_traced Reassign 'h';
      ]

let tests =
  [
    QCheck_alcotest.to_alcotest partition_is_true_partition;
    Alcotest.test_case "partition examples" `Quick test_partition_examples;
    Alcotest.test_case "partition of the empty batch" `Quick
      test_partition_empty;
    Alcotest.test_case "partition keeps a single txn together" `Quick
      test_partition_single_txn;
    Alcotest.test_case "fully-conflicting batch is one class" `Quick
      test_partition_fully_conflicting;
    Alcotest.test_case "pool speedup on independent batch" `Quick
      test_pool_speedup;
    Alcotest.test_case "conflicting batch serializes" `Quick
      test_pool_conflicts_serialize;
    Alcotest.test_case "cross-batch barrier ordering" `Quick
      test_pool_batch_barrier;
    Alcotest.test_case "empty batch" `Quick test_pool_empty_batch;
    Alcotest.test_case "worker failure reported early" `Quick test_pool_failure;
    Alcotest.test_case "K=1 pool = sequential backend" `Quick
      test_pool_k1_matches_backend;
    Alcotest.test_case "middleware @4 workers checker-clean" `Quick
      test_middleware_parallel_clean;
    Alcotest.test_case "placement via the traces relation" `Quick
      test_placement_via_trace_sql;
    Alcotest.test_case "every delivery has an exec_start event" `Quick
      test_deliveries_traced;
    Alcotest.test_case "metrics report per-worker rows" `Quick
      test_metrics_report_per_worker;
    Alcotest.test_case "K=1 output unchanged" `Quick
      test_workers_one_no_parallel_noise;
    Alcotest.test_case "crash reassigns unstarted classes" `Quick
      test_pool_crash_reassigns;
    Alcotest.test_case "permanent death removes the worker" `Quick
      test_pool_death_is_permanent;
    Alcotest.test_case "stuck worker hedged, exactly-once" `Quick
      test_pool_stall_hedged_exactly_once;
    Alcotest.test_case "hedged batch finishes exactly once" `Quick
      test_pool_hedge_single_finish;
    Alcotest.test_case "conflict order survives a crash" `Quick
      test_pool_conflict_order_survives_crash;
    Alcotest.test_case "middleware worker faults checker-clean" `Quick
      test_middleware_worker_faults_clean;
  ]
