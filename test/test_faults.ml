(* Fault injection and graceful degradation: the fault plan parser, the
   backend failure hook, retry/backoff with dead-lettering, SLA-aware load
   shedding, client disconnects, and live mid-run crash recovery.  The
   end-to-end properties here are the robustness contract: under a nonzero
   fault plan the middleware still terminates, still commits work, and the
   executed schedule (rte) still passes the full serializability battery. *)

open Ds_core
open Ds_model

let small_spec =
  { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 2000 }

let mixed_spec =
  {
    small_spec with
    Ds_workload.Spec.sla_mix =
      [ (Sla.premium, 0.2); (Sla.standard, 0.5); (Sla.free, 0.3) ];
  }

(* Fault runs disable wall-clock charging (determinism across machines). A
   non-empty plan itself turns on the client contract: aborted transactions
   are redone and batch attempts time out. *)
let cfg ?(n_clients = 12) ?(duration = 4.) ?(spec = small_spec)
    ?(faults = Faults.none) () =
  {
    Middleware.default_config with
    Middleware.n_clients;
    duration;
    spec;
    charge_scheduler_time = false;
    faults;
  }

let plan_exn s =
  match Faults.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S rejected: %s" s e

(* --- plan parsing -------------------------------------------------------- *)

let test_plan_parse () =
  let p =
    plan_exn "batch=0.1,stall=0.05,stall-dur=0.2,poison=0.01,disconnect=0.02,crash=40"
  in
  Alcotest.(check (float 1e-9)) "batch" 0.1 p.Faults.batch_fail_rate;
  Alcotest.(check (float 1e-9)) "stall" 0.05 p.Faults.stall_rate;
  Alcotest.(check (float 1e-9)) "stall-dur" 0.2 p.Faults.stall_duration;
  Alcotest.(check (float 1e-9)) "poison" 0.01 p.Faults.poison_rate;
  Alcotest.(check (float 1e-9)) "disconnect" 0.02 p.Faults.disconnect_rate;
  Alcotest.(check (option int)) "crash" (Some 40) p.Faults.crash_at_cycle;
  (* every key optional; spec round-trips through plan_to_string *)
  let partial = plan_exn "batch=0.5" in
  Alcotest.(check (float 1e-9)) "partial batch" 0.5 partial.Faults.batch_fail_rate;
  Alcotest.(check (float 1e-9)) "partial stall defaults" 0. partial.Faults.stall_rate;
  Alcotest.(check bool) "partial plan is not none" false (Faults.is_none partial);
  Alcotest.(check bool) "empty spec is the zero plan" true
    (Faults.is_none (plan_exn ""));
  let roundtripped = plan_exn (Faults.plan_to_string p) in
  Alcotest.(check string) "round-trip" (Faults.plan_to_string p)
    (Faults.plan_to_string roundtripped)

let test_plan_rejects () =
  let rejected s =
    match Faults.plan_of_string s with
    | Error _ -> ()
    | Ok p -> (
      match Faults.validate p with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "plan %S should have been rejected" s)
  in
  rejected "bogus=1";
  rejected "batch";
  rejected "batch=lots";
  rejected "batch=1.5";
  rejected "poison=-0.1";
  rejected "crash=0";
  (* worker-scoped knobs are rates/durations too *)
  rejected "wcrash=1.5";
  rejected "wdeath=-0.1";
  rejected "wstall=two";
  rejected "wstall-dur=-1"

let test_plan_parse_worker_faults () =
  let p = plan_exn "wcrash=0.1,wdeath=0.05,wstall=0.2,wstall-dur=0.3" in
  Alcotest.(check (float 1e-9)) "wcrash" 0.1 p.Faults.worker_crash_rate;
  Alcotest.(check (float 1e-9)) "wdeath" 0.05 p.Faults.worker_death_rate;
  Alcotest.(check (float 1e-9)) "wstall" 0.2 p.Faults.worker_stall_rate;
  Alcotest.(check (float 1e-9)) "wstall-dur" 0.3 p.Faults.worker_stall_duration;
  Alcotest.(check bool) "plan has worker faults" true
    (Faults.has_worker_faults p);
  Alcotest.(check bool) "zero plan has none" false
    (Faults.has_worker_faults Faults.none);
  Alcotest.(check bool) "process knobs untouched" true
    (p.Faults.batch_fail_rate = 0. && p.Faults.crash_at_cycle = None);
  let roundtripped = plan_exn (Faults.plan_to_string p) in
  Alcotest.(check string) "worker keys round-trip" (Faults.plan_to_string p)
    (Faults.plan_to_string roundtripped)

(* --- backend fault hook --------------------------------------------------- *)

let test_backend_hook_fail () =
  let engine = Ds_sim.Engine.create () in
  let backend = Ds_server.Backend.create engine Ds_server.Cost_model.default in
  let reqs =
    [ Request.v 1 1 Op.Read 1; Request.v 1 2 Op.Write 2; Request.v 1 3 Op.Read 3 ]
  in
  Ds_server.Backend.set_fault_hook backend (fun r ->
      if Request.key r = (1, 2) then `Fail else `Ok);
  let seen = ref [] in
  let result = ref None in
  Ds_server.Backend.execute_seq_result backend reqs
    ~on_each:(fun r -> seen := Request.key r :: !seen)
    (fun res -> result := Some res);
  Ds_sim.Engine.run engine;
  Alcotest.(check (list (pair int int))) "prefix delivered" [ (1, 1) ] !seen;
  match !result with
  | Some (`Failed r) ->
    Alcotest.(check (pair int int)) "failed request reported" (1, 2)
      (Request.key r)
  | Some `Completed -> Alcotest.fail "batch should have failed"
  | None -> Alcotest.fail "batch never finished"

let test_backend_hook_stall () =
  let finish engine hook =
    let backend =
      Ds_server.Backend.create engine Ds_server.Cost_model.default
    in
    Ds_server.Backend.set_fault_hook backend hook;
    let at = ref nan in
    Ds_server.Backend.execute_seq_result backend
      [ Request.v 1 1 Op.Read 1 ]
      ~on_each:(fun _ -> ())
      (fun _ -> at := Ds_sim.Engine.now engine);
    Ds_sim.Engine.run engine;
    !at
  in
  let plain = finish (Ds_sim.Engine.create ()) (fun _ -> `Ok) in
  let stalled = finish (Ds_sim.Engine.create ()) (fun _ -> `Stall 0.5) in
  Alcotest.(check (float 1e-9)) "stall adds exactly its duration" 0.5
    (stalled -. plain)

(* --- retry/backoff and dead-lettering ------------------------------------ *)

let test_transient_failures_retried () =
  let s = Middleware.run (cfg ~faults:(plan_exn "batch=0.1") ()) in
  Alcotest.(check bool) "failures injected" true (s.Middleware.injected_failures > 0);
  Alcotest.(check bool) "batches retried" true (s.Middleware.retries > 0);
  Alcotest.(check bool) "work still commits" true (s.Middleware.committed_txns > 0)

let test_stalls_trip_timeout () =
  let s = Middleware.run (cfg ~faults:(plan_exn "stall=0.2,stall-dur=2.0") ()) in
  Alcotest.(check bool) "stalls injected" true (s.Middleware.injected_stalls > 0);
  Alcotest.(check bool) "timeouts fired" true (s.Middleware.timeouts > 0);
  Alcotest.(check bool) "work still commits" true (s.Middleware.committed_txns > 0)

let test_poison_dead_lettered () =
  let s, sched =
    Helpers.run_single (cfg ~faults:(plan_exn "poison=0.02") ())
  in
  let rels = Scheduler.relations sched in
  Alcotest.(check bool) "poison gave up on" true (s.Middleware.dead_lettered > 0);
  Alcotest.(check int) "dead relation matches the counter"
    s.Middleware.dead_lettered
    (Relations.dead_count rels);
  (* a poison request burns through all 3 retries first *)
  Alcotest.(check bool) "retries preceded dead-lettering" true
    (s.Middleware.retries >= 3 * s.Middleware.dead_lettered);
  Alcotest.(check bool) "unaffected work commits" true
    (s.Middleware.committed_txns > 0)

let backoff_monotone_capped =
  (* The regression behind the exponent clamp: 2^attempt overflows a native
     int past attempt 61, which made large attempt counts wrap to garbage
     delays. For any base/cap and attempts 0..1000 the ladder must be
     monotone non-decreasing and never exceed the cap. *)
  QCheck2.Test.make ~name:"retry backoff is monotone and capped (0..1000)"
    ~count:(Helpers.Config.qcheck_count 200)
    QCheck2.Gen.(
      triple (float_range 0.001 2.0) (float_range 0.5 120.0) (int_range 0 999))
    (fun (base, cap, attempt) ->
      let b n = Faults.backoff ~base ~cap ~attempt:n in
      let this = b attempt and next = b (attempt + 1) in
      if this > next then
        QCheck2.Test.fail_reportf "not monotone at %d: %g > %g" attempt this
          next
      else if this > cap || next > cap then
        QCheck2.Test.fail_reportf "cap %g exceeded at %d: %g / %g" cap attempt
          this next
      else if this < 0. then
        QCheck2.Test.fail_reportf "negative backoff %g at %d" this attempt
      else true)

let test_backoff_endpoints () =
  Alcotest.(check (float 1e-9)) "attempt 0 pays the base" 0.01
    (Faults.backoff ~base:0.01 ~cap:10. ~attempt:0);
  Alcotest.(check (float 1e-9)) "deep attempts saturate at the cap" 10.
    (Faults.backoff ~base:0.01 ~cap:10. ~attempt:1000);
  Alcotest.(check (float 1e-9)) "negative attempts clamp to the base" 0.01
    (Faults.backoff ~base:0.01 ~cap:10. ~attempt:(-5))

let test_retries_survive_crash () =
  (* The acceptance scenario: transient batch failures plus one mid-run
     crash. The failed suffixes are retried, the crash is recovered from,
     and work keeps committing. *)
  let s = Middleware.run (cfg ~faults:(plan_exn "batch=0.15,crash=40") ~duration:10. ()) in
  Alcotest.(check int) "crash survived" 1 s.Middleware.crashes;
  Alcotest.(check bool) "failed batches retried" true (s.Middleware.retries > 0);
  Alcotest.(check bool) "work still commits" true (s.Middleware.committed_txns > 0)

(* --- overload: bounded queue, shedding, backpressure ---------------------- *)

let test_bounded_queue_sheds_by_tier () =
  let config =
    {
      (cfg ~spec:mixed_spec ~n_clients:24 ()) with
      Middleware.queue_capacity = Some 4;
    }
  in
  let s = Middleware.run config in
  Alcotest.(check bool) "backpressure applied" true
    (s.Middleware.backpressure_waits > 0);
  Alcotest.(check bool) "least urgent work shed" true (s.Middleware.shed_txns > 0);
  Alcotest.(check bool) "shed transactions were aborted" true
    (s.Middleware.aborted_txns >= s.Middleware.shed_txns);
  Alcotest.(check bool) "system stays live under overload" true
    (s.Middleware.committed_txns > 0)

let test_shed_victim_is_least_urgent () =
  let sched = Scheduler.create Builtin.ss2pl_ocaml in
  let req ta sla = { (Request.v ta 1 Op.Read ta) with Request.sla } in
  Alcotest.(check bool) "premium accepted" true
    (Scheduler.submit_bounded sched ~capacity:2 (req 1 Sla.premium) = `Accepted);
  Alcotest.(check bool) "free accepted" true
    (Scheduler.submit_bounded sched ~capacity:2 (req 2 Sla.free) = `Accepted);
  (* full queue + more urgent arrival: the free request is the victim *)
  (match Scheduler.submit_bounded sched ~capacity:2 (req 3 Sla.standard) with
  | `Accepted_shed v -> Alcotest.(check int) "free tier shed" 2 v.Request.ta
  | `Accepted -> Alcotest.fail "queue was full; expected a shed"
  | `Rejected -> Alcotest.fail "standard outranks free; expected a shed");
  (* full queue + no strictly-more-urgent arrival: backpressure instead *)
  match Scheduler.submit_bounded sched ~capacity:2 (req 4 Sla.standard) with
  | `Rejected -> ()
  | _ -> Alcotest.fail "equal urgency must not evict"

(* Pins the tie-break inside the victim tier: among equally-urgent queued
   requests the most recently queued one is shed, so earlier arrivals keep
   their place in line and repeated overload drains the queue from the
   tail deterministically. *)
let test_shed_tie_break_is_most_recent () =
  let sched = Scheduler.create Builtin.ss2pl_ocaml in
  let req ta sla = { (Request.v ta 1 Op.Read ta) with Request.sla } in
  List.iter
    (fun (ta, sla) ->
      match Scheduler.submit_bounded sched ~capacity:3 (req ta sla) with
      | `Accepted -> ()
      | _ -> Alcotest.fail "queue below capacity must accept")
    [ (1, Sla.premium); (2, Sla.free); (3, Sla.free) ];
  (match Scheduler.submit_bounded sched ~capacity:3 (req 4 Sla.standard) with
  | `Accepted_shed v ->
    Alcotest.(check int) "newest free entry shed first" 3 v.Request.ta
  | _ -> Alcotest.fail "queue was full; expected a shed");
  (* The surviving free request is next in line for the same tie-break. *)
  match Scheduler.submit_bounded sched ~capacity:3 (req 5 Sla.premium) with
  | `Accepted_shed v ->
    Alcotest.(check int) "older free entry shed second" 2 v.Request.ta
  | _ -> Alcotest.fail "queue was full again; expected a shed"

(* --- client disconnects --------------------------------------------------- *)

let test_disconnects_cleaned_up () =
  let s = Middleware.run (cfg ~faults:(plan_exn "disconnect=0.3") ()) in
  Alcotest.(check bool) "disconnects injected" true (s.Middleware.disconnects > 0);
  Alcotest.(check bool) "their transactions aborted" true
    (s.Middleware.aborted_txns >= s.Middleware.disconnects);
  Alcotest.(check bool) "other clients unaffected" true
    (s.Middleware.committed_txns > 0)

(* --- crash recovery ------------------------------------------------------- *)

let rte_report sched =
  let log = Relations.rte_requests (Scheduler.relations sched) in
  Ds_check.Serializability.check_committed
    (Ds_check.Conflict_graph.events_of_requests log)

let with_tmp_journal f =
  let path = Filename.temp_file "ds_faults" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let crash_cfg path =
  {
    (cfg ~faults:(plan_exn "batch=0.1,poison=0.01,crash=25") ~duration:6. ()) with
    Middleware.journal_path = Some path;
  }

let test_crash_recovery_end_to_end () =
  with_tmp_journal (fun path ->
      let s, sched = Helpers.run_single (crash_cfg path) in
      Alcotest.(check int) "one crash survived" 1 s.Middleware.crashes;
      Alcotest.(check bool) "run continued past the crash" true
        (s.Middleware.committed_txns > 0);
      (* the rte log is one continuous schedule across the crash, and its
         committed projection passes the full battery *)
      let report = rte_report sched in
      Alcotest.(check bool) "schedule non-trivial" true
        (report.Ds_check.Serializability.events > 200);
      Alcotest.(check bool)
        (Format.asprintf "post-recovery schedule clean: %a"
           Ds_check.Serializability.pp_report report)
        true
        (Ds_check.Serializability.is_clean report);
      (* the journal survives the run: dead-letters are durable facts *)
      let recovered = Journal.recover path in
      Alcotest.(check bool) "journal replayable after the run" true
        (recovered.Journal.replayed > 0);
      Alcotest.(check int) "dead-letters durable in the journal"
        (Relations.dead_count (Scheduler.relations sched))
        (List.length recovered.Journal.dead))

let test_crash_recovery_deterministic () =
  (* Same seed, same plan => identical deterministic outcomes, crash and
     recovery included.  Wall-clock-measured stats fields (cycle times,
     scheduler time) are real measurements and legitimately vary; everything
     the simulation decides must not. *)
  let run () =
    with_tmp_journal (fun path ->
        let s, sched = Helpers.run_single (crash_cfg path) in
        let rte =
          List.map Request.key (Relations.rte_requests (Scheduler.relations sched))
        in
        (s, rte))
  in
  let a, rte_a = run () in
  let b, rte_b = run () in
  let counters s =
    Middleware.
      [
        s.committed_txns;
        s.committed_stmts;
        s.aborted_txns;
        s.cycles;
        s.retries;
        s.timeouts;
        s.injected_failures;
        s.injected_stalls;
        s.shed_txns;
        s.backpressure_waits;
        s.dead_lettered;
        s.disconnects;
        s.crashes;
      ]
  in
  Alcotest.(check (list int)) "identical counters" (counters a) (counters b);
  Alcotest.(check (list (pair int int))) "identical executed schedule" rte_a rte_b

let test_fault_free_runs_unchanged () =
  (* The robustness machinery must be invisible when the plan is zero: a
     default-config run and a run with the plan [Faults.none] spelled out
     produce identical schedules, and no fault counter moves. *)
  let plain =
    Middleware.run
      { Middleware.default_config with Middleware.charge_scheduler_time = false }
  in
  let armed =
    Middleware.run
      {
        Middleware.default_config with
        Middleware.charge_scheduler_time = false;
        faults = Faults.none;
      }
  in
  Alcotest.(check int) "same commits" plain.Middleware.committed_txns
    armed.Middleware.committed_txns;
  Alcotest.(check int) "same aborts" plain.Middleware.aborted_txns
    armed.Middleware.aborted_txns;
  Alcotest.(check int) "no fault counters tripped" 0
    (armed.Middleware.retries + armed.Middleware.timeouts
    + armed.Middleware.dead_lettered + armed.Middleware.crashes)

let test_rejects_nonpositive_bounds () =
  (* Library callers get the same up-front refusal as the CLI, before the
     engine starts, instead of a failure raised mid-run. *)
  Alcotest.check_raises "queue_capacity"
    (Invalid_argument "Middleware.run: queue_capacity must be positive")
    (fun () -> ignore (Middleware.run { (cfg ()) with queue_capacity = Some 0 }))

(* --- faults x parallelism ------------------------------------------------- *)

(* Failures injected mid-batch on a 4-worker pool: a worker's request failing
   does not corrupt the other workers' sub-batches — retries and
   dead-lettering behave as at K=1, and the merged parallel schedule is still
   serializable and conflict-equivalent to the admitted order. *)
let test_parallel_faults_end_to_end () =
  let config =
    {
      (cfg ~faults:(plan_exn "batch=0.1,stall=0.05,stall-dur=0.1,poison=0.01")
         ~duration:6. ()) with
      Middleware.workers = 4;
    }
  in
  let s, h = Middleware.run_sharded config in
  let sched = h.Middleware.lane_schedulers.(0) in
  Alcotest.(check int) "ran with 4 workers" 4 s.Middleware.workers;
  Alcotest.(check bool) "still commits under faults" true
    (s.Middleware.committed_txns > 0);
  Alcotest.(check bool) "faults actually fired" true
    (s.Middleware.injected_failures + s.Middleware.injected_stalls > 0);
  Alcotest.(check bool) "failures recovered via retry or dead-letter" true
    (s.Middleware.retries > 0 || s.Middleware.dead_lettered > 0);
  let report = rte_report sched in
  Alcotest.(check bool)
    (Format.asprintf "faulty parallel schedule clean: %a"
       Ds_check.Serializability.pp_report report)
    true
    (Ds_check.Serializability.is_clean report);
  let rels = Scheduler.relations sched in
  let rte = Relations.rte_requests rels in
  let by_key = Hashtbl.create (2 * List.length rte) in
  List.iter (fun r -> Hashtbl.replace by_key (Request.key r) r) rte;
  let merged =
    List.filter_map
      (fun key -> Hashtbl.find_opt by_key key)
      h.Middleware.merged_execution_order
  in
  let eq = Ds_check.Equivalence.check ~reference:rte ~candidate:merged () in
  Alcotest.(check bool)
    (Format.asprintf "delivery order conflict-equivalent under faults: %a"
       Ds_check.Equivalence.pp_report eq)
    true
    (Ds_check.Equivalence.is_equivalent eq)

(* Crash + journal recovery with a 4-worker pool: the run keeps delivering
   after the crash, and the continuous rte log stays clean across it. *)
let test_parallel_crash_recovery () =
  with_tmp_journal (fun path ->
      let config = { (crash_cfg path) with Middleware.workers = 4 } in
      let s, h = Middleware.run_sharded config in
      let sched = h.Middleware.lane_schedulers.(0) in
      Alcotest.(check int) "one crash survived" 1 s.Middleware.crashes;
      Alcotest.(check bool) "run continued past the crash" true
        (s.Middleware.committed_txns > 0);
      Alcotest.(check bool) "deliveries after recovery" true
        (h.Middleware.merged_execution_order <> []);
      let report = rte_report sched in
      Alcotest.(check bool)
        (Format.asprintf "post-recovery parallel schedule clean: %a"
           Ds_check.Serializability.pp_report report)
        true
        (Ds_check.Serializability.is_clean report);
      let recovered = Journal.recover path in
      Alcotest.(check bool) "journal replayable after the run" true
        (recovered.Journal.replayed > 0))

(* Worker faults, a process crash, and checkpointed recovery together are
   still a deterministic simulation: same seed, same plan => identical
   supervision decisions and identical executed schedule. *)
let test_worker_faults_checkpoint_deterministic () =
  let run () =
    with_tmp_journal (fun path ->
        let config =
          {
            (cfg
               ~faults:(plan_exn "wcrash=0.2,wstall=0.3,wstall-dur=0.05,crash=25")
               ~duration:5. ()) with
            Middleware.workers = 4;
            journal_path = Some path;
            checkpoint_interval = Some 10;
            hedging = true;
          }
        in
        let s, sched = Helpers.run_single config in
        let rte =
          List.map Request.key
            (Relations.rte_requests (Scheduler.relations sched))
        in
        (s, rte))
  in
  let a, rte_a = run () in
  let b, rte_b = run () in
  Alcotest.(check bool) "supervisor exercised" true
    (a.Middleware.worker_crashes > 0 && a.Middleware.reassigned_classes > 0);
  Alcotest.(check bool) "checkpoints written" true
    (a.Middleware.checkpoints > 0);
  Alcotest.(check int) "crash survived" 1 a.Middleware.crashes;
  Alcotest.(check bool) "checkpointed recovery skipped a prefix" true
    (a.Middleware.recovery_skipped > 0);
  let counters s =
    Middleware.
      [
        s.committed_txns;
        s.aborted_txns;
        s.cycles;
        s.crashes;
        s.worker_crashes;
        s.worker_deaths;
        s.worker_stalls;
        s.reassigned_classes;
        s.hedged_classes;
        s.checkpoints;
        s.recovery_replayed;
        s.recovery_skipped;
      ]
  in
  Alcotest.(check (list int)) "identical supervision counters" (counters a)
    (counters b);
  Alcotest.(check (list (pair int int))) "identical executed schedule" rte_a
    rte_b

let tests =
  [
    Alcotest.test_case "fault plan parses" `Quick test_plan_parse;
    Alcotest.test_case "fault plan rejects bad specs" `Quick test_plan_rejects;
    Alcotest.test_case "fault plan parses worker knobs" `Quick
      test_plan_parse_worker_faults;
    Alcotest.test_case "backend hook fails the suffix" `Quick
      test_backend_hook_fail;
    Alcotest.test_case "backend hook stalls a request" `Quick
      test_backend_hook_stall;
    Alcotest.test_case "transient failures are retried" `Quick
      test_transient_failures_retried;
    QCheck_alcotest.to_alcotest backoff_monotone_capped;
    Alcotest.test_case "backoff endpoints" `Quick test_backoff_endpoints;
    Alcotest.test_case "stalls trip the batch timeout" `Quick
      test_stalls_trip_timeout;
    Alcotest.test_case "poison requests are dead-lettered" `Quick
      test_poison_dead_lettered;
    Alcotest.test_case "retries survive a mid-run crash" `Quick
      test_retries_survive_crash;
    Alcotest.test_case "bounded queue sheds and pushes back" `Quick
      test_bounded_queue_sheds_by_tier;
    Alcotest.test_case "shed victim is the least urgent" `Quick
      test_shed_victim_is_least_urgent;
    Alcotest.test_case "shed tie-break is deterministic" `Quick
      test_shed_tie_break_is_most_recent;
    Alcotest.test_case "disconnects are cleaned up" `Quick
      test_disconnects_cleaned_up;
    Alcotest.test_case "crash recovery end to end" `Quick
      test_crash_recovery_end_to_end;
    Alcotest.test_case "crash recovery is deterministic" `Quick
      test_crash_recovery_deterministic;
    Alcotest.test_case "fault-free runs are unchanged" `Quick
      test_fault_free_runs_unchanged;
    Alcotest.test_case "faults on 4-worker pool stay clean" `Quick
      test_parallel_faults_end_to_end;
    Alcotest.test_case "crash recovery with 4 workers" `Quick
      test_parallel_crash_recovery;
    Alcotest.test_case "worker faults + checkpoints deterministic" `Quick
      test_worker_faults_checkpoint_deterministic;
    Alcotest.test_case "non-positive queue cap rejected" `Quick
      test_rejects_nonpositive_bounds;
  ]
  @ Helpers.plan_codec_tests "fault" Faults.codec
