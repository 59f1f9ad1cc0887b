(* End-to-end integration tests: the full middleware loop (Figure 1), its
   correctness guarantees, determinism and the experiment harnesses. *)

open Ds_core
open Ds_model
open Ds_relal

let small_spec = { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 2000 }

let cfg ?(protocol = Builtin.ss2pl_ocaml) ?(n_clients = 15) ?(duration = 3.) () =
  {
    Middleware.default_config with
    Middleware.n_clients;
    duration;
    spec = small_spec;
    protocol;
    charge_scheduler_time = false;
    (* keep integration runs deterministic across machines *)
    workers = Helpers.Config.workers ();
    (* CI exercises this whole suite at DS_WORKERS=1 and DS_WORKERS=4 *)
  }

let test_middleware_progress () =
  let s = Middleware.run (cfg ()) in
  Alcotest.(check bool) "commits happen" true (s.Middleware.committed_txns > 0);
  Alcotest.(check bool) "cycles ran" true (s.Middleware.cycles > 0);
  Alcotest.(check int) "stmts per txn" (s.Middleware.committed_txns * 40)
    s.Middleware.committed_stmts

let test_middleware_serializable_execution () =
  (* Run the middleware with the SS2PL protocol on a contended workload and
     check that the executed schedule (the rte table) is conflict-
     serializable. *)
  let config =
    {
      (cfg ~protocol:Builtin.ss2pl_sql ~n_clients:12 ~duration:2. ()) with
      Middleware.spec = { small_spec with Ds_workload.Spec.n_objects = 400 };
      (* stress the protocol *)
      starvation_cycles = 20;
    }
  in
  let _, sched = Helpers.run_single config in
  (* Extract the executed schedule from the rte table. Starvation-aborted
     transactions never reached the server in full, but their executed
     prefixes held logical locks, so they participate in the cycle check;
     the full battery runs on the committed projection. *)
  let rels = Scheduler.relations sched in
  let events =
    Ds_check.Conflict_graph.events_of_requests
      (List.map Relations.request_of_row (Table.rows rels.Relations.rte))
  in
  Alcotest.(check bool) "schedule non-trivial" true (List.length events > 100);
  (match
     Ds_check.Serializability.serializable
       (Ds_check.Conflict_graph.build events)
   with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "middleware schedule: %a"
      Ds_check.Serializability.pp_violation v);
  let report = Ds_check.Serializability.check_committed events in
  if not (Ds_check.Serializability.is_clean report) then
    Alcotest.failf "middleware schedule: %a" Ds_check.Serializability.pp_report
      report

let test_middleware_determinism () =
  let a = Middleware.run (cfg ()) in
  let b = Middleware.run (cfg ()) in
  Alcotest.(check int) "same commits" a.Middleware.committed_txns
    b.Middleware.committed_txns;
  Alcotest.(check int) "same cycles" a.Middleware.cycles b.Middleware.cycles

let test_middleware_fcfs_faster () =
  (* Non-scheduling mode is the fcfs protocol: nothing waits on a lock, and
     the run still leaves a full rte execution log. *)
  let strict = Middleware.run (cfg ~protocol:Builtin.ss2pl_ocaml ()) in
  let pass, sched = Helpers.run_single (cfg ~protocol:Builtin.fcfs ()) in
  Alcotest.(check bool) "fcfs at least as fast" true
    (pass.Middleware.committed_txns >= strict.Middleware.committed_txns);
  Alcotest.(check int) "fcfs never aborts" 0 pass.Middleware.aborted_txns;
  Alcotest.(check bool) "rte logs the run" true
    (List.length (Relations.rte_requests (Scheduler.relations sched))
    >= pass.Middleware.committed_stmts)

let test_middleware_relaxed_beats_strict_under_contention () =
  let contended =
    { small_spec with Ds_workload.Spec.n_objects = 150 }
  in
  let base = cfg ~n_clients:20 ~duration:2.5 () in
  let strict =
    Middleware.run
      { base with Middleware.spec = contended; protocol = Builtin.ss2pl_ocaml }
  in
  let relaxed =
    Middleware.run
      {
        base with
        Middleware.spec = contended;
        protocol = Builtin.read_committed_sql;
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "relaxed (%d) >= strict (%d)"
       relaxed.Middleware.committed_txns strict.Middleware.committed_txns)
    true
    (relaxed.Middleware.committed_txns >= strict.Middleware.committed_txns)

let test_middleware_sla_tiers () =
  let spec =
    {
      small_spec with
      Ds_workload.Spec.sla_mix = [ (Sla.premium, 0.2); (Sla.free, 0.8) ];
      n_objects = 5000;
    }
  in
  let config =
    {
      (cfg ~n_clients:20 ~duration:3. ()) with
      Middleware.spec;
      protocol = Builtin.sla_ordered;
    }
  in
  let s = Middleware.run config in
  match
    ( List.find_opt (fun (t, _, _, _) -> t = Sla.Premium) s.Middleware.latency_by_tier,
      List.find_opt (fun (t, _, _, _) -> t = Sla.Free) s.Middleware.latency_by_tier )
  with
  | Some (_, prem_mean, _, prem_n), Some (_, free_mean, _, free_n) ->
    Alcotest.(check bool) "both tiers committed" true (prem_n > 0 && free_n > 0);
    Alcotest.(check bool)
      (Printf.sprintf "premium (%.3fs) <= free (%.3fs)" prem_mean free_mean)
      true
      (prem_mean <= free_mean *. 1.1)
  | _ -> Alcotest.fail "expected both tiers in the result"

let test_trigger_policies_complete () =
  (* All trigger policies make progress. *)
  List.iter
    (fun trigger ->
      let s = Middleware.run { (cfg ~duration:2. ()) with Middleware.trigger } in
      Alcotest.(check bool)
        (Format.asprintf "progress under %a" Trigger.pp trigger)
        true
        (s.Middleware.committed_txns > 0))
    [
      Trigger.Time_lapse 0.005;
      Trigger.Fill_level 10;
      Trigger.Hybrid (0.02, 15);
    ]

let test_fill_trigger_never_wedges () =
  (* Regression: a pure fill-level trigger whose threshold exceeds what the
     closed loop can ever queue (15 clients, one outstanding request each,
     threshold 50) used to leave the middleware waiting forever on a cycle
     that could not fire.  The fallback timer must keep the loop draining.
     The fallback tick is deliberately slow (50ms), so a 40-statement
     transaction needs ~2 virtual seconds end to end — give the run enough
     time for several. *)
  let s =
    Middleware.run
      { (cfg ~duration:8. ()) with Middleware.trigger = Trigger.Fill_level 50 }
  in
  Alcotest.(check bool) "cycles fired despite unreachable fill level" true
    (s.Middleware.cycles > 0);
  Alcotest.(check bool) "work committed" true (s.Middleware.committed_txns > 0)

let test_middleware_intrinsic_aborts () =
  (* Workload transactions that end in ABORT flow through the middleware:
     they must not be counted as commits, must release their logical locks,
     and the system keeps making progress. *)
  let spec = { small_spec with Ds_workload.Spec.abort_fraction = 0.5 } in
  let config = { (cfg ~n_clients:10 ~duration:3. ()) with Middleware.spec } in
  let s, sched = Helpers.run_single config in
  Alcotest.(check bool) "still commits" true (s.Middleware.committed_txns > 0);
  (* Roughly half the finished transactions aborted: commits should be well
     below what a 0-abort run achieves. *)
  let no_aborts = Middleware.run (cfg ~n_clients:10 ~duration:3. ()) in
  Alcotest.(check bool) "fewer commits with aborts" true
    (s.Middleware.committed_txns < no_aborts.Middleware.committed_txns);
  (* Abort markers made it into the execution log. *)
  let rels = Scheduler.relations sched in
  let abort_rows =
    List.filter
      (fun row -> row.(3) = Ds_relal.Value.Str "a")
      (Table.rows rels.Relations.rte)
  in
  Alcotest.(check bool) "aborts executed" true (List.length abort_rows > 0)

let test_native_vs_declarative_experiment_shape () =
  (* A miniature of the paper's experiment: both measurement harnesses
     produce sane, comparable numbers. *)
  let native =
    Ds_server.Native_sim.run
      {
        Ds_server.Native_sim.default_config with
        Ds_server.Native_sim.n_clients = 50;
        duration = 2.;
        spec = small_spec;
        log_schedule = true;
      }
  in
  let su =
    Ds_server.Replay.single_user_time Ds_server.Cost_model.default
      native.Ds_server.Native_sim.schedule
  in
  Alcotest.(check bool) "MU/SU ratio >= 1" true (2. /. su >= 1.);
  let probe =
    Overhead_probe.measure ~runs:2 ~n_clients:50 Builtin.ss2pl_sql
  in
  let amortized =
    Overhead_probe.amortized_overhead probe
      ~total_stmts:native.Ds_server.Native_sim.committed_stmts
  in
  Alcotest.(check bool) "amortized overhead finite and positive" true
    (amortized > 0. && Float.is_finite amortized)

let tests =
  [
    Alcotest.test_case "middleware progress" `Quick test_middleware_progress;
    Alcotest.test_case "middleware serializable execution" `Slow
      test_middleware_serializable_execution;
    Alcotest.test_case "middleware determinism" `Quick test_middleware_determinism;
    Alcotest.test_case "fcfs faster" `Quick test_middleware_fcfs_faster;
    Alcotest.test_case "relaxed beats strict under contention" `Slow
      test_middleware_relaxed_beats_strict_under_contention;
    Alcotest.test_case "sla tiers" `Slow test_middleware_sla_tiers;
    Alcotest.test_case "trigger policies complete" `Quick
      test_trigger_policies_complete;
    Alcotest.test_case "fill trigger never wedges" `Quick
      test_fill_trigger_never_wedges;
    Alcotest.test_case "intrinsic aborts flow through" `Quick
      test_middleware_intrinsic_aborts;
    Alcotest.test_case "experiment harness shape" `Slow
      test_native_vs_declarative_experiment_shape;
  ]
