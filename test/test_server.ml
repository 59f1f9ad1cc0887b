(* Tests for Ds_server: lock manager, deadlock detection, CPU resource,
   schedule logs, native multi-user simulation and single-user replay. *)

open Ds_server
open Ds_model

(* --- lock manager ------------------------------------------------- *)

let test_lock_basic () =
  let lm = Lock_manager.create () in
  Alcotest.(check bool) "S grant" true
    (Lock_manager.acquire lm ~txn:1 ~obj:7 ~mode:Lock_manager.S = Lock_manager.Granted);
  Alcotest.(check bool) "S/S compatible" true
    (Lock_manager.acquire lm ~txn:2 ~obj:7 ~mode:Lock_manager.S = Lock_manager.Granted);
  Alcotest.(check bool) "X blocks" true
    (Lock_manager.acquire lm ~txn:3 ~obj:7 ~mode:Lock_manager.X = Lock_manager.Blocked);
  Alcotest.(check (option int)) "waiting on" (Some 7)
    (Lock_manager.waiting_on lm ~txn:3);
  Alcotest.(check (list int)) "blockers" [ 1; 2 ] (Lock_manager.blockers lm ~txn:3);
  let granted = Lock_manager.release_all lm ~txn:1 in
  Alcotest.(check (list (pair int int))) "not yet" [] granted;
  let granted = Lock_manager.release_all lm ~txn:2 in
  Alcotest.(check (list (pair int int))) "now granted" [ (3, 7) ] granted;
  Alcotest.(check bool) "holds X" true
    (Lock_manager.holds lm ~txn:3 ~obj:7 ~mode:Lock_manager.X)

let test_lock_reentrant () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X);
  Alcotest.(check bool) "re-acquire X" true
    (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X = Lock_manager.Granted);
  Alcotest.(check bool) "S under X" true
    (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.S = Lock_manager.Granted);
  Alcotest.(check int) "held one lock" 1 (Lock_manager.held_count lm ~txn:1)

let test_lock_upgrade () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.S);
  Alcotest.(check bool) "sole-holder upgrade" true
    (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X = Lock_manager.Granted);
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.S);
  ignore (Lock_manager.acquire lm ~txn:2 ~obj:1 ~mode:Lock_manager.S);
  Alcotest.(check bool) "contended upgrade blocks" true
    (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X = Lock_manager.Blocked);
  (* Upgrade wins over a queued plain request when the other holder leaves. *)
  Alcotest.(check bool) "third waits" true
    (Lock_manager.acquire lm ~txn:3 ~obj:1 ~mode:Lock_manager.X = Lock_manager.Blocked);
  let granted = Lock_manager.release_all lm ~txn:2 in
  Alcotest.(check (list (pair int int))) "upgrade granted first" [ (1, 1) ] granted;
  Alcotest.(check bool) "t1 now X" true
    (Lock_manager.holds lm ~txn:1 ~obj:1 ~mode:Lock_manager.X)

let test_lock_fifo () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X);
  ignore (Lock_manager.acquire lm ~txn:2 ~obj:1 ~mode:Lock_manager.S);
  ignore (Lock_manager.acquire lm ~txn:3 ~obj:1 ~mode:Lock_manager.S);
  (* Later S requests must not starve the queue order; both S grants arrive
     together when X releases. *)
  let granted = Lock_manager.release_all lm ~txn:1 in
  Alcotest.(check (list (pair int int))) "both readers granted"
    [ (2, 1); (3, 1) ] granted;
  (* An S arriving while an X waits queues behind it (no reader barging). *)
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.S);
  ignore (Lock_manager.acquire lm ~txn:2 ~obj:1 ~mode:Lock_manager.X);
  Alcotest.(check bool) "reader queues behind writer" true
    (Lock_manager.acquire lm ~txn:3 ~obj:1 ~mode:Lock_manager.S = Lock_manager.Blocked)

let test_lock_blocked_twice () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X);
  ignore (Lock_manager.acquire lm ~txn:2 ~obj:1 ~mode:Lock_manager.X);
  Alcotest.check_raises "double block"
    (Invalid_argument "Lock_manager.acquire: transaction already blocked")
    (fun () -> ignore (Lock_manager.acquire lm ~txn:2 ~obj:2 ~mode:Lock_manager.S))

let test_release_cancels_waiters () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X);
  ignore (Lock_manager.acquire lm ~txn:2 ~obj:1 ~mode:Lock_manager.X);
  ignore (Lock_manager.acquire lm ~txn:3 ~obj:1 ~mode:Lock_manager.X);
  (* Aborting the queued txn 2 must not grant anything (1 still holds). *)
  Alcotest.(check (list (pair int int))) "abort waiter" []
    (Lock_manager.release_all lm ~txn:2);
  let granted = Lock_manager.release_all lm ~txn:1 in
  Alcotest.(check (list (pair int int))) "3 skips cancelled 2" [ (3, 1) ] granted

(* Random lock workout with a model invariant: never two incompatible
   grants on one object. *)
let lock_invariant_prop =
  QCheck2.Test.make ~name:"lock manager never grants conflicting locks"
    ~count:100
    QCheck2.Gen.(pair small_int (list_size (int_range 10 80) (triple (int_range 1 5) (int_range 1 4) bool)))
    (fun (_, ops) ->
      let lm = Lock_manager.create () in
      let held = Hashtbl.create 16 in
      (* (txn, obj) -> mode *)
      let blocked = Hashtbl.create 16 in
      let ok = ref true in
      let check_invariant obj =
        let holders =
          Hashtbl.fold
            (fun (t, o) m acc -> if o = obj then (t, m) :: acc else acc)
            held []
        in
        let xs = List.filter (fun (_, m) -> m = Lock_manager.X) holders in
        if List.length xs > 1 then ok := false;
        if xs <> [] && List.length holders > 1 then ok := false
      in
      List.iter
        (fun (txn, obj, release) ->
          if release then begin
            let granted = Lock_manager.release_all lm ~txn in
            Hashtbl.filter_map_inplace
              (fun (t, _) m -> if t = txn then None else Some m)
              held;
            Hashtbl.remove blocked txn;
            List.iter
              (fun (t, o) ->
                (* The lock manager tells us the granted mode implicitly:
                   query holds. *)
                let m =
                  if Lock_manager.holds lm ~txn:t ~obj:o ~mode:Lock_manager.X
                  then Lock_manager.X
                  else Lock_manager.S
                in
                Hashtbl.replace held (t, o) m;
                Hashtbl.remove blocked t;
                check_invariant o)
              granted
          end
          else if not (Hashtbl.mem blocked txn) then begin
            let mode =
              if (txn + obj) mod 2 = 0 then Lock_manager.X else Lock_manager.S
            in
            match Lock_manager.acquire lm ~txn ~obj ~mode with
            | Lock_manager.Granted ->
              let effective =
                if Lock_manager.holds lm ~txn ~obj ~mode:Lock_manager.X then
                  Lock_manager.X
                else Lock_manager.S
              in
              Hashtbl.replace held (txn, obj) effective;
              check_invariant obj
            | Lock_manager.Blocked -> Hashtbl.replace blocked txn obj
          end)
        ops;
      !ok)

(* Strictness at the lock layer: a granted lock stays held until the holder
   itself calls release_all (commit/abort) — no other transaction's acquires
   or releases can take it away. *)
let lock_persistence_prop =
  QCheck2.Test.make ~name:"locks persist until the holder releases" ~count:100
    QCheck2.Gen.(
      list_size (int_range 10 80)
        (triple (int_range 1 5) (int_range 1 4) bool))
    (fun ops ->
      let lm = Lock_manager.create () in
      let held = Hashtbl.create 16 in
      (* (txn, obj) -> mode *)
      let blocked = Hashtbl.create 16 in
      let ok = ref true in
      let effective_mode txn obj =
        if Lock_manager.holds lm ~txn ~obj ~mode:Lock_manager.X then
          Lock_manager.X
        else Lock_manager.S
      in
      let still_held () =
        Hashtbl.iter
          (fun (txn, obj) mode ->
            if not (Lock_manager.holds lm ~txn ~obj ~mode) then ok := false)
          held
      in
      List.iter
        (fun (txn, obj, release) ->
          if release then begin
            let granted = Lock_manager.release_all lm ~txn in
            Hashtbl.filter_map_inplace
              (fun (t, _) m -> if t = txn then None else Some m)
              held;
            Hashtbl.remove blocked txn;
            List.iter
              (fun (t, o) ->
                Hashtbl.replace held (t, o) (effective_mode t o);
                Hashtbl.remove blocked t)
              granted
          end
          else if not (Hashtbl.mem blocked txn) then begin
            let mode =
              if (txn + obj) mod 2 = 0 then Lock_manager.X else Lock_manager.S
            in
            match Lock_manager.acquire lm ~txn ~obj ~mode with
            | Lock_manager.Granted ->
              Hashtbl.replace held (txn, obj) (effective_mode txn obj)
            | Lock_manager.Blocked -> Hashtbl.replace blocked txn obj
          end;
          (* After *every* step, everything the model says is held must still
             be held with at least its granted mode. *)
          still_held ())
        ops;
      !ok)

(* After every deadlock resolution (victim releases everything), the
   waits-for graph must be cycle-free — otherwise a deadlock survives its own
   "resolution" and the victims starve. *)
let deadlock_resolution_prop =
  QCheck2.Test.make ~name:"waits-for acyclic after every deadlock resolution"
    ~count:100
    QCheck2.Gen.(
      list_size (int_range 20 100)
        (triple (int_range 1 6) (int_range 1 3) bool))
    (fun ops ->
      let lm = Lock_manager.create () in
      let blocked = Hashtbl.create 16 in
      let ok = ref true in
      let successors txn = Lock_manager.blockers lm ~txn in
      let unblock_granted granted =
        List.iter (fun (t, _) -> Hashtbl.remove blocked t) granted
      in
      List.iter
        (fun (txn, obj, release) ->
          if release then
            unblock_granted (Lock_manager.release_all lm ~txn)
          else if not (Hashtbl.mem blocked txn) then begin
            let mode =
              if (txn * 7 + obj) mod 3 = 0 then Lock_manager.S
              else Lock_manager.X
            in
            match Lock_manager.acquire lm ~txn ~obj ~mode with
            | Lock_manager.Granted -> ()
            | Lock_manager.Blocked -> (
              Hashtbl.replace blocked txn obj;
              (* A deadlock can only appear when someone blocks; resolve it
                 the way Native_sim does — abort victims until no cycle is
                 left through the requester (one block can close several
                 cycles at once, one per holder of the contended lock). *)
              let resolved = ref false in
              let rec resolve () =
                match Deadlock.find_cycle ~successors txn with
                | None -> ()
                | Some cycle ->
                  resolved := true;
                  let victim = Deadlock.pick_victim cycle in
                  Hashtbl.remove blocked victim;
                  unblock_granted (Lock_manager.release_all lm ~txn:victim);
                  if victim <> txn then resolve ()
              in
              resolve ();
              (* Post-resolution invariant: no blocked transaction is in a
                 waits-for cycle any more. *)
              if !resolved then
                List.iter
                  (fun t ->
                    if Deadlock.find_cycle ~successors t <> None then
                      ok := false)
                  (Lock_manager.blocked_txns lm))
          end)
        ops;
      !ok)

(* --- deadlock ------------------------------------------------------ *)

let test_deadlock_cycle () =
  let edges = [ (1, [ 2 ]); (2, [ 3 ]); (3, [ 1 ]); (4, [ 1 ]) ] in
  let successors n = Option.value ~default:[] (List.assoc_opt n edges) in
  (match Deadlock.find_cycle ~successors 1 with
  | Some cycle ->
    Alcotest.(check bool) "cycle members" true
      (List.sort Int.compare cycle = [ 1; 2; 3 ]);
    Alcotest.(check int) "victim is youngest" 3 (Deadlock.pick_victim cycle)
  | None -> Alcotest.fail "cycle expected");
  (* 4 -> 1 -> 2 -> 3 has no cycle through 4. *)
  Alcotest.(check bool) "no cycle through 4" true
    (Deadlock.find_cycle ~successors 4 = None)

let test_deadlock_via_locks () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Lock_manager.X);
  ignore (Lock_manager.acquire lm ~txn:2 ~obj:2 ~mode:Lock_manager.X);
  ignore (Lock_manager.acquire lm ~txn:1 ~obj:2 ~mode:Lock_manager.X);
  ignore (Lock_manager.acquire lm ~txn:2 ~obj:1 ~mode:Lock_manager.X);
  let successors txn = Lock_manager.blockers lm ~txn in
  match Deadlock.find_cycle ~successors 2 with
  | Some cycle ->
    Alcotest.(check bool) "both in cycle" true
      (List.sort Int.compare cycle = [ 1; 2 ])
  | None -> Alcotest.fail "deadlock expected"

(* --- cpu ------------------------------------------------------------ *)

let test_cpu_fcfs () =
  let e = Ds_sim.Engine.create () in
  let cpu = Cpu.create e ~n_cores:1 in
  let done_at = ref [] in
  Cpu.submit cpu ~work:1.0 (fun () -> done_at := ("a", Ds_sim.Engine.now e) :: !done_at);
  Cpu.submit cpu ~work:0.5 (fun () -> done_at := ("b", Ds_sim.Engine.now e) :: !done_at);
  Ds_sim.Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "fcfs completion order"
    [ ("a", 1.0); ("b", 1.5) ]
    (List.rev !done_at);
  Alcotest.(check (float 1e-9)) "busy" 1.5 (Cpu.busy_time cpu)

let test_cpu_two_cores () =
  let e = Ds_sim.Engine.create () in
  let cpu = Cpu.create e ~n_cores:2 in
  let finish = ref 0. in
  Cpu.submit cpu ~work:1.0 (fun () -> finish := Float.max !finish (Ds_sim.Engine.now e));
  Cpu.submit cpu ~work:1.0 (fun () -> finish := Float.max !finish (Ds_sim.Engine.now e));
  Ds_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "parallel" 1.0 !finish

(* --- schedule log ---------------------------------------------------- *)

let entry ta op obj = { Schedule.ta; op; obj; value = ta }

let test_schedule_filter () =
  let log = Schedule.create () in
  List.iter (Schedule.append log)
    [ entry 1 Op.Read 1; entry 2 Op.Read 2; entry 1 Op.Write 3 ];
  Alcotest.(check int) "length" 3 (Schedule.length log);
  let only1 = Schedule.filter log (fun ta -> ta = 1) in
  Alcotest.(check int) "filtered" 2 (List.length only1)

(* --- native sim and replay ------------------------------------------- *)

let small_cfg n =
  {
    Native_sim.default_config with
    Native_sim.n_clients = n;
    duration = 2.0;
    spec = { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 5000 };
    log_schedule = true;
  }

(* The committed projection of an SS2PL schedule passes the whole
   serializability battery of [dsched check]. *)
let check_schedule schedule =
  let report =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_schedule schedule)
  in
  if not (Ds_check.Serializability.is_clean report) then
    Alcotest.failf "schedule: %a" Ds_check.Serializability.pp_report report

let test_native_single_client () =
  let s = Native_sim.run (small_cfg 1) in
  Alcotest.(check int) "no lock waits" 0 s.Native_sim.lock_waits;
  Alcotest.(check int) "no deadlocks" 0 s.Native_sim.deadlocks;
  Alcotest.(check bool) "commits happened" true (s.Native_sim.committed_txns > 0);
  Alcotest.(check int) "stmts = txns * 40"
    (s.Native_sim.committed_txns * 40)
    s.Native_sim.committed_stmts

let test_native_determinism () =
  let a = Native_sim.run (small_cfg 20) in
  let b = Native_sim.run (small_cfg 20) in
  Alcotest.(check int) "same commits" a.Native_sim.committed_txns
    b.Native_sim.committed_txns;
  Alcotest.(check int) "same deadlocks" a.Native_sim.deadlocks
    b.Native_sim.deadlocks;
  let c =
    Native_sim.run { (small_cfg 20) with Native_sim.seed = 99 }
  in
  Alcotest.(check bool) "different seed differs" true
    (c.Native_sim.committed_stmts <> a.Native_sim.committed_stmts
    || c.Native_sim.deadlocks <> a.Native_sim.deadlocks)

let test_native_schedule_serializable () =
  (* The native scheduler enforces SS2PL; its committed schedule must be
     conflict-serializable. Contended setup to make this meaningful. *)
  let cfg =
    {
      (small_cfg 30) with
      Native_sim.spec =
        { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 300 };
    }
  in
  let s = Native_sim.run cfg in
  Alcotest.(check bool) "had contention" true (s.Native_sim.lock_waits > 0);
  check_schedule s.Native_sim.schedule

let test_native_contention_grows () =
  let t1 = Native_sim.run (small_cfg 1) in
  let t40 = Native_sim.run (small_cfg 40) in
  Alcotest.(check bool) "waits grow with clients" true
    (t40.Native_sim.lock_waits > t1.Native_sim.lock_waits)

let contended_cfg n =
  {
    (small_cfg n) with
    Native_sim.spec =
      { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 250 };
  }

let test_mpl_admission () =
  let unlimited = Native_sim.run (contended_cfg 60) in
  let limited =
    Native_sim.run { (contended_cfg 60) with Native_sim.mpl = Some 5 }
  in
  Alcotest.(check bool)
    (Printf.sprintf "MPL avoids thrashing (%d vs %d stmts)"
       limited.Native_sim.committed_stmts unlimited.Native_sim.committed_stmts)
    true
    (limited.Native_sim.committed_stmts > unlimited.Native_sim.committed_stmts);
  (* Deadlock *rate* per committed transaction drops; absolute counts can
     rise simply because far more transactions get through. *)
  let rate (s : Native_sim.stats) =
    float_of_int s.Native_sim.deadlocks
    /. float_of_int (max 1 s.Native_sim.committed_txns)
  in
  Alcotest.(check bool) "lower deadlock rate under MPL" true
    (rate limited < rate unlimited)

let test_wound_wait () =
  let cfg =
    { (contended_cfg 40) with Native_sim.deadlock_policy = `Wound_wait }
  in
  let s = Native_sim.run cfg in
  Alcotest.(check int) "no detection-based aborts" 0 s.Native_sim.deadlocks;
  Alcotest.(check bool) "wounds happen under contention" true
    (s.Native_sim.wounds > 0);
  Alcotest.(check bool) "still makes progress" true
    (s.Native_sim.committed_txns > 0);
  (* Wound-wait preserves SS2PL: the committed schedule stays conflict-
     serializable. *)
  check_schedule s.Native_sim.schedule

let test_replay_agreement () =
  let s = Native_sim.run (small_cfg 10) in
  let arithmetic = Replay.single_user_time Cost_model.default s.Native_sim.schedule in
  let simulated =
    Replay.single_user_time_simulated Cost_model.default s.Native_sim.schedule
  in
  Alcotest.(check (float 1e-6)) "replay agreement" arithmetic simulated;
  (* SU time must be below the MU window (the schedule committed in it). *)
  Alcotest.(check bool) "SU below MU" true (arithmetic < 2.0)

let test_store_faithfulness () =
  (* The strongest end-to-end check of the locking machinery: the multi-user
     run's final data must equal a sequential replay of its committed
     schedule on a fresh store. Any locking bug (conflicting grants, lost
     rollback, schedule-log gap) breaks this. Contended setup so aborts,
     restarts and wound/rollback paths all fire. *)
  List.iter
    (fun policy ->
      let cfg =
        {
          (contended_cfg 30) with
          Native_sim.deadlock_policy = policy;
          duration = 2.0;
        }
      in
      let s = Native_sim.run cfg in
      let fresh =
        Row_store.create ~n_rows:(Row_store.n_rows s.Native_sim.final_store)
      in
      Replay.apply_to_store fresh s.Native_sim.schedule;
      let differing = Row_store.diff fresh s.Native_sim.final_store in
      if differing <> [] then
        Alcotest.failf "store mismatch on %d rows (first: %d) under %s"
          (List.length differing) (List.hd differing)
          (match policy with `Detection -> "detection" | `Wound_wait -> "wound-wait");
      Alcotest.(check bool) "writes happened" true
        (Row_store.writes s.Native_sim.final_store > 0))
    [ `Detection; `Wound_wait ]

(* Randomized generalisation of test_store_faithfulness: across random
   seeds, client counts, contention levels and both deadlock policies, the
   multi-user run's final store equals a sequential replay of its committed
   schedule on a fresh store. *)
let store_replay_prop =
  QCheck2.Test.make ~name:"final store equals schedule replay (random cfgs)"
    ~count:15
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 2 25)
        (pair (int_range 100 2_000) bool))
    (fun (seed, n_clients, (n_objects, wound)) ->
      let cfg =
        {
          Native_sim.default_config with
          Native_sim.n_clients;
          duration = 0.5;
          seed;
          log_schedule = true;
          deadlock_policy = (if wound then `Wound_wait else `Detection);
          spec =
            {
              Ds_workload.Spec.paper_default with
              Ds_workload.Spec.n_objects;
            };
        }
      in
      let s = Native_sim.run cfg in
      let fresh =
        Row_store.create ~n_rows:(Row_store.n_rows s.Native_sim.final_store)
      in
      Replay.apply_to_store fresh s.Native_sim.schedule;
      Row_store.diff fresh s.Native_sim.final_store = [])

let test_row_store_unit () =
  let st = Row_store.create ~n_rows:10 in
  Alcotest.(check int) "initial" 0 (Row_store.read st 3);
  Row_store.write st 3 42;
  Alcotest.(check int) "written" 42 (Row_store.read st 3);
  Alcotest.(check int) "reads counted" 2 (Row_store.reads st);
  Alcotest.(check int) "writes counted" 1 (Row_store.writes st);
  let other = Row_store.create ~n_rows:10 in
  Alcotest.(check (list int)) "diff" [ 3 ] (Row_store.diff st other);
  Alcotest.(check bool) "checksums differ" true
    (Row_store.checksum st <> Row_store.checksum other);
  Alcotest.check_raises "bounds" (Invalid_argument "Row_store: row out of range")
    (fun () -> ignore (Row_store.read st 10))

let tests =
  [
    Alcotest.test_case "lock basic" `Quick test_lock_basic;
    Alcotest.test_case "lock reentrant" `Quick test_lock_reentrant;
    Alcotest.test_case "lock upgrade" `Quick test_lock_upgrade;
    Alcotest.test_case "lock fifo" `Quick test_lock_fifo;
    Alcotest.test_case "lock double-block" `Quick test_lock_blocked_twice;
    Alcotest.test_case "release cancels waiters" `Quick test_release_cancels_waiters;
    QCheck_alcotest.to_alcotest lock_invariant_prop;
    QCheck_alcotest.to_alcotest lock_persistence_prop;
    QCheck_alcotest.to_alcotest deadlock_resolution_prop;
    Alcotest.test_case "deadlock cycle" `Quick test_deadlock_cycle;
    Alcotest.test_case "deadlock via locks" `Quick test_deadlock_via_locks;
    Alcotest.test_case "cpu fcfs" `Quick test_cpu_fcfs;
    Alcotest.test_case "cpu two cores" `Quick test_cpu_two_cores;
    Alcotest.test_case "schedule filter" `Quick test_schedule_filter;
    Alcotest.test_case "native single client" `Quick test_native_single_client;
    Alcotest.test_case "native determinism" `Quick test_native_determinism;
    Alcotest.test_case "native schedule serializable" `Slow
      test_native_schedule_serializable;
    Alcotest.test_case "native contention grows" `Quick test_native_contention_grows;
    Alcotest.test_case "mpl admission control" `Slow test_mpl_admission;
    Alcotest.test_case "wound-wait policy" `Slow test_wound_wait;
    Alcotest.test_case "replay agreement" `Quick test_replay_agreement;
    Alcotest.test_case "row store unit" `Quick test_row_store_unit;
    Alcotest.test_case "store faithfulness (MU = replay)" `Slow
      test_store_faithfulness;
    QCheck_alcotest.to_alcotest store_replay_prop;
  ]
