(* Tests for Ds_core: relations, protocols (with cross-formulation
   equivalence), scheduler cycle, triggers, rule language, Table 1/2. *)

open Ds_core
open Ds_model
open Ds_relal

(* --- relations (Table 2) ------------------------------------------- *)

let test_table2_schema () =
  let names =
    Array.to_list
      (Array.map (fun (c : Schema.column) -> c.Schema.name) Relations.schema)
  in
  Alcotest.(check (list string)) "the paper's attributes in their places"
    [ "id"; "ta"; "intrata"; "operation"; "object" ]
    (List.filteri (fun i _ -> i < 5) names);
  Alcotest.(check (list string)) "then the SLA class and arrival"
    [ "sla"; "weight"; "arrival" ]
    (List.filteri (fun i _ -> i >= 5) names);
  let rels = Relations.create () in
  Alcotest.(check (list string)) "all scheduler tables registered"
    [ "dead"; "history"; "requests"; "rte" ]
    (Ds_sql.Catalog.names rels.Relations.catalog)

(* The free/premium pair of the SLA example: the free request arrives first. *)
let free_then_premium () =
  [
    Request.make ~sla:Sla.free ~arrival:0.5 ~id:1 ~ta:1 ~intrata:1 ~op:Op.Read
      ~obj:10 ();
    Request.make ~sla:Sla.premium ~arrival:1.5 ~id:2 ~ta:2 ~intrata:1
      ~op:Op.Read ~obj:20 ();
  ]

let request =
  Alcotest.testable
    (fun ppf (r : Request.t) ->
      Format.fprintf ppf "%a(%s,w=%d,arr=%g)" Request.pp r
        (Sla.tier_to_string r.Request.sla.Sla.tier)
        r.Request.sla.Sla.weight r.Request.arrival)
    Request.equal

let test_request_roundtrip () =
  let reqs =
    [
      Request.v 3 1 Op.Read 42;
      Request.v 3 2 Op.Write 17;
      Request.terminal 3 3 Op.Commit;
      Request.make ~sla:{ Sla.premium with Sla.weight = 7 } ~arrival:2.25
        ~id:9 ~ta:1 ~intrata:1 ~op:Op.Write ~obj:3 ();
      Request.abort_marker ~arrival:4. ~ta:5 ~seq:2 ();
    ]
    @ free_then_premium ()
  in
  List.iter
    (fun r ->
      Alcotest.check request "roundtrip" r
        (Relations.request_of_row (Relations.row_of_request r)))
    reqs;
  (* Admission hands back the submitted requests, SLA and arrival intact. *)
  let submitted = free_then_premium () in
  let sched = Scheduler.create Builtin.ss2pl_sql in
  List.iter (Scheduler.submit sched) submitted;
  let admitted, _ = Scheduler.cycle sched in
  Alcotest.(check (list request)) "admitted as submitted" submitted admitted;
  (* So the trace records every request under its own tier after admission
     too. *)
  let tr = Ds_obs.Trace.create () in
  let _ =
    Middleware.run
      {
        Middleware.default_config with
        Middleware.n_clients = 20;
        duration = 1.;
        spec =
          {
            Ds_workload.Spec.paper_default with
            Ds_workload.Spec.n_objects = 5000;
            sla_mix = [ (Sla.premium, 0.2); (Sla.standard, 0.3); (Sla.free, 0.5) ];
          };
        charge_scheduler_time = false;
        trace = Some tr;
      }
  in
  let events = Ds_obs.Trace.events tr in
  let enqueued = Hashtbl.create 1024 in
  List.iter
    (fun (e : Ds_obs.Trace.event) ->
      if e.Ds_obs.Trace.kind = Ds_obs.Trace.Enqueued then
        Hashtbl.replace enqueued (e.Ds_obs.Trace.ta, e.Ds_obs.Trace.seq)
          e.Ds_obs.Trace.tier)
    events;
  let admitted =
    List.filter
      (fun (e : Ds_obs.Trace.event) -> e.Ds_obs.Trace.kind = Ds_obs.Trace.Sched_admit)
      events
  in
  Alcotest.(check (list string)) "every tier admitted"
    [ "free"; "premium"; "standard" ]
    (List.sort_uniq String.compare
       (List.map (fun (e : Ds_obs.Trace.event) -> e.Ds_obs.Trace.tier) admitted));
  List.iter
    (fun (e : Ds_obs.Trace.event) ->
      Alcotest.(check (option string))
        (Printf.sprintf "T%d.%d admitted at its enqueued tier" e.Ds_obs.Trace.ta
           e.Ds_obs.Trace.seq)
        (Hashtbl.find_opt enqueued (e.Ds_obs.Trace.ta, e.Ds_obs.Trace.seq))
        (Some e.Ds_obs.Trace.tier))
    admitted

let test_move_to_history () =
  let rels = Relations.create () in
  Relations.insert_pending_batch rels
    [ Request.v 1 1 Op.Read 10; Request.v 1 2 Op.Write 11; Request.v 2 1 Op.Read 12 ];
  let moved = Relations.move_to_history rels [ (2, 1); (1, 1) ] in
  Alcotest.(check int) "moved" 2 (List.length moved);
  Alcotest.(check (list (pair int int))) "order preserved"
    [ (2, 1); (1, 1) ]
    (List.map Request.key moved);
  Alcotest.(check int) "pending left" 1 (Relations.pending_count rels);
  Alcotest.(check int) "history" 2 (Relations.history_count rels);
  Alcotest.(check int) "rte mirrors history" 2 (Table.row_count rels.Relations.rte);
  (* Unknown keys ignored. *)
  Alcotest.(check int) "unknown ignored" 0
    (List.length (Relations.move_to_history rels [ (9, 9) ]))

(* A protocol whose result lists a pending request twice: each request is
   still admitted, logged and handed back once, at its first position. *)
let test_duplicate_keys_admitted_once () =
  let rels = Relations.create () in
  Relations.insert_pending_batch rels [ Request.v 1 1 Op.Read 10; Request.v 2 1 Op.Read 12 ];
  let moved = Relations.move_to_history rels [ (2, 1); (1, 1); (2, 1); (1, 1) ] in
  Alcotest.(check (list (pair int int))) "each key once, at its first position"
    [ (2, 1); (1, 1) ] (List.map Request.key moved);
  Alcotest.(check int) "history" 2 (Relations.history_count rels);
  Alcotest.(check int) "rte" 2 (Table.row_count rels.Relations.rte);
  let proto =
    Protocol.of_sql ~name:"cross" ~guarantee:Protocol.Fifo_only
      "SELECT r.* FROM requests r, requests r2"
  in
  let sched = Scheduler.create proto in
  List.iter (Scheduler.submit sched) [ Request.v 1 1 Op.Read 10; Request.v 2 1 Op.Read 12 ];
  let qualified, stats = Scheduler.cycle sched in
  Alcotest.(check (list (pair int int))) "admitted once each" [ (1, 1); (2, 1) ]
    (List.map Request.key qualified);
  Alcotest.(check int) "stats count admissions" 2 stats.Scheduler.qualified;
  Alcotest.(check int) "rte holds each once" 2
    (List.length (Relations.rte_requests (Scheduler.relations sched)))

let test_prune_history () =
  let rels = Relations.create () in
  List.iter (Relations.insert_history rels)
    [
      Request.v 1 1 Op.Read 10;
      Request.terminal 1 2 Op.Commit;
      Request.v 2 1 Op.Write 20;
    ];
  let removed = Relations.prune_history rels in
  Alcotest.(check int) "removed finished txn rows" 2 removed;
  Alcotest.(check int) "kept active txn" 1 (Relations.history_count rels)

(* --- protocol equivalence ------------------------------------------ *)

let load_case rels ~pending ~history =
  Relations.clear rels;
  List.iter (Relations.insert_history rels) history;
  Relations.insert_pending_batch rels pending

let qualify proto ~pending ~history =
  let sched = Scheduler.create proto in
  load_case (Scheduler.relations sched) ~pending ~history;
  let qualified, _ = Scheduler.cycle sched in
  List.map Request.key qualified

(* All six SS2PL formulations must agree with the oracle on random request
   batches; the hand-coded protocol goes through its [prepare] path, which
   reads the relations' indexes instead of the decoded lists. *)
let ss2pl_equivalence =
  QCheck2.Test.make ~name:"SS2PL: SQL(3 levels) = Datalog = OCaml protocol = oracle"
    ~count:(Helpers.Config.qcheck_count 60)
    QCheck2.Gen.(triple small_int (int_range 1 8) (int_range 1 12))
    (fun (seed, n_txns, n_objects) ->
      let rng = Ds_sim.Rng.create seed in
      let all = Helpers.random_requests rng ~n_txns ~ops_per_txn:4 ~n_objects in
      (* Each transaction's first k requests (k drawn per transaction) are in
         history and the rest pending, so a pending request's transaction
         may already hold locks of its own. *)
      let admitted = Hashtbl.create 8 in
      let prefix ta =
        match Hashtbl.find_opt admitted ta with
        | Some k -> k
        | None ->
          let k = Ds_sim.Rng.int rng 5 in
          Hashtbl.replace admitted ta k;
          k
      in
      let history, pending =
        List.partition
          (fun (r : Request.t) -> r.Request.intrata <= prefix r.Request.ta)
          all
      in
      let reference = Oracle.ss2pl_qualify ~pending ~history in
      (* Every formulation orders by request id, whatever the table order. *)
      let loaded = if seed mod 2 = 0 then pending else List.rev pending in
      List.for_all
        (fun proto -> qualify proto ~pending:loaded ~history = reference)
        [
          Builtin.ss2pl_sql;
          Builtin.ss2pl_sql_at `Basic;
          Builtin.ss2pl_sql_at `None;
          Builtin.ss2pl_datalog;
          Builtin.ss2pl_ocaml;
        ])

let test_ss2pl_blocks_locked () =
  (* T1 read-locked 10 (uncommitted); T2 wrote 20 (uncommitted);
     T5 wrote 50 and committed. *)
  let history =
    [
      Request.v 1 1 Op.Read 10;
      Request.v 2 1 Op.Write 20;
      Request.v 5 1 Op.Write 50;
      Request.terminal 5 2 Op.Commit;
    ]
  in
  let pending =
    [
      Request.v 3 1 Op.Write 10;
      (* blocked: read lock by T1 *)
      Request.v 4 1 Op.Read 20;
      (* blocked: write lock by T2 *)
      Request.v 6 1 Op.Read 50;
      (* free: T5 committed *)
      Request.v 1 2 Op.Write 10;
      (* own lock: allowed *)
      Request.terminal 7 1 Op.Commit;
      (* terminals always qualify *)
    ]
  in
  let q = qualify Builtin.ss2pl_sql ~pending ~history in
  Alcotest.(check (list (pair int int)))
    "expected qualifying set"
    [ (1, 2); (6, 1); (7, 1) ]
    (Helpers.sorted_keys q)

let test_ss2pl_pending_conflicts () =
  (* Two pending writes on one object: lower TA wins. *)
  let pending = [ Request.v 9 1 Op.Write 5; Request.v 8 1 Op.Write 5 ] in
  let q = qualify Builtin.ss2pl_sql ~pending ~history:[] in
  Alcotest.(check (list (pair int int))) "lower ta first" [ (8, 1) ] q;
  (* Read-read pending never conflicts. *)
  let pending = [ Request.v 9 1 Op.Read 5; Request.v 8 1 Op.Read 5 ] in
  let q = qualify Builtin.ss2pl_sql ~pending ~history:[] in
  Alcotest.(check int) "both reads pass" 2 (List.length q)

let test_ss2pl_ordered_protocol () =
  (* Plain Listing 1 lets intrata 2 overtake a blocked intrata 1; the ordered
     variant does not. *)
  let history = [ Request.v 1 1 Op.Write 10 ] in
  let pending = [ Request.v 2 1 Op.Write 10; Request.v 2 2 Op.Read 30 ] in
  let plain = qualify Builtin.ss2pl_sql ~pending ~history in
  Alcotest.(check (list (pair int int))) "plain overtakes" [ (2, 2) ] plain;
  List.iter
    (fun proto ->
      let ordered = qualify proto ~pending ~history in
      Alcotest.(check (list (pair int int)))
        ("no overtaking: " ^ proto.Protocol.name) [] ordered)
    [ Builtin.ss2pl_ordered_sql; Builtin.ss2pl_ordered_datalog ]

let test_ordered_equivalence_sql_datalog () =
  let rng = Ds_sim.Rng.create 31 in
  for _ = 1 to 20 do
    let all = Helpers.random_requests rng ~n_txns:6 ~ops_per_txn:4 ~n_objects:8 in
    let history, pending =
      List.partition (fun (r : Request.t) -> r.Request.ta mod 2 = 0) all
    in
    let a = qualify Builtin.ss2pl_ordered_sql ~pending ~history in
    let b = qualify Builtin.ss2pl_ordered_datalog ~pending ~history in
    if a <> b then
      Alcotest.failf "ordered SQL and Datalog disagree: %d vs %d keys"
        (List.length a) (List.length b)
  done

let test_read_committed_relaxation () =
  (* Reads are not blocked by read locks, writers do not wait for readers. *)
  let history = [ Request.v 1 1 Op.Read 10 ] in
  let pending = [ Request.v 2 1 Op.Write 10 ] in
  Alcotest.(check int) "ss2pl blocks writer on read lock" 0
    (List.length (qualify Builtin.ss2pl_sql ~pending ~history));
  Alcotest.(check int) "read-committed lets writer through" 1
    (List.length (qualify Builtin.read_committed_sql ~pending ~history));
  (* But dirty reads stay impossible: write lock blocks a read. *)
  let history = [ Request.v 1 1 Op.Write 10 ] in
  let pending = [ Request.v 2 1 Op.Read 10 ] in
  Alcotest.(check int) "no dirty read" 0
    (List.length (qualify Builtin.read_committed_sql ~pending ~history));
  (* SQL and Datalog variants agree. *)
  let rng = Ds_sim.Rng.create 77 in
  for _ = 1 to 20 do
    let all = Helpers.random_requests rng ~n_txns:6 ~ops_per_txn:4 ~n_objects:8 in
    let history, pending =
      List.partition (fun (r : Request.t) -> r.Request.ta mod 2 = 0) all
    in
    let a = qualify Builtin.read_committed_sql ~pending ~history in
    let b = qualify Builtin.read_committed_datalog ~pending ~history in
    if a <> b then Alcotest.fail "read-committed SQL and Datalog disagree"
  done

let test_rationing () =
  let proto = Builtin.rationing ~threshold:100 in
  (* Category A (obj < 100): full SS2PL -> read lock blocks writer. *)
  let history = [ Request.v 1 1 Op.Read 50 ] in
  let pending = [ Request.v 2 1 Op.Write 50 ] in
  Alcotest.(check int) "A-object strict" 0
    (List.length (qualify proto ~pending ~history));
  (* Category C (obj >= 100): the same situation is allowed. *)
  let history = [ Request.v 1 1 Op.Read 500 ] in
  let pending = [ Request.v 2 1 Op.Write 500 ] in
  Alcotest.(check int) "C-object relaxed" 1
    (List.length (qualify proto ~pending ~history));
  (* Write-write still ordered even on C objects. *)
  let history = [ Request.v 1 1 Op.Write 500 ] in
  let pending = [ Request.v 2 1 Op.Write 500 ] in
  Alcotest.(check int) "C-object write-write blocked" 0
    (List.length (qualify proto ~pending ~history))

let test_reader_offload () =
  (* Reads pass everything: uncommitted writer locks, pending writes. *)
  let history = [ Request.v 1 1 Op.Write 10 ] in
  let pending = [ Request.v 2 1 Op.Read 10; Request.v 3 1 Op.Write 10 ] in
  let q = qualify Builtin.reader_offload ~pending ~history in
  Alcotest.(check (list (pair int int))) "read passes, write blocked"
    [ (2, 1) ]
    (Helpers.sorted_keys q);
  (* Writes still write-write ordered among themselves when unlocked. *)
  let pending = [ Request.v 5 1 Op.Write 20; Request.v 4 1 Op.Write 20 ] in
  let q = qualify Builtin.reader_offload ~pending ~history:[] in
  Alcotest.(check (list (pair int int))) "lower-ta write wins" [ (4, 1) ] q;
  (* A pending read never blocks a write (unlike SS2PL). *)
  let pending = [ Request.v 4 1 Op.Read 30; Request.v 5 1 Op.Write 30 ] in
  Alcotest.(check int) "write ignores pending read" 2
    (List.length (qualify Builtin.reader_offload ~pending ~history:[]))

let test_rationing_dynamic () =
  (* The category boundary moves at runtime, between cycles, on a live
     scheduler. *)
  let proto, set_threshold = Builtin.rationing_dynamic ~initial_threshold:100 () in
  let sched = Scheduler.create ~prune_history_each_cycle:false proto in
  let rels = Scheduler.relations sched in
  let situation () =
    Relations.clear rels;
    Relations.insert_history rels (Request.v 1 1 Op.Read 50);
    Scheduler.submit sched (Request.v 2 1 Op.Write 50)
  in
  situation ();
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check int) "object 50 strict under threshold 100" 0 (List.length q);
  (* Lower the boundary: object 50 becomes category C -> relaxed. *)
  set_threshold 10;
  situation ();
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check int) "object 50 relaxed under threshold 10" 1 (List.length q);
  (* And back. *)
  set_threshold 1000;
  situation ();
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check int) "strict again" 0 (List.length q)

let test_fcfs_and_sla_ordering () =
  let sched = Scheduler.create Builtin.sla_ordered in
  let mk sla ta obj =
    Request.make ~sla ~arrival:(float_of_int ta) ~id:ta ~ta ~intrata:1
      ~op:Op.Read ~obj ()
  in
  List.iter (Scheduler.submit sched)
    [ mk Sla.free 1 10; mk Sla.premium 2 20; mk Sla.standard 3 30 ];
  let qualified, _ = Scheduler.cycle sched in
  Alcotest.(check (list int)) "premium first"
    [ 2; 3; 1 ]
    (List.map (fun (r : Request.t) -> r.Request.ta) qualified);
  (* FCFS keeps id order regardless of class. *)
  let sched = Scheduler.create Builtin.fcfs in
  List.iter (Scheduler.submit sched)
    [ mk Sla.free 1 10; mk Sla.premium 2 20 ];
  let qualified, _ = Scheduler.cycle sched in
  Alcotest.(check (list int)) "fcfs id order" [ 1; 2 ]
    (List.map (fun (r : Request.t) -> r.Request.ta) qualified)

(* --- scheduler cycle -------------------------------------------------- *)

let test_cycle_stats_and_requeue () =
  let sched = Scheduler.create Builtin.ss2pl_sql in
  List.iter (Scheduler.submit sched)
    [ Request.v 1 1 Op.Write 5; Request.v 2 1 Op.Write 5 ];
  let q1, s1 = Scheduler.cycle sched in
  Alcotest.(check int) "drained both" 2 s1.Scheduler.drained;
  Alcotest.(check int) "one qualified" 1 s1.Scheduler.qualified;
  Alcotest.(check (list (pair int int))) "t1 won" [ (1, 1) ]
    (List.map Request.key q1);
  (* Second cycle: T2 still blocked by T1's (uncommitted) write lock now in
     history. *)
  let q2, _ = Scheduler.cycle sched in
  Alcotest.(check int) "still blocked" 0 (List.length q2);
  (* After T1 commits, T2 unblocks. *)
  Scheduler.submit sched (Request.terminal 1 2 Op.Commit);
  let q3, _ = Scheduler.cycle sched in
  Alcotest.(check bool) "commit qualified" true
    (List.exists (fun r -> Request.key r = (1, 2)) q3);
  let q4, _ = Scheduler.cycle sched in
  Alcotest.(check (list (pair int int))) "t2 unblocked" [ (2, 1) ]
    (List.map Request.key q4);
  Alcotest.(check int) "cycles counted" 4 (Scheduler.cycles_run sched)

(* The paper's non-scheduling mode (§3.3) is the fcfs protocol: the server
   gets every request, conflicts and all, in submission order. *)
let fcfs_batch n =
  List.init n (fun i ->
      Request.make ~id:(i + 1) ~ta:(i + 1) ~intrata:1
        ~op:(if i mod 3 = 2 then Op.Read else Op.Write)
        ~obj:5 ())

let test_fcfs_mode () =
  let sched = Scheduler.create Builtin.fcfs in
  List.iter (Scheduler.submit sched) (fcfs_batch 2);
  let q, s = Scheduler.cycle sched in
  Alcotest.(check int) "everything forwarded" 2 (List.length q);
  Alcotest.(check int) "everything qualified" 2 s.Scheduler.qualified;
  Alcotest.(check int) "nothing retained" 0 (Scheduler.pending_count sched)

let test_fcfs_logs_rte () =
  (* Unlike a bypass of the relations, non-scheduling mode leaves a
     checkable record: a batch full of conflicts comes back in submission
     order, and every forwarded request is in the rte execution log. *)
  let sched = Scheduler.create Builtin.fcfs in
  let batch = fcfs_batch 4 @ [ Request.terminal 1 2 Op.Commit ] in
  let batch =
    List.mapi (fun i (r : Request.t) -> { r with Request.id = i + 1 }) batch
  in
  List.iter (Scheduler.submit sched) batch;
  let q, _ = Scheduler.cycle sched in
  let keys = List.map Request.key in
  Alcotest.(check (list (pair int int))) "fifo submission order" (keys batch)
    (keys q);
  Alcotest.(check int) "queue drained" 0 (Scheduler.queue_length sched);
  Alcotest.(check (list (pair int int))) "rte logs every request" (keys batch)
    (keys (Relations.rte_requests (Scheduler.relations sched)))

let test_abort_txn_releases () =
  let sched = Scheduler.create Builtin.ss2pl_sql in
  (* T1 writes 5 and stalls; T2 waits on it. *)
  Scheduler.submit sched (Request.v 1 1 Op.Write 5);
  ignore (Scheduler.cycle sched);
  Scheduler.submit sched (Request.v 2 1 Op.Write 5);
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check int) "blocked" 0 (List.length q);
  let dropped = Scheduler.abort_txn sched 1 in
  Alcotest.(check int) "nothing pending for t1" 0 dropped;
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check (list (pair int int))) "released" [ (2, 1) ]
    (List.map Request.key q)

let test_abort_txn_drops_pending () =
  (* abort_txn on a transaction with a *pending* (blocked) request: the row
     is dropped from [requests], its logical locks are released, and a
     previously blocked conflicting request qualifies on the next cycle. *)
  let sched = Scheduler.create Builtin.ss2pl_sql in
  Scheduler.submit sched (Request.v 3 1 Op.Write 7);
  ignore (Scheduler.cycle sched);
  (* T3 holds 7 *)
  Scheduler.submit sched (Request.v 1 1 Op.Write 5);
  ignore (Scheduler.cycle sched);
  (* T1 holds 5 *)
  Scheduler.submit sched (Request.v 1 2 Op.Write 7);
  (* T1 blocked by T3 *)
  Scheduler.submit sched (Request.v 2 1 Op.Write 5);
  (* T2 blocked by T1 *)
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check int) "both blocked" 0 (List.length q);
  Alcotest.(check int) "both pending" 2 (Scheduler.pending_count sched);
  let dropped = Scheduler.abort_txn sched 1 in
  Alcotest.(check int) "t1's pending request dropped" 1 dropped;
  Alcotest.(check int) "only t2 left pending" 1 (Scheduler.pending_count sched);
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check (list (pair int int))) "t2 acquired t1's released lock"
    [ (2, 1) ]
    (List.map Request.key q)

let test_abort_marker_lifecycle () =
  (* Markers use a reserved sentinel (negative INTRATA/id), round-trip
     through [history], never collide with real requests — even ones using
     intrata 999 and billion-range ids, the encoding old markers forged —
     and pruning sweeps the aborted transaction away. *)
  let sched = Scheduler.create ~prune_history_each_cycle:false Builtin.ss2pl_sql in
  let rels = Scheduler.relations sched in
  Scheduler.submit sched
    (Request.make ~id:1_000_000_002 ~ta:1 ~intrata:999 ~op:Op.Write ~obj:5 ());
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check int) "hostile ids still schedule" 1 (List.length q);
  ignore (Scheduler.abort_txn sched 1);
  let hist = Relations.history_requests rels in
  let markers = List.filter Request.is_abort_marker hist in
  Alcotest.(check int) "exactly one marker" 1 (List.length markers);
  let m = List.hd markers in
  Alcotest.(check int) "marker carries the ta" 1 m.Request.ta;
  Alcotest.(check bool) "marker distinct from every real row" true
    (List.for_all
       (fun r -> Request.is_abort_marker r || r.Request.id <> m.Request.id)
       hist);
  Alcotest.check_raises "markers can't enter requests"
    (Invalid_argument "Relations: abort markers belong in history, not requests")
    (fun () -> Relations.insert_pending rels (Request.abort_marker ~ta:2 ~seq:0 ()));
  let removed = Relations.prune_history rels in
  Alcotest.(check bool) "prune swept the aborted txn" true (removed >= 2);
  Alcotest.(check int) "history empty" 0 (Relations.history_count rels)

(* --- trigger ----------------------------------------------------------- *)

let test_trigger () =
  Alcotest.(check bool) "time due" true
    (Trigger.due (Trigger.Time_lapse 0.01) ~queue_len:0 ~elapsed:0.02);
  Alcotest.(check bool) "time not due" false
    (Trigger.due (Trigger.Time_lapse 0.01) ~queue_len:100 ~elapsed:0.001);
  Alcotest.(check bool) "fill due" true
    (Trigger.due (Trigger.Fill_level 10) ~queue_len:10 ~elapsed:0.);
  Alcotest.(check bool) "hybrid either" true
    (Trigger.due (Trigger.Hybrid (0.01, 10)) ~queue_len:10 ~elapsed:0.);
  Alcotest.(check (option (float 0.))) "period" (Some 0.01)
    (Trigger.period (Trigger.Time_lapse 0.01));
  Alcotest.(check (option (float 0.))) "fill has no period" None
    (Trigger.period (Trigger.Fill_level 5))

(* --- rule language ------------------------------------------------------ *)

let test_rule_lang_parse () =
  let def =
    Rule_lang.parse
      {|# premium customers first
protocol premium-first
guarantee serializable
rules ss2pl
order by weight desc, arrival asc
limit 200|}
  in
  Alcotest.(check string) "name" "premium-first" def.Rule_lang.name;
  Alcotest.(check bool) "rules" true (def.Rule_lang.rules = `Builtin "ss2pl");
  Alcotest.(check bool) "order" true
    (def.Rule_lang.order_by
    = [ (Rule_lang.Weight, `Desc); (Rule_lang.Arrival, `Asc) ]);
  Alcotest.(check (option int)) "limit" (Some 200) def.Rule_lang.limit

let test_rule_lang_errors () =
  let expect src =
    match Rule_lang.parse src with
    | exception Rule_lang.Rule_error _ -> ()
    | _ -> Alcotest.failf "expected rule error: %s" src
  in
  expect "rules ss2pl";
  (* no protocol name *)
  expect "protocol p";
  (* no rules *)
  expect "protocol p\nrules nope\nbogus directive";
  expect "protocol p\nrules ss2pl\nlimit -1";
  expect "protocol p\nrules ss2pl\norder weight"

let test_rule_lang_compile_and_run () =
  let proto =
    Rule_lang.compile
      {|protocol premium-first
guarantee serializable
rules ss2pl
order by weight desc
limit 2|}
  in
  let sched = Scheduler.create proto in
  let mk sla ta =
    Request.make ~sla ~id:ta ~ta ~intrata:1 ~op:Op.Read ~obj:(100 + ta) ()
  in
  List.iter (Scheduler.submit sched)
    [ mk Sla.free 1; mk Sla.premium 2; mk Sla.standard 3 ];
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check (list int)) "weighted, limited" [ 2; 3 ]
    (List.map (fun (r : Request.t) -> r.Request.ta) q);
  (* The SLA example's rule: premium overtakes the earlier free request. *)
  let proto =
    Rule_lang.compile
      {|protocol premium-first
guarantee serializable
rules ss2pl
order by weight desc, arrival asc|}
  in
  let sched = Scheduler.create proto in
  let submitted = free_then_premium () in
  List.iter (Scheduler.submit sched) submitted;
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check (list request)) "premium first, requests intact"
    (List.rev submitted) q

let test_rule_lang_inline_datalog () =
  let proto =
    Rule_lang.compile
      ({|protocol my-rc
guarantee read-committed
rules datalog {
|} ^ Datalog_rules.read_committed ^ {|
}|})
  in
  let history = [ Request.v 1 1 Op.Read 10 ] in
  let pending = [ Request.v 2 1 Op.Write 10 ] in
  Alcotest.(check int) "behaves like read-committed" 1
    (List.length (qualify proto ~pending ~history))

(* --- related work / productivity ---------------------------------------- *)

let test_table1 () =
  let s = Related.render_table () in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("row " ^ name) true (Helpers.contains s name))
    [ "EQMS"; "Ganymed"; "WLMS"; "C-JDBC"; "GP"; "WebQoS"; "QShuffler"; "this work" ];
  (* The paper's point: no related approach is declarative. *)
  List.iter
    (fun (a : Related.approach) ->
      Alcotest.(check bool) "not declarative" false a.Related.features.Related.declarative)
    Related.paper_rows;
  Alcotest.(check bool) "ours is" true
    Related.declarative_scheduler.Related.features.Related.declarative

let test_spec_loc_comparison () =
  (* The productivity claim: the declarative specs are much smaller than the
     imperative implementation. *)
  let sql = Builtin.ss2pl_sql.Protocol.spec_loc in
  let datalog = Builtin.ss2pl_datalog.Protocol.spec_loc in
  let ocaml = Builtin.ss2pl_ocaml.Protocol.spec_loc in
  Alcotest.(check bool) "datalog < sql" true (datalog < sql);
  Alcotest.(check bool) "sql < ocaml" true (sql < ocaml)

let test_oracle_loc_honest () =
  (* implementation_loc must track the actual source file size. *)
  let file = "../lib/core/oracle.ml" in
  if Sys.file_exists file then begin
    let ic = open_in file in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then incr n
       done
     with End_of_file -> close_in ic);
    Alcotest.(check bool) "within 20% of recorded count" true
      (abs (!n - Oracle.implementation_loc) < Oracle.implementation_loc / 5)
  end

(* Relaxation is monotone: dropping blocking rules can only admit more.
   c2pl <= ss2pl <= read-committed <= reader-offload, as sets of qualified
   keys, on any batch. *)
let protocol_monotonicity =
  QCheck2.Test.make ~name:"protocol relaxation chain is monotone" ~count:60
    QCheck2.Gen.(triple small_int (int_range 1 8) (int_range 1 10))
    (fun (seed, n_txns, n_objects) ->
      let rng = Ds_sim.Rng.create seed in
      let all = Helpers.random_requests rng ~n_txns ~ops_per_txn:4 ~n_objects in
      let history, pending =
        List.partition (fun (r : Request.t) -> r.Request.ta mod 2 = 0) all
      in
      let keys proto = Helpers.sorted_keys (qualify proto ~pending ~history) in
      let subset a b = List.for_all (fun k -> List.mem k b) a in
      let c2pl = keys Builtin.c2pl in
      let ss2pl = keys Builtin.ss2pl_sql in
      let rc = keys Builtin.read_committed_sql in
      let ro = keys Builtin.reader_offload in
      let all_pending = Helpers.sorted_keys (List.map Request.key pending) in
      subset c2pl ss2pl && subset ss2pl rc && subset rc ro
      && subset ro all_pending)

(* --- conservative 2PL ----------------------------------------------------- *)

let test_c2pl_all_or_nothing () =
  (* T2's write on 5 conflicts with T1's pending write; under C2PL the whole
     of T2 waits, including its independent read. *)
  let pending =
    [
      Request.v 1 1 Op.Write 5;
      Request.v 2 1 Op.Write 5;
      Request.v 2 2 Op.Read 9;
      Request.terminal 2 3 Op.Commit;
      Request.v 3 1 Op.Read 7;
    ]
  in
  let q = qualify Builtin.c2pl ~pending ~history:[] in
  Alcotest.(check (list (pair int int))) "only T1 and T3 admitted"
    [ (1, 1); (3, 1) ]
    (Helpers.sorted_keys q);
  (* Listing 1 by contrast admits T2's non-conflicting read. *)
  let q = qualify Builtin.ss2pl_sql ~pending ~history:[] in
  Alcotest.(check bool) "ss2pl admits T2's read" true
    (List.mem (2, 2) q);
  (* Held locks block the whole transaction too. *)
  let history = [ Request.v 9 1 Op.Read 7 ] in
  let pending = [ Request.v 10 1 Op.Write 7; Request.v 10 2 Op.Read 50 ] in
  Alcotest.(check int) "blocked by history lock" 0
    (List.length (qualify Builtin.c2pl ~pending ~history))

let test_batch_sim_progress () =
  let s =
    Batch_sim.run
      {
        Batch_sim.default_config with
        Batch_sim.arrival_rate = 10.;
        duration = 3.;
        spec = { Ds_workload.Spec.small with Ds_workload.Spec.n_objects = 100 };
      }
  in
  Alcotest.(check bool) "offered txns" true (s.Batch_sim.offered_txns > 10);
  Alcotest.(check bool) "completions happen" true (s.Batch_sim.completed_txns > 0);
  Alcotest.(check bool) "completions bounded by offers" true
    (s.Batch_sim.completed_txns <= s.Batch_sim.offered_txns);
  (* Determinism. *)
  let s2 =
    Batch_sim.run
      {
        Batch_sim.default_config with
        Batch_sim.arrival_rate = 10.;
        duration = 3.;
        spec = { Ds_workload.Spec.small with Ds_workload.Spec.n_objects = 100 };
      }
  in
  Alcotest.(check int) "deterministic" s.Batch_sim.completed_txns
    s2.Batch_sim.completed_txns

(* --- adaptive consistency ------------------------------------------------ *)

let test_adaptive_switching () =
  let adaptive =
    Adaptive.make ~strict:Builtin.ss2pl_ocaml ~relaxed:Builtin.read_committed_sql
      ~high_watermark:5 ~low_watermark:1 ()
  in
  let sched = Scheduler.create (Adaptive.protocol adaptive) in
  Alcotest.(check bool) "starts strict" true (Adaptive.mode adaptive = `Strict);
  (* Low load: one conflicting pair; strict semantics visible (writer blocked
     by a read lock in history). *)
  let rels = Scheduler.relations sched in
  Relations.insert_history rels (Request.v 1 1 Op.Read 10);
  Scheduler.submit sched (Request.v 2 1 Op.Write 10);
  let q, _ = Scheduler.cycle sched in
  Alcotest.(check int) "strict blocks writer" 0 (List.length q);
  (* The blocked request stays pending; pile more on until the backlog
     crosses the watermark -> relaxed mode lets the writer through. *)
  for ta = 3 to 8 do
    Scheduler.submit sched (Request.v ta 1 Op.Read (100 + ta))
  done;
  let q, stats = Scheduler.cycle sched in
  Alcotest.(check bool) "watermark crossed" true
    (stats.Scheduler.pending_before + stats.Scheduler.drained >= 5);
  Alcotest.(check bool) "switched to relaxed" true
    (Adaptive.mode adaptive = `Relaxed);
  Alcotest.(check bool) "writer released under relaxed rules" true
    (List.exists (fun r -> Request.key r = (2, 1)) q);
  (* Backlog drained: next cycle falls back to strict. *)
  let _, _ = Scheduler.cycle sched in
  Alcotest.(check bool) "recovered to strict" true
    (Adaptive.mode adaptive = `Strict);
  Alcotest.(check int) "two switches" 2 (Adaptive.switches adaptive)

let test_adaptive_hysteresis () =
  (* A bursty load whose backlog oscillates INSIDE the hysteresis band must
     not flap the protocol: switches happen only when the load genuinely
     crosses a watermark, and the scheduler settles back to strict once the
     burst drains. *)
  let adaptive =
    Adaptive.make ~strict:Builtin.ss2pl_ocaml ~relaxed:Builtin.read_committed_sql
      ~high_watermark:8 ~low_watermark:2 ()
  in
  let sched = Scheduler.create (Adaptive.protocol adaptive) in
  let next_ta = ref 0 in
  (* [load n] runs one cycle with n independent reads in the queue; they all
     qualify, so the backlog seen by the adaptive protocol is exactly n. *)
  let load n =
    for _ = 1 to n do
      incr next_ta;
      Scheduler.submit sched (Request.v !next_ta 1 Op.Read (1000 + !next_ta))
    done;
    ignore (Scheduler.cycle sched)
  in
  let burst () =
    load 12;
    (* cross the high watermark *)
    Alcotest.(check bool) "burst switches to relaxed" true
      (Adaptive.mode adaptive = `Relaxed);
    (* mid-band load (between low=2 and high=8): mode must hold *)
    for _ = 1 to 10 do
      load 5;
      Alcotest.(check bool) "mid-band holds relaxed" true
        (Adaptive.mode adaptive = `Relaxed)
    done;
    load 0;
    (* drain below the low watermark *)
    Alcotest.(check bool) "drain recovers strict" true
      (Adaptive.mode adaptive = `Strict);
    for _ = 1 to 10 do
      load 5;
      Alcotest.(check bool) "mid-band holds strict" true
        (Adaptive.mode adaptive = `Strict)
    done
  in
  burst ();
  burst ();
  (* 44 cycles, 40 of them inside the band: exactly two switches per burst *)
  Alcotest.(check int) "no flapping: two switches per burst" 4
    (Adaptive.switches adaptive);
  Alcotest.(check bool) "ends strict" true (Adaptive.mode adaptive = `Strict)

let test_adaptive_validation () =
  match
    Adaptive.make ~strict:Builtin.ss2pl_sql ~relaxed:Builtin.read_committed_sql
      ~high_watermark:1 ~low_watermark:5 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected watermark validation error"

(* --- overhead probe ------------------------------------------------------ *)

let test_overhead_probe () =
  let m = Overhead_probe.measure ~runs:2 ~n_clients:40 Builtin.ss2pl_ocaml in
  Alcotest.(check int) "one pending per client" 40 m.Overhead_probe.pending;
  Alcotest.(check bool) "history populated" true (m.Overhead_probe.history > 100);
  Alcotest.(check bool) "most qualify at low contention" true
    (m.Overhead_probe.qualified > 20);
  Alcotest.(check bool) "time positive" true (m.Overhead_probe.cycle_time > 0.);
  let amortized = Overhead_probe.amortized_overhead m ~total_stmts:4000 in
  Alcotest.(check bool) "amortized scales" true
    (amortized > 0. && amortized < 10.)

(* With pruning off, history keeps finished transactions, which hold no
   locks: the blocker a deferral reports must be the active writer. *)
let test_defer_blocker_holds_lock () =
  let trace = Ds_obs.Trace.create () in
  let sched =
    Scheduler.create ~prune_history_each_cycle:false ~trace Builtin.ss2pl_sql
  in
  load_case (Scheduler.relations sched) ~pending:[]
    ~history:
      [
        Request.v 1 1 Op.Write 7;
        Request.terminal 1 2 Op.Commit;
        Request.v 2 1 Op.Write 7;
      ];
  Scheduler.submit sched (Request.v 3 1 Op.Read 7);
  let qualified, _ = Scheduler.cycle sched in
  Alcotest.(check int) "read deferred" 0 (List.length qualified);
  let defers =
    List.filter
      (fun (e : Ds_obs.Trace.event) -> e.Ds_obs.Trace.kind = Ds_obs.Trace.Sched_defer)
      (Ds_obs.Trace.events trace)
  in
  Alcotest.(check (list (pair int int)))
    "blocked by the active writer T2, not the committed T1" [ (3, 2) ]
    (List.map
       (fun (e : Ds_obs.Trace.event) -> (e.Ds_obs.Trace.ta, e.Ds_obs.Trace.arg))
       defers)

(* --- the hand-coded protocol against Listing 1 in whole runs -------------- *)

(* The hand-coded protocol reads history's indexes; unoptimized Listing 1
   re-evaluates the lock tables from all of history every cycle. Their runs
   must not differ in any decision. *)
let same_as_listing1 name tweak =
  let ocaml = Helpers.whole_run ~tweak Builtin.ss2pl_ocaml in
  Helpers.same_run name ocaml (Helpers.whole_run ~tweak (Builtin.ss2pl_sql_at `None));
  fst ocaml

(* Recovery rebuilds history from the checkpointed journal straight into the
   table, indexes included. *)
let test_ocaml_crash_checkpointed () =
  let stats =
    same_as_listing1 "S=1 crash" (fun c ->
        { c with Middleware.faults = Helpers.plan_exn "crash=40"; checkpoint_interval = Some 10 })
  in
  Alcotest.(check int) "crashed once" 1 stats.Middleware.crashes

(* Finished transactions stay in history, so every object posting holds rows
   whose locks are released. Half the run length: unoptimized Listing 1
   re-reads the whole unpruned history every cycle. *)
let test_ocaml_unpruned () =
  ignore
    (same_as_listing1 "no pruning" (fun c ->
         { c with Middleware.prune_history = false; duration = 1. }))

let test_ocaml_sharded () =
  ignore
    (same_as_listing1 "S=4" (fun c ->
         { c with Middleware.shards = 4; journal_path = None }))

let tests =
  [
    Alcotest.test_case "table 2 schema" `Quick test_table2_schema;
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "move to history" `Quick test_move_to_history;
    Alcotest.test_case "a request listed twice is admitted once" `Quick
      test_duplicate_keys_admitted_once;
    Alcotest.test_case "prune history" `Quick test_prune_history;
    QCheck_alcotest.to_alcotest ss2pl_equivalence;
    Alcotest.test_case "ss2pl blocks on locks" `Quick test_ss2pl_blocks_locked;
    Alcotest.test_case "ss2pl pending conflicts" `Quick test_ss2pl_pending_conflicts;
    Alcotest.test_case "ss2pl ordered variant" `Quick test_ss2pl_ordered_protocol;
    Alcotest.test_case "ordered sql=datalog" `Quick test_ordered_equivalence_sql_datalog;
    Alcotest.test_case "read committed relaxation" `Quick
      test_read_committed_relaxation;
    Alcotest.test_case "consistency rationing" `Quick test_rationing;
    Alcotest.test_case "dynamic rationing threshold" `Quick test_rationing_dynamic;
    Alcotest.test_case "reader offload" `Quick test_reader_offload;
    Alcotest.test_case "fcfs and sla ordering" `Quick test_fcfs_and_sla_ordering;
    Alcotest.test_case "cycle stats and requeue" `Quick test_cycle_stats_and_requeue;
    Alcotest.test_case "fcfs is the non-scheduling mode" `Quick test_fcfs_mode;
    Alcotest.test_case "fcfs logs every request in rte" `Quick
      test_fcfs_logs_rte;
    Alcotest.test_case "abort releases locks" `Quick test_abort_txn_releases;
    Alcotest.test_case "abort drops pending + unblocks" `Quick
      test_abort_txn_drops_pending;
    Alcotest.test_case "abort marker lifecycle" `Quick
      test_abort_marker_lifecycle;
    Alcotest.test_case "trigger conditions" `Quick test_trigger;
    Alcotest.test_case "rule lang parse" `Quick test_rule_lang_parse;
    Alcotest.test_case "rule lang errors" `Quick test_rule_lang_errors;
    Alcotest.test_case "rule lang compile/run" `Quick test_rule_lang_compile_and_run;
    Alcotest.test_case "rule lang inline datalog" `Quick test_rule_lang_inline_datalog;
    Alcotest.test_case "table 1" `Quick test_table1;
    Alcotest.test_case "spec size comparison" `Quick test_spec_loc_comparison;
    Alcotest.test_case "oracle loc honest" `Quick test_oracle_loc_honest;
    QCheck_alcotest.to_alcotest protocol_monotonicity;
    Alcotest.test_case "c2pl all-or-nothing" `Quick test_c2pl_all_or_nothing;
    Alcotest.test_case "batch sim progress" `Quick test_batch_sim_progress;
    Alcotest.test_case "adaptive switching" `Quick test_adaptive_switching;
    Alcotest.test_case "adaptive hysteresis" `Quick test_adaptive_hysteresis;
    Alcotest.test_case "adaptive validation" `Quick test_adaptive_validation;
    Alcotest.test_case "overhead probe" `Quick test_overhead_probe;
    Alcotest.test_case "deferral names a lock holder" `Quick
      test_defer_blocker_holds_lock;
    Alcotest.test_case "ss2pl-ocaml = listing 1: S=1 crash, checkpoints" `Quick
      test_ocaml_crash_checkpointed;
    Alcotest.test_case "ss2pl-ocaml = listing 1: no pruning" `Quick
      test_ocaml_unpruned;
    Alcotest.test_case "ss2pl-ocaml = listing 1: S=4 shards" `Quick
      test_ocaml_sharded;
  ]
