(* Pinned outcomes of the three ways a lane is rebuilt mid-run: a process
   crash recovered from its own journal (single lane, with worker faults and
   checkpoints), the same crash across a sharded segment directory, and a
   permanent primary crash failed over to a sync standby over a lossy link.
   Every asserted field is decided by the simulation (no wall-clock input),
   so the numbers are a pure function of the seed: any change to the
   recovery path that alters event order or RNG draws shows up here. *)

open Ds_core

let spec = { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 20_000 }

let plan_exn s =
  match Faults.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S rejected: %s" s e

let cfg ~faults =
  {
    Middleware.default_config with
    Middleware.n_clients = 12;
    duration = 4.;
    spec;
    charge_scheduler_time = false;
    faults = plan_exn faults;
  }

let temp_name suffix =
  let p = Filename.temp_file "ds_recovery_test" suffix in
  Sys.remove p;
  p

let rm_f p = try Sys.remove p with Sys_error _ -> ()

let temp_journal ~shards = Journal.temp_path ~shards "ds_recovery_test"

let outcome (s : Middleware.stats) =
  Middleware.
    [
      ("committed", s.committed_txns);
      ("aborted", s.aborted_txns);
      ("recovery_replayed", s.recovery_replayed);
      ("recovery_skipped", s.recovery_skipped);
      ("checkpoints", s.checkpoints);
      ("dead_lettered", s.dead_lettered);
      ("crashes", s.crashes);
      ("failovers", s.failovers);
      ("repl_epoch", s.repl_epoch);
      ("repl_fenced", s.repl_fenced);
    ]

let check_outcome name expected s =
  Alcotest.(check (list (pair string int))) name expected (outcome s)

(* The merged cross-lane delivery order restarts at every crash or failover,
   so its length and checksum pin both the order itself and where each
   incarnation begins. *)
let check_order name ~length ~crc (h : Middleware.handle) =
  let order = h.Middleware.merged_execution_order in
  Alcotest.(check int) (name ^ ": order length") length (List.length order);
  Alcotest.(check int)
    (name ^ ": order crc")
    crc
    (Journal.crc32
       (String.concat ";"
          (List.map (fun (ta, i) -> Printf.sprintf "%d,%d" ta i) order)))

let test_crash_single_lane () =
  let path = temp_journal ~shards:1 in
  Fun.protect ~finally:(fun () -> Journal.remove path) @@ fun () ->
  let s, h =
    Middleware.run_sharded
      {
        (cfg ~faults:"crash=40,wcrash=0.1") with
        Middleware.workers = 4;
        journal_path = Some path;
        checkpoint_interval = Some 10;
      }
  in
  (* A block is written on a 10-cycle boundary only once the records since
     the last block add up to its size, so fewer blocks are written and the
     recovery starts from an older one: it skips fewer lines and replays
     more. Checkpoints are snapshots, not decisions: the client outcome and
     the delivery order are those of a run checkpointed every 10 cycles. *)
  check_outcome "S=1 crash, 4 workers, checkpointed"
    [
      ("committed", 70);
      ("aborted", 0);
      ("recovery_replayed", 461);
      ("recovery_skipped", 622);
      ("checkpoints", 13);
      ("dead_lettered", 0);
      ("crashes", 1);
      ("failovers", 0);
      ("repl_epoch", 0);
      ("repl_fenced", 0);
    ]
    s;
  check_order "S=1 crash" ~length:2602 ~crc:0x6601cbb1 h

let test_crash_sharded () =
  let path = temp_journal ~shards:4 in
  Fun.protect ~finally:(fun () -> Journal.remove path) @@ fun () ->
  let s, h =
    Middleware.run_sharded
      {
        (cfg ~faults:"crash=40") with
        Middleware.shards = 4;
        journal_path = Some path;
      }
  in
  check_outcome "S=4 crash, segment directory"
    [
      ("committed", 70);
      ("aborted", 0);
      ("recovery_replayed", 961);
      ("recovery_skipped", 0);
      ("checkpoints", 0);
      ("dead_lettered", 0);
      ("crashes", 1);
      ("failovers", 0);
      ("repl_epoch", 0);
      ("repl_fenced", 0);
    ]
    s;
  check_order "S=4 crash" ~length:2614 ~crc:0x6af3878a h

let test_failover_sync_standby () =
  let journal = temp_journal ~shards:1 in
  let dir = temp_name ".repl.d" in
  Fun.protect
    ~finally:(fun () ->
      Journal.remove journal;
      rm_f (Ds_replica.Session.standby_path_of dir);
      rm_f (Filename.concat dir "REPL");
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let plan =
    {
      Ds_replica.Link.none with
      Ds_replica.Link.drop_rate = 0.2;
      dup_rate = 0.1;
      reorder_rate = 0.2;
      delay_rate = 0.1;
      spike_delay = 0.05;
    }
  in
  let session =
    Ds_replica.Session.create ~mode:Ds_replica.Session.Sync ~plan ~seed:7 ~dir
      ()
  in
  let s, h =
    Middleware.run_sharded
      {
        (cfg ~faults:"pcrash=40") with
        Middleware.journal_path = Some journal;
        checkpoint_interval = Some 10;
        repl = Some (Ds_replica.Session.hooks session);
      }
  in
  Ds_replica.Session.close session;
  (* Checkpoint entries never cross the link (the standby writes its own
     blocks), so fewer records are in flight on the lossy link when the
     primary dies: the standby holds more of the suffix when it is promoted
     (recovery_replayed) and fewer stale records arrive to be fenced
     afterwards (repl_fenced). Blocks are written by size, not every 10
     cycles, and only records the standby lacks are retransmitted: the
     promoted standby's last block is older (more replayed, fewer skipped),
     even fewer stale records are in flight to be fenced, and since fewer
     records cross the link its seeded draws fall on different records,
     which moves the delivery order; the commit count does not move. *)
  check_outcome "S=1 pcrash, sync standby over a lossy link"
    [
      ("committed", 70);
      ("aborted", 0);
      ("recovery_replayed", 390);
      ("recovery_skipped", 623);
      ("checkpoints", 13);
      ("dead_lettered", 0);
      ("crashes", 0);
      ("failovers", 1);
      ("repl_epoch", 1);
      ("repl_fenced", 31);
    ]
    s;
  check_order "S=1 pcrash" ~length:2605 ~crc:0x9c4d19dd h

(* A run that reuses a journal path must not recover the previous run's
   records: the second run crashes and recovers from the same path, and its
   merged rte must still be serializable and its journal recoverable. *)
let test_journal_reuse ~shards () =
  let path = temp_journal ~shards in
  Fun.protect ~finally:(fun () -> Journal.remove path) @@ fun () ->
  let run faults =
    Middleware.run_sharded
      { (cfg ~faults) with Middleware.shards; journal_path = Some path }
  in
  ignore (run "");
  let s, h = run "crash=40" in
  Alcotest.(check int) "crashed once" 1 s.Middleware.crashes;
  let report =
    Ds_check.Serializability.check
      (Ds_check.Conflict_graph.events_of_requests h.Middleware.merged_rte)
  in
  if not (Ds_check.Serializability.is_clean report) then
    Alcotest.failf "rte after journal reuse: %a"
      Ds_check.Serializability.pp_report report;
  let r = Journal.recover path in
  Alcotest.(check int) "no corrupt records" 0 r.Journal.corrupt_dropped

let tests =
  [
    Alcotest.test_case "crash at S=1 with worker faults and checkpoints" `Quick
      test_crash_single_lane;
    Alcotest.test_case "crash at S=4 over a segment directory" `Quick
      test_crash_sharded;
    Alcotest.test_case "pcrash fails over to a sync standby" `Quick
      test_failover_sync_standby;
    Alcotest.test_case "a reused journal path at S=1 starts afresh" `Quick
      (test_journal_reuse ~shards:1);
    Alcotest.test_case "a reused segment directory at S=2 starts afresh"
      `Quick (test_journal_reuse ~shards:2);
  ]
