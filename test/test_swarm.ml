(* Deterministic simulation testing harness (lib/dst): scenario codec and
   generator determinism, the swarm sweep with the full invariant battery,
   the test-only corruption injections, the delta-debugging shrinker, and
   the committed minimal repro as a regression. *)

open Ds_dst

let scenario_eq = Alcotest.testable Scenario.pp Scenario.equal

(* --- scenario codec ------------------------------------------------ *)

let scenario_roundtrip =
  QCheck2.Test.make ~name:"scenario JSON roundtrip"
    ~count:(Helpers.Config.qcheck_count 200)
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let s = Gen.of_seed seed in
      match Scenario.of_json (Scenario.to_json s) with
      | Ok s' -> Scenario.equal s s'
      | Error m -> QCheck2.Test.fail_reportf "decode failed: %s" m)

let test_inject_roundtrip () =
  (* Injections only enter via hand-written scenarios; their codec still
     has to roundtrip for replay files to work. *)
  List.iter
    (fun inject ->
      let s = { (Gen.of_seed 7) with Scenario.inject = Some inject } in
      match Scenario.of_json (Scenario.to_json s) with
      | Ok s' -> Alcotest.check scenario_eq "roundtrip with inject" s s'
      | Error m -> Alcotest.failf "decode failed: %s" m)
    [ Scenario.Dup_delivery 3; Scenario.Drop_rte 0; Scenario.Swap_rte 12 ]

let test_of_json_rejects_invalid () =
  let cases =
    [
      ("not an object", Ds_obs.Json.Str "hello");
      ( "unknown protocol",
        Scenario.to_json { (Gen.of_seed 1) with Scenario.protocol = "fcfs" } );
      ( "zero clients",
        Scenario.to_json { (Gen.of_seed 1) with Scenario.clients = 0 } );
    ]
  in
  List.iter
    (fun (what, json) ->
      match Scenario.of_json json with
      | Ok _ -> Alcotest.failf "%s was accepted" what
      | Error _ -> ())
    cases

(* --- generator ------------------------------------------------------ *)

let test_generator_deterministic () =
  List.iter
    (fun i ->
      let seed = Gen.scenario_seed ~base:99 i in
      Alcotest.check scenario_eq
        (Printf.sprintf "of_seed %d is stable" seed)
        (Gen.of_seed seed) (Gen.of_seed seed);
      Alcotest.(check int)
        "scenario_seed is a pure function" seed
        (Gen.scenario_seed ~base:99 i))
    [ 0; 1; 2; 17; 1000 ]

let test_generator_valid_and_diverse () =
  let scenarios =
    List.init 100 (fun i -> Gen.of_seed (Gen.scenario_seed ~base:5 i))
  in
  List.iter
    (fun s ->
      match Scenario.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "generated invalid scenario: %s" m)
    scenarios;
  let distinct f = List.sort_uniq compare (List.map f scenarios) in
  (* The sweep has to actually cover the cross-product dimensions. *)
  Alcotest.(check bool) "several protocols" true
    (List.length (distinct (fun s -> s.Scenario.protocol)) >= 3);
  Alcotest.(check bool) "several worker counts" true
    (List.length (distinct (fun s -> s.Scenario.workers)) >= 3);
  Alcotest.(check bool) "faulty and fault-free plans" true
    (List.length
       (distinct (fun s -> Ds_core.Faults.is_none s.Scenario.faults))
    = 2);
  Alcotest.(check bool) "checkpointing on and off" true
    (List.length (distinct (fun s -> s.Scenario.checkpoint = None)) = 2);
  Alcotest.(check bool) "bounded and unbounded queues" true
    (List.length (distinct (fun s -> s.Scenario.queue_cap = None)) = 2);
  Alcotest.(check bool) "replicated and unreplicated runs" true
    (List.length (distinct (fun s -> s.Scenario.repl = None)) = 2);
  List.iter
    (fun s ->
      Alcotest.(check bool) "generator never injects" true
        (s.Scenario.inject = None);
      match s.Scenario.repl with
      | None -> ()
      | Some _ ->
        Alcotest.(check int) "replication only at one shard" 1
          s.Scenario.shards;
        Alcotest.(check bool) "replication excludes the crash fault" true
          (s.Scenario.faults.Ds_core.Faults.crash_at_cycle = None))
    scenarios

(* --- swarm sweep ---------------------------------------------------- *)

let test_swarm_invariants_hold () =
  (* The PR-smoke sweep: DS_SWARM_N scenarios (default 25), every invariant
     on every scenario, zero failures expected against the real stack. *)
  let n = Helpers.Config.swarm_n () in
  let report = Swarm.run ~shrink:false ~n ~seed:11 () in
  let failed = Swarm.failed report in
  if failed <> [] then begin
    let r = List.hd failed in
    let name, detail =
      List.hd (Runner.failures r.Swarm.outcome)
    in
    Alcotest.failf "%d/%d scenarios failed; first: %s [%s: %s]"
      (List.length failed) n
      (Scenario.to_string r.Swarm.outcome.Runner.scenario)
      name detail
  end;
  List.iter
    (fun r ->
      Alcotest.(check int) "complete battery on every scenario"
        (List.length Invariant.names)
        (List.length r.Swarm.outcome.Runner.invariants))
    report.Swarm.results

let test_swarm_report_deterministic () =
  let render () =
    Ds_obs.Json.to_string
      (Swarm.report_json (Swarm.run ~shrink:false ~n:8 ~seed:3 ()))
  in
  Alcotest.(check string) "same n+seed => byte-identical report" (render ())
    (render ())

let test_replay_bit_identical () =
  (* A reported scenario seed is the repro token: replaying it must
     reproduce the same counters and verdicts exactly. *)
  let seed = Gen.scenario_seed ~base:11 4 in
  let render () =
    Ds_obs.Json.to_string
      (Swarm.result_json
         (Swarm.replay ~shrink:false ~scenario_seed:seed (Gen.of_seed seed)))
  in
  Alcotest.(check string) "replay is bit-identical" (render ()) (render ())

(* --- injections ----------------------------------------------------- *)

(* Fully explicit known-bad scenario (fault-free, no crash) so every
   injected corruption lands inside the compared schedule window. *)
let base_bad =
  {
    Scenario.seed = 12345;
    clients = 8;
    duration = 1.0;
    n_objects = 300;
    stmts_per_txn = 2;
    access = Scenario.Uniform;
    sla_mix = false;
    protocol = "ss2pl-sql";
    workers = 2;
    shards = 1;
    faults = Ds_core.Faults.none;
    checkpoint = None;
    queue_cap = None;
    hedging = false;
    inject = Some (Scenario.Dup_delivery 17);
    repl = None;
  }

let test_inject_dup_delivery_fails () =
  let outcome = Runner.run base_bad in
  let failed = List.map fst (Runner.failures outcome) in
  Alcotest.(check bool)
    (Printf.sprintf "conflict-equivalence among %s"
       (String.concat "," failed))
    true
    (List.mem "conflict-equivalence" failed)

let test_inject_drop_rte_fails () =
  let outcome =
    Runner.run { base_bad with Scenario.inject = Some (Scenario.Drop_rte 5) }
  in
  (* The merged order then delivers a request the rte log never admitted. *)
  Alcotest.(check bool) "dropping an rte entry trips the battery" true
    (Runner.failures outcome <> []);
  (* Entry 30 of this run is a commit, so the log's commit order no longer
     matches the trace's commit admissions. *)
  let outcome =
    Runner.run { base_bad with Scenario.inject = Some (Scenario.Drop_rte 30) }
  in
  Alcotest.(check bool) "dropping a commit trips trace-wellformed" true
    (List.mem_assoc "trace-wellformed" (Runner.failures outcome))

let test_inject_swap_rte_fails () =
  (* A contended workload guarantees adjacent conflicting rte pairs for the
     swap to target. *)
  let outcome =
    Runner.run
      {
        base_bad with
        Scenario.n_objects = 20;
        inject = Some (Scenario.Swap_rte 9);
      }
  in
  Alcotest.(check bool) "swapping conflicting rte entries trips the battery"
    true
    (Runner.failures outcome <> [])

(* --- sharded scenarios ---------------------------------------------- *)

let test_sharded_scenario_battery () =
  (* A sharded scenario with a mid-run crash exercises the whole DST path:
     segment-directory journalling, per-lane recovery, the stamp-merged rte
     and the cross-shard equivalence clause. *)
  let s =
    {
      base_bad with
      Scenario.clients = 12;
      shards = 4;
      inject = None;
      faults =
        { Ds_core.Faults.none with Ds_core.Faults.crash_at_cycle = Some 10 };
    }
  in
  let outcome = Runner.run s in
  Alcotest.(check bool) "crashed" true
    (outcome.Runner.stats.Ds_core.Middleware.crashes = 1);
  Alcotest.(check int) "ran sharded" 4
    outcome.Runner.stats.Ds_core.Middleware.shards;
  match Runner.failures outcome with
  | [] -> ()
  | fs ->
    Alcotest.failf "sharded scenario failed the battery: %s"
      (String.concat "; " (List.map (fun (n, d) -> n ^ ": " ^ d) fs))

let test_shrinker_single_shard () =
  (* The injected failure survives dropping to one shard, so the ladder's
     single-shard rung must take it there. *)
  let start = { base_bad with Scenario.shards = 2 } in
  let outcome = Runner.run start in
  let failed = List.map fst (Runner.failures outcome) in
  Alcotest.(check bool) "sharded starting scenario fails" true (failed <> []);
  let r = Shrink.shrink start ~failed in
  Alcotest.(check int) "collapsed to one shard" 1 r.Shrink.shrunk.Scenario.shards

(* --- replicated scenarios ------------------------------------------- *)

(* Partition-then-promote: sync replication over a partitioned link, primary
   killed mid-run. The full battery — including the failover durability
   audit — must hold against the real stack. *)
let repl_partition_scenario =
  {
    base_bad with
    Scenario.duration = 2.0;
    inject = None;
    checkpoint = Some 10;
    faults =
      { Ds_core.Faults.none with Ds_core.Faults.pcrash_at_cycle = Some 25 };
    repl =
      Some
        {
          Scenario.repl_sync = true;
          repl_link =
            {
              Ds_replica.Link.none with
              Ds_replica.Link.drop_rate = 0.02;
              partition_at = Some 0.3;
              partition_for = 0.5;
            };
        };
  }

let test_repl_scenario_battery () =
  let outcome = Runner.run repl_partition_scenario in
  Alcotest.(check int) "failed over" 1
    outcome.Runner.stats.Ds_core.Middleware.failovers;
  Alcotest.(check int) "promoted to epoch 1" 1
    outcome.Runner.stats.Ds_core.Middleware.repl_epoch;
  match Runner.failures outcome with
  | [] -> ()
  | fs ->
    Alcotest.failf "replicated scenario failed the battery: %s"
      (String.concat "; " (List.map (fun (n, d) -> n ^ ": " ^ d) fs))

let test_repl_codec_roundtrip () =
  match Scenario.of_json (Scenario.to_json repl_partition_scenario) with
  | Ok s' ->
    Alcotest.check scenario_eq "repl dimension roundtrips"
      repl_partition_scenario s'
  | Error m -> Alcotest.failf "decode failed: %s" m

let test_shrinker_strips_replication () =
  (* The acceptance demo for the repl rungs: a seeded partition-then-promote
     failure (injected duplicate delivery, so the bug survives every
     transformation) must shrink through drop-pcrash, clean-repl-link and
     drop-repl down to an unreplicated minimal repro. *)
  let start =
    {
      repl_partition_scenario with
      Scenario.seed = 4242;
      inject = Some (Scenario.Dup_delivery 17);
    }
  in
  let outcome = Runner.run start in
  let failed = List.map fst (Runner.failures outcome) in
  Alcotest.(check bool) "replicated starting scenario fails" true (failed <> []);
  let r = Shrink.shrink start ~failed in
  Alcotest.(check bool) "pcrash dropped" true
    (r.Shrink.shrunk.Scenario.faults.Ds_core.Faults.pcrash_at_cycle = None);
  Alcotest.(check bool) "replication dropped" true
    (r.Shrink.shrunk.Scenario.repl = None)

(* --- shrinker ------------------------------------------------------- *)

let test_shrinker_minimizes () =
  (* The acceptance demo: a seeded known-bad scenario (injected duplicate
     delivery) must shrink to a minimal configuration while preserving the
     failure. *)
  let outcome = Runner.run base_bad in
  let failed = List.map fst (Runner.failures outcome) in
  Alcotest.(check bool) "starting scenario fails" true (failed <> []);
  let r = Shrink.shrink base_bad ~failed in
  let s = r.Shrink.shrunk in
  Alcotest.(check bool) "shrunk scenario still fails" true
    (List.exists
       (fun (name, _) -> List.mem name failed)
       (Runner.failures r.Shrink.outcome));
  Alcotest.(check int) "collapsed to one client" 1 s.Scenario.clients;
  Alcotest.(check int) "collapsed to one worker" 1 s.Scenario.workers;
  Alcotest.(check int) "collapsed to one stmt per txn" 1 s.Scenario.stmts_per_txn;
  Alcotest.(check bool) "fault plan emptied" true
    (Ds_core.Faults.is_none s.Scenario.faults);
  Alcotest.(check bool) "duration halved to the floor" true
    (s.Scenario.duration <= 0.5);
  Alcotest.(check bool) "repro is a handful of transactions" true
    (r.Shrink.outcome.Runner.stats.Ds_core.Middleware.committed_txns <= 20);
  Alcotest.(check bool) "search bounded" true (r.Shrink.runs <= 120)

let test_shrinker_rejects_passing_scenario () =
  match Shrink.shrink (Gen.of_seed 42) ~failed:[ "serializability" ] with
  | _ -> Alcotest.fail "shrinking a passing scenario should raise"
  | exception Invalid_argument _ -> ()

(* --- committed minimal repro ---------------------------------------- *)

let repro_path = "data/shrunk_dup_delivery.json"

let repl_repro_path = "data/shrunk_repl_partition.json"

let test_committed_repl_repro_matches () =
  (* The shrinker's output on the seeded partition-then-promote failure is
     committed as a file; shrinking the same start scenario must land on it
     exactly (the search is deterministic), and it must still fail. *)
  let text = In_channel.with_open_text repl_repro_path In_channel.input_all in
  match Scenario.of_json (Ds_obs.Json.of_string text) with
  | Error m -> Alcotest.failf "%s did not decode: %s" repl_repro_path m
  | Ok committed ->
    Alcotest.(check bool) "repro dropped the replication dimension" true
      (committed.Scenario.repl = None
      && committed.Scenario.faults.Ds_core.Faults.pcrash_at_cycle = None);
    Alcotest.(check int) "repro is minimal: one client" 1
      committed.Scenario.clients;
    let start =
      {
        repl_partition_scenario with
        Scenario.seed = 4242;
        inject = Some (Scenario.Dup_delivery 17);
      }
    in
    let outcome = Runner.run start in
    let failed = List.map fst (Runner.failures outcome) in
    let r = Shrink.shrink start ~failed in
    Alcotest.check scenario_eq "shrink reproduces the committed repro"
      committed r.Shrink.shrunk;
    let replayed = Runner.run committed in
    Alcotest.(check (list string))
      "committed repro fails conflict-equivalence and nothing else"
      [ "conflict-equivalence" ]
      (List.map fst (Runner.failures replayed))

let test_committed_repro_still_fails () =
  (* Regression: the shrunk repro emitted by the shrinker (committed as a
     file, same format 'dsched swarm --replay FILE' reads) keeps failing
     exactly the invariant it was minimized for. *)
  let text = In_channel.with_open_text repro_path In_channel.input_all in
  match Scenario.of_json (Ds_obs.Json.of_string text) with
  | Error m -> Alcotest.failf "%s did not decode: %s" repro_path m
  | Ok scenario ->
    Alcotest.(check bool) "repro is minimal: one client" true
      (scenario.Scenario.clients = 1);
    let outcome = Runner.run scenario in
    let failed = List.map fst (Runner.failures outcome) in
    Alcotest.(check (list string))
      "fails conflict-equivalence and nothing else"
      [ "conflict-equivalence" ] failed

(* Shrunk repros of one bug, one per fault mix: a request of a transaction
   the middleware had already aborted (starved while its batch retried,
   stalled or lost a worker) still executed and was recorded as delivered,
   reversing a conflicting pair relative to rte. Every invariant must hold
   on each of them. *)
let aborted_repros =
  [
    "data/aborted_stall_k1.json";
    "data/aborted_stall_poison_disconnect_k1.json";
    "data/aborted_batch_k1.json";
    "data/aborted_worker_faults_k2.json";
  ]

let test_aborted_requests_never_execute () =
  List.iter
    (fun path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      match Scenario.of_json (Ds_obs.Json.of_string text) with
      | Error m -> Alcotest.failf "%s did not decode: %s" path m
      | Ok scenario ->
        Alcotest.(check (list string))
          (path ^ ": no invariant fails")
          []
          (List.map fst (Runner.failures (Runner.run scenario))))
    aborted_repros

(* --- golden report ---------------------------------------------------- *)

(* The report of one small sweep is committed with its stamp removed; `make
   golden` regenerates it. Its scenarios reach every way the middleware
   aborts a transaction (queue shed, starvation, dead letter, disconnect,
   crash), failover, hedging and sharded runs with parked transactions, so
   a change to any decision the middleware makes shows up as a diff of this
   file. A change made on purpose regenerates the file in the same commit. *)
let golden_path = "data/golden_swarm_n30_seed8.json"

let test_golden_report () =
  let open Ds_obs.Json in
  let golden =
    of_string (In_channel.with_open_text golden_path In_channel.input_all)
  in
  let fresh =
    match Swarm.report_json (Swarm.run ~n:30 ~seed:8 ()) with
    | Obj members -> Obj (List.remove_assoc "stamp" members)
    | other -> other
  in
  (* Name the first scenario that differs, then compare the whole report
     in the compact form the CLI writes. *)
  let results j =
    match mem "results" j with Some (List rs) -> rs | _ -> []
  in
  let rg = results golden and rf = results fresh in
  Alcotest.(check int) (golden_path ^ ": results") (List.length rg)
    (List.length rf);
  List.iteri
    (fun i (g, f) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: result %d" golden_path i)
        (to_string g) (to_string f))
    (List.combine rg rf);
  Alcotest.(check string) golden_path (to_string golden) (to_string fresh)

let tests =
  [
    QCheck_alcotest.to_alcotest scenario_roundtrip;
    Alcotest.test_case "inject codec roundtrip" `Quick test_inject_roundtrip;
    Alcotest.test_case "of_json rejects invalid scenarios" `Quick
      test_of_json_rejects_invalid;
    Alcotest.test_case "generator is deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "generator covers the cross-product" `Quick
      test_generator_valid_and_diverse;
    Alcotest.test_case "swarm: all invariants hold" `Slow
      test_swarm_invariants_hold;
    Alcotest.test_case "swarm: report deterministic" `Quick
      test_swarm_report_deterministic;
    Alcotest.test_case "swarm: replay bit-identical" `Quick
      test_replay_bit_identical;
    Alcotest.test_case "aborted transactions' requests never execute" `Quick
      test_aborted_requests_never_execute;
    Alcotest.test_case "inject: duplicate delivery caught" `Quick
      test_inject_dup_delivery_fails;
    Alcotest.test_case "inject: dropped rte entry caught" `Quick
      test_inject_drop_rte_fails;
    Alcotest.test_case "inject: swapped rte entries caught" `Quick
      test_inject_swap_rte_fails;
    Alcotest.test_case "sharded scenario passes the battery" `Quick
      test_sharded_scenario_battery;
    Alcotest.test_case "replicated scenario passes the battery" `Quick
      test_repl_scenario_battery;
    Alcotest.test_case "repl dimension codec roundtrip" `Quick
      test_repl_codec_roundtrip;
    Alcotest.test_case "shrinker strips the replication dimension" `Slow
      test_shrinker_strips_replication;
    Alcotest.test_case "committed repl repro matches the shrinker" `Slow
      test_committed_repl_repro_matches;
    Alcotest.test_case "shrinker collapses shards" `Slow
      test_shrinker_single_shard;
    Alcotest.test_case "shrinker minimizes a known-bad scenario" `Slow
      test_shrinker_minimizes;
    Alcotest.test_case "shrinker rejects a passing scenario" `Quick
      test_shrinker_rejects_passing_scenario;
    Alcotest.test_case "committed shrunk repro still fails" `Quick
      test_committed_repro_still_fails;
    Alcotest.test_case "golden report unchanged" `Quick test_golden_report;
  ]
