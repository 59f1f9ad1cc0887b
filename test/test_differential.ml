(* Differential fuzzing of the scheduler formulations (Ds_check.Differential):
   the SQL and Datalog SS2PL formulations must agree
   with the hand-coded OCaml oracle cycle by cycle, and every produced
   schedule must pass the serializability battery. *)

open Ds_check
open Ds_core

let quick_config =
  {
    Differential.default_config with
    Differential.include_native = false;
  }

(* --- the main acceptance run ------------------------------------------- *)

let test_fuzz_100 () =
  (* 100 deterministic iterations, native 2PL server included: every subject
     formulation agrees with the oracle and every schedule is clean. *)
  let seeds = List.init 100 (fun i -> i + 1) in
  let s = Differential.run ~seeds () in
  if s.Differential.failed <> [] then
    Alcotest.failf "%a" Differential.pp_summary s;
  Alcotest.(check int) "all clean" 100 s.Differential.clean_runs;
  Alcotest.(check bool) "meaningful volume" true
    (s.Differential.total_executed > 1000)

let test_outcome_reproducible () =
  let a = Differential.run_one ~config:quick_config ~seed:3 () in
  let b = Differential.run_one ~config:quick_config ~seed:3 () in
  Alcotest.(check int) "same cycles" a.Differential.cycles b.Differential.cycles;
  Alcotest.(check int) "same executed" a.Differential.executed
    b.Differential.executed;
  Alcotest.(check int) "same commits" a.Differential.committed_txns
    b.Differential.committed_txns

let test_progress_accounting () =
  let o = Differential.run_one ~config:quick_config ~seed:1 () in
  Alcotest.(check bool) "clean" true (Differential.clean o);
  Alcotest.(check bool) "executed something" true (o.Differential.executed > 0);
  Alcotest.(check int) "every txn accounted" quick_config.Differential.n_txns
    (o.Differential.committed_txns + o.Differential.aborted_txns)

(* --- the harness catches wrong protocols -------------------------------- *)

let test_catches_read_committed () =
  (* Self-test: a subject running read-committed (write locks only) must be
     caught — either it diverges from the SS2PL oracle or its schedule fails
     the rigor battery. If the harness passes a weaker protocol across all
     these contended seeds, it cannot be trusted to validate SS2PL. *)
  let subjects = [ ("read-committed", Builtin.read_committed_sql) ] in
  let caught = ref false in
  let seed = ref 1 in
  while (not !caught) && !seed <= 20 do
    let o = Differential.run_one ~config:quick_config ~subjects ~seed:!seed () in
    if not (Differential.clean o) then caught := true;
    incr seed
  done;
  Alcotest.(check bool) "weaker protocol detected" true !caught

let test_catches_reordering () =
  (* A protocol that ignores conflicts entirely (fcfs qualifies everything in
     arrival order) must diverge from the SS2PL oracle on a contended seed. *)
  let subjects = [ ("fcfs", Builtin.fcfs) ] in
  let caught = ref false in
  let seed = ref 1 in
  while (not !caught) && !seed <= 20 do
    let o = Differential.run_one ~config:quick_config ~subjects ~seed:!seed () in
    if not (Differential.clean o) then caught := true;
    incr seed
  done;
  Alcotest.(check bool) "different protocol detected" true !caught

(* --- parallel-vs-sequential oracle -------------------------------------- *)

let test_parallel_oracle_lockstep () =
  (* The lockstep mode replays the oracle's admitted batches through the
     conflict-class worker pool at several widths and demands exact conflict
     equivalence, a clean serializability battery, and identical final table
     state.  All subject formulations (SQL, Datalog) stay in the run, so
     one seed covers 3 protocols x 3 pool widths. *)
  let config =
    { quick_config with Differential.parallel_workers = [ 2; 4; 8 ] }
  in
  List.iter
    (fun seed ->
      let o = Differential.run_one ~config ~seed () in
      if not (Differential.clean o) then
        Alcotest.failf "seed %d: %a" seed
          (Fmt.list Differential.pp_failure)
          o.Differential.failures)
    [ 1; 2; 5; 11; 23 ]

let test_parallel_oracle_is_observation_only () =
  (* Replaying through the pool must not perturb the differential run itself:
     with the mode disabled every outcome field is unchanged. *)
  Alcotest.(check bool) "parallel oracle on by default" true
    (Differential.default_config.Differential.parallel_workers <> []);
  let with_parallel = Differential.run_one ~config:quick_config ~seed:9 () in
  let without =
    Differential.run_one
      ~config:{ quick_config with Differential.parallel_workers = [] }
      ~seed:9 ()
  in
  Alcotest.(check bool) "both clean" true
    (Differential.clean with_parallel && Differential.clean without);
  Alcotest.(check int) "same cycles" with_parallel.Differential.cycles
    without.Differential.cycles;
  Alcotest.(check int) "same executed" with_parallel.Differential.executed
    without.Differential.executed;
  Alcotest.(check int) "same commits" with_parallel.Differential.committed_txns
    without.Differential.committed_txns

(* --- randomized configurations ----------------------------------------- *)

let config_gen =
  QCheck2.Gen.(
    let size = int_range 2 8 in
    pair (pair size (int_range 8 24)) (pair (int_range 1 4) small_int))

let random_config_prop =
  QCheck2.Test.make ~name:"differential clean across random configs" ~count:30
    config_gen
    (fun ((n_txns, n_objects), (per_txn, seed)) ->
      let config =
        {
          quick_config with
          Differential.n_txns;
          n_objects;
          selects_per_txn = per_txn;
          updates_per_txn = per_txn;
        }
      in
      let o = Differential.run_one ~config ~seed:(seed + 1) () in
      Differential.clean o)

let tests =
  [
    Alcotest.test_case "fuzz 100 iterations clean" `Slow test_fuzz_100;
    Alcotest.test_case "outcome reproducible" `Quick test_outcome_reproducible;
    Alcotest.test_case "progress accounting" `Quick test_progress_accounting;
    Alcotest.test_case "catches read-committed" `Quick test_catches_read_committed;
    Alcotest.test_case "catches fcfs" `Quick test_catches_reordering;
    Alcotest.test_case "parallel-vs-sequential lockstep" `Quick
      test_parallel_oracle_lockstep;
    Alcotest.test_case "parallel oracle is observation-only" `Quick
      test_parallel_oracle_is_observation_only;
    QCheck_alcotest.to_alcotest random_config_prop;
  ]
