(* Self-tests of the formulation comparison behind the swarm's
   formulation-equivalence invariant (Ds_dst.Runner.formulation_diff): a
   protocol that decides differently from SS2PL must be told apart from
   ss2pl-sql, while a true sibling formulation must not. *)

open Ds_dst

(* Contended scenarios: 20 objects under 8 clients give the conflicts on
   which a weaker protocol's decisions diverge. *)
let scenario seed =
  { Test_swarm.base_bad with Scenario.seed; n_objects = 20; inject = None }

let check_caught (p : Ds_core.Protocol.t) =
  List.iter
    (fun seed ->
      let s = scenario seed in
      (match Runner.formulation_diff s Ds_core.Builtin.ss2pl_datalog with
      | Ok () -> ()
      | Error d -> Alcotest.failf "seed %d: sibling reported: %s" seed d);
      match Runner.formulation_diff s p with
      | Error _ -> ()
      | Ok () ->
        Alcotest.failf "seed %d: %s not told apart from ss2pl-sql" seed
          p.Ds_core.Protocol.name)
    [ 1; 2; 3 ]

let test_catches_read_committed () =
  (* read-committed takes write locks only. *)
  check_caught Ds_core.Builtin.read_committed_sql

let test_catches_fcfs () =
  (* fcfs qualifies everything in arrival order: no isolation at all. *)
  check_caught Ds_core.Builtin.fcfs

let tests =
  [
    Alcotest.test_case "catches read-committed" `Quick
      test_catches_read_committed;
    Alcotest.test_case "catches fcfs" `Quick test_catches_fcfs;
  ]
