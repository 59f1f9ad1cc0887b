(* Tests for Ds_check: event normalization, conflict-graph construction,
   the serializability/strictness/rigor/commit-order predicates, and the
   checker run against real Native_sim and Middleware schedules. *)

open Ds_check
open Ds_core
open Ds_model

(* Shorthand event-sequence builders. A schedule is written as a list of
   (ta, op, obj) triples; terminals use obj (-1). *)
let entry ta op obj = { Ds_server.Schedule.ta; op; obj; value = 0 }

let events triples =
  Conflict_graph.events_of_schedule
    (List.map (fun (ta, op, obj) -> entry ta op obj) triples)

let r ta obj = (ta, Op.Read, obj)
let w ta obj = (ta, Op.Write, obj)
let c ta = (ta, Op.Commit, -1)
let a ta = (ta, Op.Abort, -1)

(* --- event normalization ---------------------------------------------- *)

let test_events_of_schedule () =
  let es = events [ r 1 10; w 2 20; c 1 ] in
  Alcotest.(check int) "count" 3 (List.length es);
  let e0 = List.nth es 0 and e2 = List.nth es 2 in
  Alcotest.(check int) "pos 0" 0 e0.Conflict_graph.pos;
  Alcotest.(check int) "ta" 1 e0.Conflict_graph.ta;
  Alcotest.(check (option int)) "data op keeps obj" (Some 10)
    e0.Conflict_graph.obj;
  Alcotest.(check (option int)) "terminal drops obj" None
    e2.Conflict_graph.obj;
  Alcotest.(check int) "positions are sequential" 2 e2.Conflict_graph.pos

let test_events_of_requests () =
  let reqs =
    [
      Request.v 1 1 Op.Write 5;
      Request.v 2 1 Op.Read 5;
      Request.terminal 1 2 Op.Commit;
    ]
  in
  let es = Conflict_graph.events_of_requests reqs in
  Alcotest.(check (list int)) "tas in order" [ 1; 2; 1 ]
    (List.map (fun e -> e.Conflict_graph.ta) es);
  Alcotest.(check (option int)) "obj carried" (Some 5)
    (List.nth es 0).Conflict_graph.obj

let test_committed_projection () =
  (* T2 never commits, T3 aborts: only T1's events survive. *)
  let es = events [ w 1 1; w 2 2; r 3 3; c 1; a 3 ] in
  let committed = Conflict_graph.committed_projection es in
  Alcotest.(check (list int)) "only committed ta" [ 1; 1 ]
    (List.map (fun e -> e.Conflict_graph.ta) committed)

(* --- conflict graph ---------------------------------------------------- *)

let test_edge_kinds () =
  (* r1(x) w2(x): rw.  w1(y) r2(y): wr.  w1(z) w2(z): ww. *)
  let g = Conflict_graph.build (events [ r 1 1; w 2 1; w 1 2; r 2 2; w 1 3; w 2 3 ]) in
  let kinds =
    List.map
      (fun (e : Conflict_graph.edge) ->
        (e.Conflict_graph.obj, Conflict_graph.conflict_to_string e.Conflict_graph.kind))
      (Conflict_graph.edges g)
    |> List.sort compare
  in
  (* All three edges are 1 -> 2; the earliest (smallest dst_pos) conflict per
     (src, dst) pair is the representative, but every kind appears via the
     per-object scan before dedup — here each object gives a distinct pair
     ordering, so dedup keeps the rw edge (earliest dst). *)
  Alcotest.(check int) "two nodes" 2 (List.length (Conflict_graph.nodes g));
  Alcotest.(check (list (pair int string))) "representative edge"
    [ (1, "rw") ] kinds;
  Alcotest.(check (list int)) "successors" [ 2 ] (Conflict_graph.successors g 1)

let test_edge_kinds_distinct_pairs () =
  (* Distinct transaction pairs so each kind survives dedup. *)
  let g =
    Conflict_graph.build
      (events [ r 1 1; w 2 1; w 3 2; r 4 2; w 5 3; w 6 3 ])
  in
  let kinds =
    List.map
      (fun (e : Conflict_graph.edge) ->
        ( e.Conflict_graph.src,
          e.Conflict_graph.dst,
          Conflict_graph.conflict_to_string e.Conflict_graph.kind ))
      (Conflict_graph.edges g)
  in
  Alcotest.(check (list (triple int int string))) "each kind"
    [ (1, 2, "rw"); (3, 4, "wr"); (5, 6, "ww") ]
    kinds

let test_reads_do_not_conflict () =
  let g = Conflict_graph.build (events [ r 1 1; r 2 1; r 3 1 ]) in
  Alcotest.(check int) "no rr edges" 0 (Conflict_graph.edge_count g)

let test_same_txn_no_edge () =
  let g = Conflict_graph.build (events [ w 1 1; r 1 1; w 1 1 ]) in
  Alcotest.(check int) "no self edges" 0 (Conflict_graph.edge_count g)

let test_transitive_ww_edges () =
  (* w1 w2 w3 on one object: all three ordered pairs, including 1 -> 3. *)
  let g = Conflict_graph.build (events [ w 1 9; w 2 9; w 3 9 ]) in
  let pairs =
    List.map
      (fun (e : Conflict_graph.edge) -> (e.Conflict_graph.src, e.Conflict_graph.dst))
      (Conflict_graph.edges g)
  in
  Alcotest.(check (list (pair int int))) "all ordered pairs"
    [ (1, 2); (1, 3); (2, 3) ] pairs

let test_find_cycle () =
  let acyclic = Conflict_graph.build (events [ w 1 1; w 2 1; w 2 2; w 3 2 ]) in
  Alcotest.(check bool) "chain acyclic" true
    (Conflict_graph.find_cycle acyclic = None);
  let cyclic = Conflict_graph.build (events [ w 1 1; w 2 1; w 2 2; w 1 2 ]) in
  match Conflict_graph.find_cycle cyclic with
  | None -> Alcotest.fail "cycle expected"
  | Some cycle ->
    Alcotest.(check (list int)) "witness members" [ 1; 2 ]
      (List.sort Int.compare cycle)

(* --- serializability predicates ---------------------------------------- *)

let violations es = (Serializability.check es).Serializability.violations

let test_serial_clean () =
  let report =
    Serializability.check (events [ w 1 1; r 1 2; c 1; w 2 1; r 2 2; c 2 ])
  in
  Alcotest.(check bool) "clean" true (Serializability.is_clean report);
  Alcotest.(check int) "txns" 2 report.Serializability.txns;
  Alcotest.(check int) "committed" 2 report.Serializability.committed

let test_nonserializable_witness () =
  (* The classic lost-update interleaving: w1(x) w2(x) w2(y) w1(y) c1 c2. *)
  let vs = violations (events [ w 1 1; w 2 1; w 2 2; w 1 2; c 1; c 2 ]) in
  let cycle =
    List.find_map
      (function Serializability.Cycle c -> Some c | _ -> None)
      vs
  in
  match cycle with
  | None -> Alcotest.fail "expected a witness cycle"
  | Some c ->
    Alcotest.(check (list int)) "witness is {1,2}" [ 1; 2 ]
      (List.sort Int.compare c)

let test_strictness_violation () =
  (* T2 reads x while T1's write of x is uncommitted (dirty read). *)
  let vs = Serializability.strict (events [ w 1 1; r 2 1; c 1; c 2 ]) in
  (match vs with
  | [ Serializability.Dirty_access { writer; accessor; obj; _ } ] ->
    Alcotest.(check int) "writer" 1 writer;
    Alcotest.(check int) "accessor" 2 accessor;
    Alcotest.(check int) "object" 1 obj
  | _ -> Alcotest.failf "expected one dirty access, got %d" (List.length vs));
  (* Dirty write (overwrite before commit) is equally non-strict. *)
  Alcotest.(check int) "dirty write flagged" 1
    (List.length (Serializability.strict (events [ w 1 1; w 2 1; c 1; c 2 ])));
  (* Waiting for the commit makes it strict. *)
  Alcotest.(check int) "read after commit ok" 0
    (List.length (Serializability.strict (events [ w 1 1; c 1; r 2 1; c 2 ])))

let test_rigor_violation () =
  (* r1(x) w2(x) c1 c2: strict (no dirty data) but not rigorous — T2
     overwrote x while T1's read lock was live. *)
  let es = events [ r 1 1; w 2 1; c 1; c 2 ] in
  Alcotest.(check int) "strict holds" 0 (List.length (Serializability.strict es));
  (match Serializability.rigorous es with
  | [ Serializability.Unrigorous { reader; writer; obj; _ } ] ->
    Alcotest.(check int) "reader" 1 reader;
    Alcotest.(check int) "writer" 2 writer;
    Alcotest.(check int) "object" 1 obj
  | vs -> Alcotest.failf "expected one rigor violation, got %d" (List.length vs));
  (* The full battery reports exactly that one violation. *)
  Alcotest.(check int) "only violation" 1 (List.length (violations es));
  (* Writing after the reader committed is rigorous. *)
  Alcotest.(check int) "write after reader commit ok" 0
    (List.length (Serializability.rigorous (events [ r 1 1; c 1; w 2 1; c 2 ])))

let test_commit_disorder () =
  (* Conflict edge 1 -> 2 but T2 commits first. *)
  let es = events [ r 1 1; w 2 1; c 2; c 1 ] in
  (match Serializability.commit_ordered es with
  | [ Serializability.Commit_disorder { first; second; obj } ] ->
    Alcotest.(check int) "edge src" 1 first;
    Alcotest.(check int) "edge dst" 2 second;
    Alcotest.(check int) "object" 1 obj
  | vs ->
    Alcotest.failf "expected one commit disorder, got %d" (List.length vs));
  Alcotest.(check int) "ordered commits ok" 0
    (List.length
       (Serializability.commit_ordered (events [ r 1 1; w 2 1; c 1; c 2 ])))

let test_check_committed_ignores_in_flight () =
  (* An rte log that ends mid-transaction: T2's dangling write must not count
     against the committed projection. *)
  let es = events [ w 1 1; c 1; w 2 1 ] in
  let report = Serializability.check_committed es in
  Alcotest.(check bool) "clean" true (Serializability.is_clean report);
  Alcotest.(check int) "only T1 survives" 1 report.Serializability.txns

let test_pp_report_mentions_cycle () =
  let report = Serializability.check (events [ w 1 1; w 2 1; w 2 2; w 1 2 ]) in
  let s = Format.asprintf "%a" Serializability.pp_report report in
  Alcotest.(check bool) "report names the cycle" true
    (Helpers.contains s "cycle")

(* --- real schedules: native server ------------------------------------- *)

let native_cfg ~seed =
  {
    Ds_server.Native_sim.default_config with
    Ds_server.Native_sim.n_clients = 12;
    duration = 0.5;
    seed;
    log_schedule = true;
    spec =
      { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 200 };
  }

(* A tiny, heavily contended shape: 6 clients over 12 objects for 0.3
   virtual seconds, 15 % of transactions ending in an intrinsic abort. *)
let contended_native_cfg ~seed =
  {
    Ds_server.Native_sim.default_config with
    Ds_server.Native_sim.n_clients = 6;
    duration = 0.3;
    seed;
    log_schedule = true;
    spec =
      {
        Ds_workload.Spec.small with
        Ds_workload.Spec.n_objects = 12;
        abort_fraction = 0.15;
      };
  }

let test_native_schedules_clean () =
  (* The native SS2PL server's committed schedule (now including commit
     points) must pass the full battery — serializable, strict, rigorous,
     commit-ordered — across 50 seeds and both workload shapes. *)
  for seed = 1 to 50 do
    List.iter
      (fun (shape, cfg) ->
        let s = Ds_server.Native_sim.run (cfg ~seed) in
        let report =
          Serializability.check
            (Conflict_graph.events_of_schedule s.Ds_server.Native_sim.schedule)
        in
        if not (Serializability.is_clean report) then
          Alcotest.failf "%s seed %d: %a" shape seed
            Serializability.pp_report report)
      [ ("default", native_cfg); ("contended", contended_native_cfg) ]
  done

let test_native_commit_points_logged () =
  let s = Ds_server.Native_sim.run (native_cfg ~seed:7) in
  let commits =
    List.length
      (List.filter
         (fun (e : Ds_server.Schedule.entry) ->
           Op.equal e.Ds_server.Schedule.op Op.Commit)
         s.Ds_server.Native_sim.schedule)
  in
  Alcotest.(check int) "one commit entry per committed txn"
    s.Ds_server.Native_sim.committed_txns commits

(* --- real schedules: declarative middleware ----------------------------- *)

let middleware_cfg ~seed ~protocol =
  {
    Middleware.default_config with
    Middleware.n_clients = 10;
    duration = 2.0;
    seed;
    protocol;
    spec =
      { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 500 };
  }

let check_middleware ~seed ~protocol =
  let stats, sched = Helpers.run_single (middleware_cfg ~seed ~protocol) in
  let report =
    Serializability.check_committed
      (Conflict_graph.events_of_requests
         (Relations.rte_requests (Scheduler.relations sched)))
  in
  if not (Serializability.is_clean report) then
    Alcotest.failf "seed %d under %s: %a" seed protocol.Protocol.name
      Serializability.pp_report report;
  stats

let test_middleware_schedules_clean () =
  (* Full middleware runs: the rte log's committed projection passes the
     battery. The cheap OCaml oracle covers many seeds; the SQL and Datalog
     formulations get spot checks (they are orders of magnitude slower). *)
  let committed = ref 0 in
  for seed = 1 to 50 do
    let stats = check_middleware ~seed ~protocol:Builtin.ss2pl_ocaml in
    committed := !committed + stats.Middleware.committed_txns
  done;
  Alcotest.(check bool) "workload actually commits" true (!committed > 0)

let test_middleware_sql_datalog_clean () =
  List.iter
    (fun protocol ->
      List.iter
        (fun seed -> ignore (check_middleware ~seed ~protocol))
        [ 1; 2 ])
    [ Builtin.ss2pl_sql; Builtin.ss2pl_datalog ]

(* --- randomized: checker vs random interleavings ------------------------ *)

let serial_always_clean_prop =
  (* Random serial schedules (transactions executed back to back): always
     clean, however contended the operations. *)
  QCheck2.Test.make ~name:"serial schedules are always clean" ~count:100
    QCheck2.Gen.(
      pair (int_range 2 6)
        (list_size (int_range 1 5) (pair (int_range 1 8) bool)))
    (fun (n_txns, ops) ->
      let body ta =
        List.map (fun (obj, wr) -> if wr then w ta obj else r ta obj) ops
        @ [ c ta ]
      in
      let es =
        events (List.concat_map body (List.init n_txns (fun i -> i + 1)))
      in
      Serializability.is_clean (Serializability.check es))

let tests =
  [
    Alcotest.test_case "events of schedule" `Quick test_events_of_schedule;
    Alcotest.test_case "events of requests" `Quick test_events_of_requests;
    Alcotest.test_case "committed projection" `Quick test_committed_projection;
    Alcotest.test_case "edge kinds" `Quick test_edge_kinds;
    Alcotest.test_case "edge kinds (distinct pairs)" `Quick
      test_edge_kinds_distinct_pairs;
    Alcotest.test_case "reads do not conflict" `Quick test_reads_do_not_conflict;
    Alcotest.test_case "same txn no edge" `Quick test_same_txn_no_edge;
    Alcotest.test_case "transitive ww edges" `Quick test_transitive_ww_edges;
    Alcotest.test_case "find cycle" `Quick test_find_cycle;
    Alcotest.test_case "serial is clean" `Quick test_serial_clean;
    Alcotest.test_case "non-serializable witness" `Quick
      test_nonserializable_witness;
    Alcotest.test_case "strictness violation" `Quick test_strictness_violation;
    Alcotest.test_case "rigor violation" `Quick test_rigor_violation;
    Alcotest.test_case "commit disorder" `Quick test_commit_disorder;
    Alcotest.test_case "committed projection ignores in-flight" `Quick
      test_check_committed_ignores_in_flight;
    Alcotest.test_case "report mentions cycle" `Quick test_pp_report_mentions_cycle;
    Alcotest.test_case "native schedules clean (50 seeds)" `Slow
      test_native_schedules_clean;
    Alcotest.test_case "native commit points logged" `Quick
      test_native_commit_points_logged;
    Alcotest.test_case "middleware schedules clean (50 seeds)" `Slow
      test_middleware_schedules_clean;
    Alcotest.test_case "middleware sql+datalog clean" `Slow
      test_middleware_sql_datalog_clean;
    QCheck_alcotest.to_alcotest serial_always_clean_prop;
  ]
