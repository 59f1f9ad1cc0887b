(* Sharded middleware: routing, the cross-shard barrier, S=1 identity with
   the single-scheduler path, merged-schedule checking and crash recovery
   across journal segments. *)

open Ds_core
open Ds_model

let spec ?(access = Ds_workload.Spec.Uniform) ?(n_objects = 400) () =
  {
    Ds_workload.Spec.small with
    Ds_workload.Spec.n_objects;
    access;
    selects_per_txn = 3;
    updates_per_txn = 3;
  }

let cfg ?(shards = 1) ?(n_clients = 12) ?(duration = 2.) ?spec:(sp = spec ())
    () =
  {
    Middleware.default_config with
    Middleware.n_clients;
    duration;
    spec = sp;
    shards;
    charge_scheduler_time = false;
  }

let keys rs = List.map Request.key rs

(* Delivery-order candidate schedule, resolved against the merged rte the
   same way the swarm runner builds its [merged]. *)
let merged_schedule (h : Middleware.handle) =
  let by_key =
    Hashtbl.create (2 * List.length h.Middleware.merged_rte)
  in
  List.iter
    (fun r -> Hashtbl.replace by_key (Request.key r) r)
    h.Middleware.merged_rte;
  List.filter_map
    (fun key -> Hashtbl.find_opt by_key key)
    h.Middleware.merged_execution_order

let check_clean ?(allow_reorder = false) ~shards (h : Middleware.handle) =
  let report =
    Ds_check.Equivalence.check_sharded ~shards ~shard_of:h.Middleware.shard_of
      ~reference:h.Middleware.merged_rte ~candidate:(merged_schedule h) ()
  in
  let fatal =
    List.filter
      (fun v ->
        match v with
        | Ds_check.Equivalence.Conflict_reordered _ -> not allow_reorder
        | _ -> true)
      report.Ds_check.Equivalence.violations
  in
  if fatal <> [] then
    Alcotest.failf "sharded checker found violations: %a"
      Ds_check.Equivalence.pp_report
      { report with Ds_check.Equivalence.violations = fatal }

let check_serializable rte =
  let report =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_requests rte)
  in
  if not (Ds_check.Serializability.is_clean report) then
    Alcotest.failf "merged rte not serializable: %a"
      Ds_check.Serializability.pp_report report

(* shards=1 must be the single-scheduler middleware, bit for bit: same
   deterministic counters, and the merged rte is exactly the one lane's rte
   sequence. *)
let test_s1_identity () =
  let stats_a = Middleware.run (cfg ()) in
  let stats_b, h = Middleware.run_sharded (cfg ()) in
  let sched = h.Middleware.lane_schedulers.(0) in
  Alcotest.(check int) "committed" stats_a.Middleware.committed_txns
    stats_b.Middleware.committed_txns;
  Alcotest.(check int) "stmts" stats_a.Middleware.committed_stmts
    stats_b.Middleware.committed_stmts;
  Alcotest.(check int) "aborted" stats_a.Middleware.aborted_txns
    stats_b.Middleware.aborted_txns;
  Alcotest.(check int) "cycles" stats_a.Middleware.cycles
    stats_b.Middleware.cycles;
  Alcotest.(check int) "one lane" 1
    (Array.length h.Middleware.lane_schedulers);
  Alcotest.(check int) "no global traffic" 0 stats_b.Middleware.global_lane_txns;
  Alcotest.(check int) "no deferrals" 0 stats_b.Middleware.shard_deferrals;
  let rels = Scheduler.relations sched in
  Alcotest.(check (list (pair int int)))
    "identical rte"
    (keys (Relations.rte_requests rels))
    (keys h.Middleware.merged_rte);
  let _, h' = Middleware.run_sharded (cfg ()) in
  Alcotest.(check (list (pair int int)))
    "identical delivery order" h.Middleware.merged_execution_order
    h'.Middleware.merged_execution_order

(* A perfectly partitioned workload (groups = shards, no escapes) routes
   every transaction to its home shard lane; the global lane stays idle. *)
let test_partitioned_routing () =
  let sp = spec ~access:(Ds_workload.Spec.Partitioned (4, 0.)) () in
  let stats, h = Middleware.run_sharded (cfg ~shards:4 ~spec:sp ()) in
  Alcotest.(check bool) "commits happen" true
    (stats.Middleware.committed_txns > 0);
  Alcotest.(check int) "global lane idle" 0 stats.Middleware.global_lane_txns;
  (* every executed request's transaction was routed to a shard lane owning
     exactly its objects' group *)
  List.iter
    (fun (r : Request.t) ->
      match (h.Middleware.shard_of r.Request.ta, r.Request.obj) with
      | Some lane, Some o ->
        if lane >= 4 then Alcotest.failf "ta %d escalated needlessly" r.Request.ta;
        Alcotest.(check int)
          (Printf.sprintf "object %d in lane %d's group" o lane)
          lane (o mod 4)
      | Some _, None -> ()
      | None, _ -> Alcotest.failf "ta %d never routed" r.Request.ta)
    h.Middleware.merged_rte;
  (* the per-lane rte logs cover 4 distinct shard lanes *)
  let lanes_used =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Request.t) -> h.Middleware.shard_of r.Request.ta)
         h.Middleware.merged_rte)
  in
  Alcotest.(check (list int)) "all shard lanes used" [ 0; 1; 2; 3 ] lanes_used;
  check_clean ~shards:4 h;
  check_serializable h.Middleware.merged_rte

(* Mixed traffic: escapes force some transactions onto the global lane, and
   the drain barrier must still yield one serializable merged schedule. *)
let test_mixed_traffic_barrier () =
  let sp = spec ~access:(Ds_workload.Spec.Partitioned (2, 0.3)) () in
  let stats, h = Middleware.run_sharded (cfg ~shards:2 ~spec:sp ()) in
  Alcotest.(check bool) "commits happen" true
    (stats.Middleware.committed_txns > 0);
  Alcotest.(check bool) "global lane used" true
    (stats.Middleware.global_lane_txns > 0);
  let shard_routed =
    List.exists
      (fun (r : Request.t) ->
        match h.Middleware.shard_of r.Request.ta with
        | Some l -> l < 2
        | None -> false)
      h.Middleware.merged_rte
  in
  Alcotest.(check bool) "shard lanes used too" true shard_routed;
  check_clean ~shards:2 h;
  check_serializable h.Middleware.merged_rte

(* Uniform access over many objects makes nearly every transaction span both
   groups: the global lane carries the run and still checks out. *)
let test_global_heavy () =
  let stats, h = Middleware.run_sharded (cfg ~shards:2 ()) in
  Alcotest.(check bool) "commits happen" true
    (stats.Middleware.committed_txns > 0);
  Alcotest.(check bool) "mostly global" true
    (stats.Middleware.global_lane_txns > 0);
  check_clean ~shards:2 h;
  check_serializable h.Middleware.merged_rte

let test_sharded_determinism () =
  let sp = spec ~access:(Ds_workload.Spec.Partitioned (2, 0.3)) () in
  let a, ha = Middleware.run_sharded (cfg ~shards:2 ~spec:sp ()) in
  let b, hb = Middleware.run_sharded (cfg ~shards:2 ~spec:sp ()) in
  Alcotest.(check int) "same commits" a.Middleware.committed_txns
    b.Middleware.committed_txns;
  Alcotest.(check int) "same global traffic" a.Middleware.global_lane_txns
    b.Middleware.global_lane_txns;
  Alcotest.(check (list (pair int int)))
    "same merged rte"
    (keys ha.Middleware.merged_rte)
    (keys hb.Middleware.merged_rte)

(* (ta, lane, virtual time) of every [shard_route] event. *)
let shard_routes trace =
  List.filter_map
    (fun (e : Ds_obs.Trace.event) ->
      if e.Ds_obs.Trace.kind = Ds_obs.Trace.Shard_route then
        Some (e.Ds_obs.Trace.ta, e.Ds_obs.Trace.arg, e.Ds_obs.Trace.at)
      else None)
    (Ds_obs.Trace.events trace)

(* Routing is recorded once, in the trace: one [shard_route] event per
   transaction the router saw (TAs are drawn 1, 2, ... and every one is
   routed), naming the lane the run's [shard_of] view reports. *)
let test_shard_route_traced () =
  let sp = spec ~access:(Ds_workload.Spec.Partitioned (2, 0.3)) () in
  let trace = Ds_obs.Trace.create () in
  let s, h =
    Middleware.run_sharded
      { (cfg ~shards:2 ~spec:sp ()) with Middleware.trace = Some trace }
  in
  let routes = List.map (fun (ta, lane, _) -> (ta, lane)) (shard_routes trace) in
  let n = List.length routes in
  Alcotest.(check bool) "transactions routed" true (n > 0);
  Alcotest.(check (list int)) "one event per transaction"
    (List.init n (fun i -> i + 1))
    (List.sort compare (List.map fst routes));
  Alcotest.(check (option int)) "no transaction routed untraced" None
    (h.Middleware.shard_of (n + 1));
  List.iter
    (fun (ta, lane) ->
      Alcotest.(check (option int))
        (Printf.sprintf "T%d routed to its lane" ta)
        (Some lane) (h.Middleware.shard_of ta))
    routes;
  Alcotest.(check int) "global-lane routes = global_lane_txns"
    s.Middleware.global_lane_txns
    (List.length (List.filter (fun (_, lane) -> lane = 2) routes))

(* A new shard-lane transaction that finds the global lane busy parks once
   and waits until the global lane drains. So parks stay within a small
   multiple of the shard-lane transactions, where polling every virtual
   millisecond made hundreds per transaction. *)
let test_parks_bounded () =
  let sp = spec ~access:(Ds_workload.Spec.Partitioned (2, 0.3)) () in
  let trace = Ds_obs.Trace.create () in
  let s, _ =
    Middleware.run_sharded
      { (cfg ~shards:2 ~spec:sp ()) with Middleware.trace = Some trace }
  in
  let shard_txns =
    List.length (List.filter (fun (_, lane, _) -> lane < 2) (shard_routes trace))
  in
  Alcotest.(check bool) "shard-lane transactions parked" true
    (s.Middleware.shard_deferrals > 0);
  if s.Middleware.shard_deferrals > 2 * shard_txns then
    Alcotest.failf "%d parks for %d shard-lane transactions"
      s.Middleware.shard_deferrals shard_txns

(* Crash mid-run with S=2: every lane's journal segment recovers, the
   admission clock survives, and the whole run still checks out (set-level;
   conflicting pairs may legitimately reorder across the crash). The crash
   lands while shard-lane transactions are parked behind the global lane;
   recovery must release them, and they commit afterwards. *)
let test_sharded_crash_recovery () =
  let sp = spec ~access:(Ds_workload.Spec.Partitioned (2, 0.3)) () in
  let trace = Ds_obs.Trace.create () in
  (* Every lane prepares its protocol at start-up and again when recovery
     rebuilds it, so the last preparation marks the crash instant. *)
  let prepared_at = ref [] in
  let base = Middleware.default_config.Middleware.protocol in
  let protocol =
    {
      base with
      Protocol.prepare =
        (fun rels ->
          prepared_at := Ds_obs.Trace.now trace :: !prepared_at;
          base.Protocol.prepare rels);
    }
  in
  let config =
    {
      (cfg ~shards:2 ~duration:3. ~spec:sp ()) with
      Middleware.faults =
        { Ds_core.Faults.none with Ds_core.Faults.crash_at_cycle = Some 8 };
      protocol;
      trace = Some trace;
    }
  in
  let stats, h = Middleware.run_sharded config in
  Alcotest.(check int) "crashed once" 1 stats.Middleware.crashes;
  Alcotest.(check int) "three lanes prepared twice" 6 (List.length !prepared_at);
  let crash_at = List.hd !prepared_at in
  let events = Ds_obs.Trace.events trace in
  let first_enqueue = Hashtbl.create 64 in
  let committed = Hashtbl.create 64 in
  List.iter
    (fun (e : Ds_obs.Trace.event) ->
      match e.Ds_obs.Trace.kind with
      | Ds_obs.Trace.Enqueued ->
        if not (Hashtbl.mem first_enqueue e.Ds_obs.Trace.ta) then
          Hashtbl.replace first_enqueue e.Ds_obs.Trace.ta e.Ds_obs.Trace.at
      | Ds_obs.Trace.Commit ->
        Hashtbl.replace committed e.Ds_obs.Trace.ta e.Ds_obs.Trace.at
      | _ -> ())
    events;
  (* routed before the crash, first statement submitted after it *)
  let parked_across =
    List.filter_map
      (fun (ta, lane, at) ->
        match Hashtbl.find_opt first_enqueue ta with
        | Some e when lane < 2 && at < crash_at && e > crash_at -> Some ta
        | _ -> None)
      (shard_routes trace)
  in
  Alcotest.(check bool) "clients parked across the crash" true
    (parked_across <> []);
  Alcotest.(check bool) "parked clients commit after recovery" true
    (List.exists (fun ta -> Hashtbl.mem committed ta) parked_across);
  Alcotest.(check bool) "commits after recovery" true
    (Hashtbl.fold (fun _ at acc -> acc || at > crash_at) committed false);
  Alcotest.(check bool) "replayed journal lines" true
    (stats.Middleware.recovery_replayed > 0);
  check_clean ~allow_reorder:true ~shards:2 h;
  (* stamps stay strictly increasing across the crash: the merged rte has no
     duplicate keys *)
  let ks = keys h.Middleware.merged_rte in
  Alcotest.(check int) "no duplicate executions"
    (List.length (List.sort_uniq compare ks))
    (List.length ks)

(* Sharded runs with a journal write a segment directory; recovering it
   merges the per-lane histories back into one stamped order. *)
let test_segment_dir_layout () =
  let dir = Ds_core.Journal.temp_path ~shards:2 "dsched_test" in
  Fun.protect
    ~finally:(fun () -> Ds_core.Journal.remove dir)
    (fun () ->
      let sp = spec ~access:(Ds_workload.Spec.Partitioned (2, 0.3)) () in
      let config =
        { (cfg ~shards:2 ~spec:sp ()) with Middleware.journal_path = Some dir }
      in
      let _, h = Middleware.run_sharded config in
      Alcotest.(check bool) "segment directory written" true
        (Sys.is_directory dir);
      Alcotest.(check int) "segments per lane" 3
        (List.length (fst (Ds_core.Journal.recover_segments dir)));
      let recovered = Ds_core.Journal.recover dir in
      (* the merged history replays in stamp order: its data rows are exactly
         the merged rte's prefix set (rte = executed; history may hold
         admitted-but-unexecuted tails) *)
      let hist_keys =
        List.sort_uniq compare
          (List.filter_map
             (fun ((r : Request.t), _) ->
               if Request.is_abort_marker r then None else Some (Request.key r))
             recovered.Ds_core.Journal.history_stamped)
      in
      List.iter
        (fun (r : Request.t) ->
          if not (List.mem (Request.key r) hist_keys) then
            Alcotest.failf "executed request %s missing from merged recovery"
              (Request.to_string r))
        h.Middleware.merged_rte;
      (* stamped entries arrive in non-decreasing stamp order *)
      let stamps =
        List.filter_map snd recovered.Ds_core.Journal.history_stamped
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "merged history in stamp order" true (sorted stamps))

let tests =
  [
    Alcotest.test_case "S=1 identical to the unsharded run" `Quick
      test_s1_identity;
    Alcotest.test_case "partitioned workload routes by group" `Quick
      test_partitioned_routing;
    Alcotest.test_case "mixed traffic crosses the barrier" `Quick
      test_mixed_traffic_barrier;
    Alcotest.test_case "global-heavy traffic stays serializable" `Quick
      test_global_heavy;
    Alcotest.test_case "sharded runs are deterministic" `Quick
      test_sharded_determinism;
    Alcotest.test_case "shard_route traced per transaction" `Quick
      test_shard_route_traced;
    Alcotest.test_case "shard-lane parks bounded by transactions" `Quick
      test_parks_bounded;
    Alcotest.test_case "crash recovery across segments" `Quick
      test_sharded_crash_recovery;
    Alcotest.test_case "journal segment directory" `Quick
      test_segment_dir_layout;
  ]
