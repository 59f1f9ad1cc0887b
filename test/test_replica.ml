(* Hot-standby replication (lib/replica): seeded link-fault determinism,
   partition hold/release semantics, the journal-streaming session protocol
   (watermark convergence, divergence detection), epoch-fenced failover both
   mid-run (pcrash) and offline (dsched failover), and the failover
   durability checker. *)

open Ds_core
open Ds_replica

let small_spec =
  { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = 2000 }

let cfg ?(n_clients = 12) ?(duration = 3.) ?(faults = Faults.none)
    ~journal_path () =
  {
    Middleware.default_config with
    Middleware.n_clients;
    duration;
    spec = small_spec;
    charge_scheduler_time = false;
    faults;
    journal_path = Some journal_path;
    checkpoint_interval = Some 10;
  }

let temp_name suffix =
  let p = Filename.temp_file "ds_replica_test" suffix in
  Sys.remove p;
  p

let rm_f p = try Sys.remove p with Sys_error _ -> ()

let with_session_run ?faults ~mode ~plan f =
  let journal = temp_name ".journal" in
  let dir = temp_name ".repl.d" in
  let cleanup () =
    rm_f journal;
    rm_f (Session.standby_path_of dir);
    rm_f (Filename.concat dir "REPL");
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let session = Session.create ~mode ~plan ~seed:7 ~dir () in
      let config =
        {
          (cfg ?faults ~journal_path:journal ()) with
          Middleware.repl = Some (Session.hooks session);
        }
      in
      let stats = Middleware.run config in
      Session.close session;
      f ~stats ~session ~dir ~journal)

(* --- link ----------------------------------------------------------------- *)

let lossy =
  {
    Link.none with
    Link.drop_rate = 0.2;
    dup_rate = 0.1;
    reorder_rate = 0.2;
    delay_rate = 0.1;
    spike_delay = 0.05;
  }

let drain link ~until =
  let out = ref [] in
  let t = ref 0.0 in
  while !t <= until do
    out := !out @ Link.deliver link ~now:!t;
    t := !t +. 0.005
  done;
  !out

let test_link_deterministic () =
  let run () =
    let link = Link.create lossy (Ds_sim.Rng.create 42) in
    for lsn = 1 to 200 do
      Link.send link
        ~now:(float_of_int lsn *. 0.01)
        ~epoch:0 ~lsn
        ~payload:(Printf.sprintf "r%d" lsn)
    done;
    List.map
      (fun m -> (m.Link.m_lsn, m.Link.m_payload))
      (drain link ~until:10.)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "delivered something" true (a <> []);
  Alcotest.(check bool) "same seed, same faulty delivery sequence" true (a = b)

let test_link_partition_holds () =
  let plan =
    { Link.none with Link.partition_at = Some 1.0; partition_for = 1.0 }
  in
  let link = Link.create plan (Ds_sim.Rng.create 5) in
  Link.send link ~now:1.2 ~epoch:0 ~lsn:1 ~payload:"held";
  Alcotest.(check bool) "link is down mid-partition" true (Link.down link ~now:1.5);
  Alcotest.(check (list int)) "nothing delivered while partitioned" []
    (List.map (fun m -> m.Link.m_lsn) (Link.deliver link ~now:1.9));
  Alcotest.(check bool) "held copies counted" true (Link.held link > 0);
  Alcotest.(check (list int)) "released after the heal" [ 1 ]
    (List.map (fun m -> m.Link.m_lsn) (Link.deliver link ~now:2.5))

(* Every key [plan_to_string] writes parses back to the same plan, so a
   swarm scenario or replay file carries the whole link plan; the latency
   floor is fixed and is not a key. *)
let test_link_spec_roundtrip () =
  let spec =
    "drop=0.1,dup=0.05,reorder=0.2,delay=0.1,spike=0.03,partition=1.5,\
     partition-dur=0.25,flap=0.4,flap-down=0.02"
  in
  let plan =
    match Link.plan_of_string spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "spec rejected: %s" e
  in
  Alcotest.(check string) "spec round-trips" spec (Link.plan_to_string plan);
  Alcotest.(check bool) "printed plan parses back to itself" true
    (Link.plan_of_string (Link.plan_to_string plan) = Ok plan);
  Alcotest.(check bool) "the latency floor is not a key" true
    (Result.is_error (Link.plan_of_string "base=0.01"))

(* --- session -------------------------------------------------------------- *)

let read_file p = In_channel.with_open_bin p In_channel.input_all

(* Only the log travels: a standby at zero lag has written every checkpoint
   block itself, byte for byte the primary's, and the session's LSNs count
   exactly the records that are not checkpoint entries or C END. *)
let check_standby_copy ~session ~journal =
  let primary = read_file journal in
  Alcotest.(check bool) "standby file equals the primary's" true
    (String.equal primary (read_file (Session.standby_path session)));
  let payloads =
    String.split_on_char '\n' primary
    |> List.filter_map (fun l ->
           if String.length l > 10 then Some (String.sub l 10 (String.length l - 10))
           else None)
  in
  let starts p = List.exists (fun x -> String.starts_with ~prefix:p x) payloads in
  Alcotest.(check bool) "a checkpoint block was written" true
    (starts "C BEGIN " && starts "c " && starts "C END ");
  let local p =
    String.starts_with ~prefix:"c " p || String.starts_with ~prefix:"C END " p
  in
  Alcotest.(check int) "LSNs count the streamed records"
    (List.length (List.filter (fun p -> not (local p)) payloads))
    (Session.primary_lsn session)

let test_session_converges () =
  with_session_run ~mode:Session.Async ~plan:lossy
    (fun ~stats ~session ~dir:_ ~journal ->
      Alcotest.(check bool) "work committed" true
        (stats.Middleware.committed_txns > 0);
      Alcotest.(check bool) "journal streamed" true
        (Session.primary_lsn session > 0);
      (* The post-run settle loop retransmits everything a lossy (but never
         partitioned) link dropped: the mirror must be fully caught up. *)
      Alcotest.(check int) "zero lag at close" 0 (Session.lag session);
      Alcotest.(check int) "watermark reached the head"
        (Session.primary_lsn session)
        (Session.watermark session);
      Alcotest.(check bool) "losses actually exercised retransmission" true
        (Session.retransmits session > 0);
      Alcotest.(check bool) "checkpoint hashes compared" true
        (Session.hash_checks session > 0);
      Alcotest.(check int) "no divergence" 0 (Session.divergences session);
      Alcotest.(check int) "never promoted" 0 stats.Middleware.failovers;
      (* The standby mirror is a valid journal in its own right. *)
      let r = Journal.recover (Session.standby_path session) in
      Alcotest.(check int) "standby replays clean" 0
        r.Journal.corrupt_dropped;
      Alcotest.(check int) "standby still at epoch 0" 0 r.Journal.epoch;
      check_standby_copy ~session ~journal)

let test_session_sync_converges () =
  with_session_run ~mode:Session.Sync ~plan:lossy
    (fun ~stats ~session ~dir:_ ~journal ->
      Alcotest.(check bool) "work committed" true
        (stats.Middleware.committed_txns > 0);
      Alcotest.(check int) "zero lag at close" 0 (Session.lag session);
      Alcotest.(check bool) "losses actually exercised retransmission" true
        (Session.retransmits session > 0);
      (* Selective retransmission: only records the standby lacks are
         resent, so retransmits track the link's drops, not the records
         outstanding at each RTO. *)
      let dropped = Link.dropped (Session.link session) in
      if Session.retransmits session > 2 * dropped then
        Alcotest.failf "%d retransmits for %d drops (more than 2x)"
          (Session.retransmits session) dropped;
      Alcotest.(check bool) "checkpoint hashes compared" true
        (Session.hash_checks session > 0);
      Alcotest.(check int) "no divergence" 0 (Session.divergences session);
      check_standby_copy ~session ~journal)

let test_session_pcrash_fails_over () =
  with_session_run ~mode:Session.Async ~plan:lossy
    ~faults:{ Faults.none with Faults.pcrash_at_cycle = Some 8 }
    (fun ~stats ~session ~dir:_ ~journal:_ ->
      Alcotest.(check int) "exactly one failover" 1 stats.Middleware.failovers;
      Alcotest.(check int) "promoted to epoch 1" 1 stats.Middleware.repl_epoch;
      Alcotest.(check bool) "session knows it was promoted" true
        (Session.promoted session);
      Alcotest.(check bool) "the promoted run kept committing" true
        (stats.Middleware.committed_txns > 0);
      Alcotest.(check int) "no divergence across the promotion" 0
        stats.Middleware.repl_divergences;
      (* The promoted standby journal carries the new epoch durably. *)
      let r = Journal.recover (Session.standby_path session) in
      Alcotest.(check int) "epoch stamped in the journal" 1 r.Journal.epoch)

let test_offline_promotion_monotonic_epoch () =
  with_session_run ~mode:Session.Sync ~plan:Link.none
    (fun ~stats:_ ~session:_ ~dir ~journal:_ ->
      Alcotest.(check bool) "session dir is recognizable" true
        (Session.is_repl_dir dir);
      Alcotest.(check bool) "manifest records the mode" true
        (Session.mode_of_dir dir = Session.Sync);
      let first = Failover.promote dir in
      Alcotest.(check int) "first offline promotion is epoch 1" 1
        first.Failover.epoch;
      Alcotest.(check bool) "promoted state holds the mirrored history" true
        (first.Failover.recovered.Journal.replayed > 0);
      (* A second promotion (say the first new primary also died) must fence
         the previous epoch behind a strictly larger one. *)
      let second = Failover.promote dir in
      Alcotest.(check int) "epochs are monotonic" 2 second.Failover.epoch)

(* --- failover durability checker ----------------------------------------- *)

let test_check_failover_classification () =
  let acked = [ (1, 5); (2, 8); (3, 15) ] in
  let survived ta = ta = 1 in
  let r =
    Ds_check.Equivalence.check_failover ~sync:false ~watermark:10 ~acked
      ~survived ()
  in
  Alcotest.(check int) "acked counted" 3 r.Ds_check.Equivalence.acked;
  Alcotest.(check int) "survivors counted" 1
    r.Ds_check.Equivalence.survived_acked;
  Alcotest.(check (list (pair int int)))
    "loss at/below the watermark is isolated"
    [ (2, 8) ]
    r.Ds_check.Equivalence.lost_below_watermark;
  Alcotest.(check (list (pair int int)))
    "loss above the watermark is isolated"
    [ (3, 15) ]
    r.Ds_check.Equivalence.lost_above_watermark;
  (* Below-watermark loss is a bug in either mode. *)
  Alcotest.(check bool) "below-watermark loss always fails" false
    (Ds_check.Equivalence.failover_ok r)

let test_check_failover_async_window () =
  (* Loss strictly above the watermark: async's documented window, a sync
     violation. *)
  let acked = [ (1, 5); (3, 15) ] in
  let survived ta = ta = 1 in
  let async =
    Ds_check.Equivalence.check_failover ~sync:false ~watermark:10 ~acked
      ~survived ()
  in
  Alcotest.(check bool) "async tolerates above-watermark loss" true
    (Ds_check.Equivalence.failover_ok async);
  let sync =
    Ds_check.Equivalence.check_failover ~sync:true ~watermark:10 ~acked
      ~survived ()
  in
  Alcotest.(check bool) "sync refuses any acked loss" false
    (Ds_check.Equivalence.failover_ok sync);
  let clean =
    Ds_check.Equivalence.check_failover ~sync:true ~watermark:10
      ~acked:[ (1, 5); (2, 8) ]
      ~survived:(fun _ -> true)
      ()
  in
  Alcotest.(check bool) "full survival passes sync" true
    (Ds_check.Equivalence.failover_ok clean)

(* --- durability across a failover, end to end ----------------------------- *)

(* A middleware run killed by a permanent primary crash at cycle 150 and
   failed over to its hot standby, on a link whose partition opens at 0.9 s
   for 0.8 s: transactions admitted during the outage and acked before the
   crash (~1.5 s) are unreplicated when the primary dies. Returns the
   durability report over every commit a client saw before the failover,
   and the records the promoted standby fenced by stale epoch. *)
let failover_point mode =
  let plan =
    {
      Link.none with
      Link.drop_rate = 0.02;
      partition_at = Some 0.9;
      partition_for = 0.8;
    }
  in
  let journal = temp_name ".journal" in
  let dir = temp_name ".repl.d" in
  Fun.protect
    ~finally:(fun () ->
      rm_f journal;
      rm_f (Session.standby_path_of dir);
      rm_f (Filename.concat dir "REPL");
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let trace = Ds_obs.Trace.create () in
      let session = Session.create ~mode ~plan ~seed:42 ~trace ~dir () in
      let stats =
        Middleware.run
          {
            (cfg ~n_clients:30 ~duration:2.
               ~faults:{ Faults.none with Faults.pcrash_at_cycle = Some 150 }
               ~journal_path:journal ())
            with
            Middleware.spec =
              { small_spec with Ds_workload.Spec.n_objects = 20_000 };
            protocol = Builtin.ss2pl_ocaml;
            trigger = Trigger.Hybrid (0.01, 50);
            repl = Some (Session.hooks session);
            trace = Some trace;
          }
      in
      Session.close session;
      Alcotest.(check int) "exactly one failover" 1 stats.Middleware.failovers;
      ( Ds_dst.Runner.failover_report session
          ~trace_events:(Ds_obs.Trace.events trace),
        Session.fenced session ))

let test_failover_durability () =
  let sync, sync_fenced = failover_point Session.Sync in
  let async, async_fenced = failover_point Session.Async in
  let lost r =
    List.length r.Ds_check.Equivalence.lost_below_watermark
    + List.length r.Ds_check.Equivalence.lost_above_watermark
  in
  Alcotest.(check bool) "acked commits checked" true
    (sync.Ds_check.Equivalence.acked > 0 && async.Ds_check.Equivalence.acked > 0);
  Alcotest.(check int) "sync loses no acknowledged commit" 0 (lost sync);
  Alcotest.(check bool) "async loses commits in the lag window" true
    (async.Ds_check.Equivalence.lost_above_watermark <> []);
  Alcotest.(check int) "async loses nothing at or below the watermark" 0
    (List.length async.Ds_check.Equivalence.lost_below_watermark);
  Alcotest.(check bool) "a stale-epoch record is fenced" true
    (sync_fenced + async_fenced > 0)

let tests =
  [
    Alcotest.test_case "link: seeded faults are deterministic" `Quick
      test_link_deterministic;
    Alcotest.test_case "link: partition holds then releases" `Quick
      test_link_partition_holds;
    Alcotest.test_case "link: fault spec round-trips" `Quick
      test_link_spec_roundtrip;
    Alcotest.test_case "session: lossy link converges to zero lag" `Quick
      test_session_converges;
    Alcotest.test_case "session: pcrash promotes under a fresh epoch" `Quick
      test_session_pcrash_fails_over;
    Alcotest.test_case "failover: offline promotion, monotonic epochs" `Quick
      test_offline_promotion_monotonic_epoch;
    Alcotest.test_case "check_failover: watermark classification" `Quick
      test_check_failover_classification;
    Alcotest.test_case "check_failover: async window vs sync zero-loss" `Quick
      test_check_failover_async_window;
    Alcotest.test_case "session: sync lossy link, standby copies byte for byte"
      `Quick test_session_sync_converges;
    Alcotest.test_case "failover: sync loses nothing, async only its lag"
      `Quick test_failover_durability;
  ]
