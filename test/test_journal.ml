(* Write-ahead journal and crash recovery. *)

open Ds_core
open Ds_model

let with_journal_file f =
  let path = Filename.temp_file "ds_journal" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let sorted_pending rels =
  Helpers.sorted_keys (List.map Request.key (Relations.pending rels))

let test_roundtrip () =
  with_journal_file (fun path ->
      let journal = Journal.open_ path in
      let sched = Scheduler.create ~journal Builtin.ss2pl_sql in
      (* Two conflicting writers plus an independent read. *)
      List.iter (Scheduler.submit sched)
        [
          Request.v 1 1 Op.Write 5;
          Request.v 2 1 Op.Write 5;
          Request.v 3 1 Op.Read 9;
        ];
      ignore (Scheduler.cycle sched);
      (* T2 still pending; abort T1 to release its lock, then crash. *)
      ignore (Scheduler.abort_txn sched 1);
      Journal.close journal;
      let recovered = Journal.recover path in
      Alcotest.(check int) "one request still pending" 1
        (List.length recovered.Journal.pending);
      Alcotest.(check (list int)) "abort recorded" [ 1 ] recovered.Journal.aborted;
      Alcotest.(check bool) "replayed something" true
        (recovered.Journal.replayed >= 5);
      (* Restore into a fresh scheduler: same pending set, and the next SS2PL
         cycle makes the same decision the live scheduler would (T2 unblocked
         because T1 aborted). *)
      let fresh = Scheduler.create Builtin.ss2pl_sql in
      Journal.restore recovered (Scheduler.relations fresh);
      Alcotest.(check (list (pair int int))) "pending restored" [ (2, 1) ]
        (sorted_pending (Scheduler.relations fresh));
      let q, _ = Scheduler.cycle fresh in
      Alcotest.(check (list (pair int int))) "t2 qualifies after recovery"
        [ (2, 1) ]
        (List.map Request.key q))

let test_torn_tail_tolerated () =
  with_journal_file (fun path ->
      let journal = Journal.open_ path in
      let sched = Scheduler.create ~journal Builtin.ss2pl_sql in
      Scheduler.submit sched (Request.v 1 1 Op.Read 5);
      ignore (Scheduler.cycle sched);
      Journal.close journal;
      (* Simulate a crash mid-write. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "S 99,99,1,r";
      close_out oc;
      let recovered = Journal.recover path in
      Alcotest.(check int) "torn line ignored" 0
        (List.length recovered.Journal.pending);
      Alcotest.(check int) "history intact" 1
        (List.length recovered.Journal.history))

let test_mid_file_corruption_rejected () =
  with_journal_file (fun path ->
      let oc = open_out path in
      output_string oc "S 1,1,1,r,5,standard,0.0\nGARBAGE LINE\nQ 1 1\n";
      close_out oc;
      match Journal.recover path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "corruption in the middle must be rejected")

let test_unknown_qualified_rejected () =
  with_journal_file (fun path ->
      let oc = open_out path in
      output_string oc "Q 7 1\nS 1,1,1,r,5,standard,0.0\n";
      close_out oc;
      match Journal.recover path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "Q without S must be rejected")

let test_sync_kill_points () =
  (* The durability contract of [open_ ~sync:true]: after a cycle's flush
     returns, a kill at ANY later byte offset must recover that cycle's
     history.  Drive a scheduler, record the durable size and the qualified
     history after every cycle, then for each recorded boundary truncate a
     copy of the journal at the boundary itself and a few bytes past it
     (a torn next line) and recover. *)
  with_journal_file (fun path ->
      let journal = Journal.open_ ~sync:true path in
      let sched = Scheduler.create ~journal Builtin.ss2pl_sql in
      let rng = Ds_sim.Rng.create 11 in
      let reqs =
        Helpers.random_requests rng ~n_txns:8 ~ops_per_txn:3 ~n_objects:5
      in
      let checkpoints = ref [] in
      List.iteri
        (fun i r ->
          Scheduler.submit sched r;
          if i mod 4 = 3 then begin
            ignore (Scheduler.cycle sched);
            let hist =
              List.map Request.key (Journal.recover path).Journal.history
            in
            checkpoints := (Journal.size journal, hist) :: !checkpoints
          end)
        reqs;
      Journal.close journal;
      let full_size = (Unix.stat path).Unix.st_size in
      Alcotest.(check bool) "several checkpoints" true
        (List.length !checkpoints >= 3);
      let copy = Filename.temp_file "ds_journal" ".kill" in
      Fun.protect
        ~finally:(fun () -> Sys.remove copy)
        (fun () ->
          List.iter
            (fun (boundary, hist) ->
              List.iter
                (fun kill ->
                  let kill = min kill full_size in
                  let contents =
                    In_channel.with_open_bin path In_channel.input_all
                  in
                  Out_channel.with_open_bin copy (fun oc ->
                      Out_channel.output_string oc
                        (String.sub contents 0 kill));
                  let recovered = Journal.recover copy in
                  let got =
                    List.map Request.key recovered.Journal.history
                  in
                  (* the synced cycle's history is a prefix of whatever the
                     kill point preserved *)
                  let rec is_prefix xs ys =
                    match (xs, ys) with
                    | [], _ -> true
                    | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
                    | _ :: _, [] -> false
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "kill at byte %d keeps the cycle synced at %d" kill
                       boundary)
                    true (is_prefix hist got))
                [ boundary; boundary + 1; boundary + 7 ])
            !checkpoints))

let journal_matches_live_state =
  QCheck2.Test.make ~name:"recovered pending = live pending" ~count:40
    QCheck2.Gen.(pair small_int (int_range 1 6))
    (fun (seed, n_txns) ->
      with_journal_file (fun path ->
          let journal = Journal.open_ path in
          let sched = Scheduler.create ~journal Builtin.ss2pl_sql in
          let rng = Ds_sim.Rng.create seed in
          let reqs =
            Helpers.random_requests rng ~n_txns ~ops_per_txn:4 ~n_objects:6
          in
          List.iteri
            (fun i r ->
              Scheduler.submit sched r;
              if i mod 3 = 2 then ignore (Scheduler.cycle sched))
            reqs;
          ignore (Scheduler.cycle sched);
          Journal.close journal;
          let recovered = Journal.recover path in
          let fresh = Relations.create () in
          Journal.restore recovered fresh;
          sorted_pending fresh = sorted_pending (Scheduler.relations sched)))

(* --- checkpoints -------------------------------------------------- *)

(* Drives [cycles] scheduler cycles of short committed write transactions
   under SS2PL, with transaction 1 holding a write lock on object 0 forever
   so every seventh transaction stays blocked — the recovered pending set
   is nonempty and checkpoint snapshots carry real live state. *)
let drive_blocked path ~cycles ~checkpoint_every =
  let journal = Journal.open_ path in
  let sched =
    match checkpoint_every with
    | Some n -> Scheduler.create ~journal ~checkpoint_every:n Builtin.ss2pl_sql
    | None -> Scheduler.create ~journal Builtin.ss2pl_sql
  in
  Scheduler.submit sched (Request.v 1 1 Op.Write 0);
  let ta = ref 1 in
  for _ = 1 to cycles do
    for _ = 1 to 3 do
      incr ta;
      Scheduler.submit sched (Request.v !ta 1 Op.Write (!ta mod 7));
      Scheduler.submit sched (Request.terminal !ta 2 Op.Commit)
    done;
    ignore (Scheduler.cycle sched)
  done;
  Journal.close journal

let pending_keys (r : Journal.recovered) =
  Helpers.sorted_keys (List.map Request.key r.Journal.pending)

let test_checkpoint_suffix_recovery () =
  with_journal_file (fun path ->
      drive_blocked path ~cycles:20 ~checkpoint_every:(Some 3);
      let r = Journal.recover path in
      (match r.Journal.checkpoint_cycle with
      | Some c ->
        Alcotest.(check bool) "recent watermark" true (c >= 15)
      | None -> Alcotest.fail "recovery did not use a checkpoint");
      Alcotest.(check bool) "prefix skipped, not replayed" true
        (r.Journal.skipped > r.Journal.replayed);
      Alcotest.(check bool) "blocked writers recovered as pending" true
        (List.length r.Journal.pending > 0);
      Alcotest.(check int) "no corruption" 0 r.Journal.corrupt_dropped)

let last_index_of hay needle =
  let nn = String.length needle in
  let rec go i =
    if i < 0 then None
    else if String.sub hay i nn = needle then Some i
    else go (i - 1)
  in
  go (String.length hay - nn)

let test_torn_checkpoint_previous_block () =
  (* The journal ends in a checkpoint block (cycles divisible by the
     interval).  Tearing that block's END must send recovery back to the
     previous complete block — and since the torn snapshot was redundant
     (its state is already in the log), the recovered state is unchanged. *)
  with_journal_file (fun path ->
      drive_blocked path ~cycles:18 ~checkpoint_every:(Some 3);
      let r_full = Journal.recover path in
      let full_cycle =
        match r_full.Journal.checkpoint_cycle with
        | Some c -> c
        | None -> Alcotest.fail "no checkpoint in full journal"
      in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let cut =
        match last_index_of contents " C END " with
        | Some i -> (
          match String.rindex_from_opt contents i '\n' with
          | Some j -> j + 1
          | None -> 0)
        | None -> Alcotest.fail "no C END in journal"
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub contents 0 cut));
      let r = Journal.recover path in
      (match r.Journal.checkpoint_cycle with
      | Some c ->
        Alcotest.(check bool)
          (Printf.sprintf "fell back to an earlier block (%d < %d)" c
             full_cycle)
          true (c < full_cycle)
      | None -> Alcotest.fail "torn block did not fall back to a checkpoint");
      Alcotest.(check (list (pair int int))) "pending unchanged"
        (pending_keys r_full) (pending_keys r))

let test_crc_repair_truncates () =
  with_journal_file (fun path ->
      drive_blocked path ~cycles:6 ~checkpoint_every:(Some 3);
      let clean = Journal.recover path in
      (* A crash mid-append: one framed record whose checksum does not match
         its payload, then half of a next line. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "!deadbeef S 99,99,1,w,5,standard,0.0\n!0000";
      close_out oc;
      let dirty_size = (Unix.stat path).Unix.st_size in
      let r = Journal.recover ~repair:true path in
      Alcotest.(check int) "corrupt tail dropped" 2 r.Journal.corrupt_dropped;
      Alcotest.(check bool) "trusted prefix shorter than the file" true
        (r.Journal.valid_bytes < dirty_size);
      Alcotest.(check int) "file physically truncated to the trusted prefix"
        r.Journal.valid_bytes
        (Unix.stat path).Unix.st_size;
      Alcotest.(check (list (pair int int)))
        "recovered state = last valid prefix" (pending_keys clean)
        (pending_keys r);
      let again = Journal.recover path in
      Alcotest.(check int) "repaired journal is clean" 0
        again.Journal.corrupt_dropped)

let test_kill_mid_record_with_checkpoints () =
  (* Truncating mid-record after the last checkpoint: the torn record is
     dropped by its checksum, the checkpoint is still used, and a repair
     pass leaves a clean journal one record shorter. *)
  with_journal_file (fun path ->
      drive_blocked path ~cycles:10 ~checkpoint_every:(Some 3);
      let full = Journal.recover path in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub contents 0 (String.length contents - 5)));
      let r = Journal.recover ~repair:true path in
      Alcotest.(check int) "torn record dropped" 1 r.Journal.corrupt_dropped;
      Alcotest.(check bool) "still recovered from a checkpoint" true
        (r.Journal.checkpoint_cycle <> None);
      let again = Journal.recover path in
      Alcotest.(check int) "clean after repair" 0 again.Journal.corrupt_dropped;
      Alcotest.(check int) "one fewer record than the full journal"
        (full.Journal.replayed - 1)
        again.Journal.replayed)

let checkpoint_equals_full_replay =
  (* Two schedulers in lockstep over the same submissions, one journal with
     checkpoints, one without.  Checkpointed recovery replays a snapshot
     plus a suffix; full replay replays everything — the scheduler-visible
     state must be identical: same pending set, and a restored fresh
     scheduler makes the same next-cycle qualification decisions. *)
  QCheck2.Test.make
    ~name:"recover(checkpoint + suffix) = full replay (scheduler state)"
    ~count:30
    QCheck2.Gen.(pair small_int (int_range 2 8))
    (fun (seed, n_txns) ->
      let drive path checkpoint_every =
        let journal = Journal.open_ path in
        let sched =
          match checkpoint_every with
          | Some n ->
            Scheduler.create ~journal ~checkpoint_every:n Builtin.ss2pl_sql
          | None -> Scheduler.create ~journal Builtin.ss2pl_sql
        in
        let rng = Ds_sim.Rng.create seed in
        let reqs =
          Helpers.random_requests rng ~n_txns ~ops_per_txn:4 ~n_objects:6
        in
        List.iteri
          (fun i r ->
            Scheduler.submit sched r;
            if i mod 3 = 2 then ignore (Scheduler.cycle sched))
          reqs;
        ignore (Scheduler.cycle sched);
        Journal.close journal
      in
      with_journal_file (fun cp_path ->
          with_journal_file (fun full_path ->
              drive cp_path (Some 2);
              drive full_path None;
              let rc = Journal.recover cp_path in
              let rf = Journal.recover full_path in
              if rc.Journal.checkpoint_cycle = None then
                QCheck2.Test.fail_report
                  "checkpointed journal recovered without a checkpoint";
              let observe r =
                let fresh = Scheduler.create Builtin.ss2pl_sql in
                Journal.restore r (Scheduler.relations fresh);
                let pending = sorted_pending (Scheduler.relations fresh) in
                let q, _ = Scheduler.cycle fresh in
                (pending, List.map Request.key q)
              in
              observe rc = observe rf)))

let test_repair_empty_journal () =
  (* --repair on a zero-byte journal: nothing to drop, nothing to truncate,
     fully empty recovered state. *)
  with_journal_file (fun path ->
      Out_channel.with_open_bin path (fun _ -> ());
      let r = Journal.recover ~repair:true path in
      Alcotest.(check int) "nothing replayed" 0 r.Journal.replayed;
      Alcotest.(check int) "nothing dropped" 0 r.Journal.corrupt_dropped;
      Alcotest.(check bool) "no checkpoint" true
        (r.Journal.checkpoint_cycle = None);
      Alcotest.(check int) "no pending" 0 (List.length r.Journal.pending);
      Alcotest.(check int) "no history" 0 (List.length r.Journal.history);
      Alcotest.(check int) "no dead letters" 0 (List.length r.Journal.dead);
      Alcotest.(check int) "file still empty" 0 (Unix.stat path).Unix.st_size;
      (* Restoring the empty state into fresh relations is a no-op. *)
      let fresh = Scheduler.create Builtin.ss2pl_sql in
      Journal.restore r (Scheduler.relations fresh);
      Alcotest.(check int) "restored pending empty" 0
        (List.length (Relations.pending (Scheduler.relations fresh))))

let test_repair_checkpoint_only_journal () =
  (* A journal holding nothing but one checkpoint block (empty snapshot):
     recovery uses the checkpoint, replays no suffix, and a repair pass
     changes nothing. *)
  with_journal_file (fun path ->
      let j = Journal.open_ path in
      Journal.checkpoint j ~cycle:1;
      Journal.close j;
      let size = (Unix.stat path).Unix.st_size in
      let r = Journal.recover ~repair:true path in
      Alcotest.(check bool) "checkpoint used" true
        (r.Journal.checkpoint_cycle = Some 1);
      Alcotest.(check int) "no suffix replayed" 0 r.Journal.replayed;
      Alcotest.(check int) "nothing dropped" 0 r.Journal.corrupt_dropped;
      Alcotest.(check int) "no pending" 0 (List.length r.Journal.pending);
      Alcotest.(check int) "repair left the file intact" size
        (Unix.stat path).Unix.st_size;
      let fresh = Scheduler.create Builtin.ss2pl_sql in
      Journal.restore r (Scheduler.relations fresh);
      let q, _ = Scheduler.cycle fresh in
      Alcotest.(check int) "restored scheduler qualifies nothing" 0
        (List.length q))

(* --- sharded journal segments --------------------------------------------- *)

let with_segment_dir ~shards f =
  let dir = Filename.temp_file "ds_journal" ".seg.d" in
  Sys.remove dir;
  let paths = Journal.init_segment_dir dir ~shards in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
      (try Sys.remove (Filename.concat dir "MANIFEST") with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir paths)

let test_stamped_roundtrip () =
  with_journal_file (fun path ->
      let j = Journal.open_ path in
      let r1 = Request.v 1 1 Op.Write 5 and r2 = Request.v 2 1 Op.Read 9 in
      Journal.log_submit j r1;
      Journal.log_submit j r2;
      Journal.log_qualified_stamped j [ ((1, 1), 7); ((2, 1), 3) ];
      Journal.close j;
      let r = Journal.recover path in
      let stamps =
        List.map (fun (req, g) -> (Request.key req, g)) r.Journal.history_stamped
      in
      Alcotest.(check (list (pair (pair int int) (option int))))
        "gseq stamps survive the roundtrip"
        [ ((1, 1), Some 7); ((2, 1), Some 3) ]
        stamps;
      (* The unstamped view is unchanged: plain history in file order. *)
      Alcotest.(check (list (pair int int)))
        "plain history still in file order"
        [ (1, 1); (2, 1) ]
        (List.map Request.key r.Journal.history))

let test_unstamped_records_sort_last () =
  with_journal_file (fun path ->
      let j = Journal.open_ path in
      Journal.log_submit j (Request.v 1 1 Op.Write 5);
      Journal.log_submit j (Request.v 2 1 Op.Read 9);
      (* A legacy (unstamped) Q record followed by a stamped one. *)
      Journal.log_qualified j [ (1, 1) ];
      Journal.log_qualified_stamped j [ ((2, 1), 0) ];
      Journal.close j;
      let r = Journal.recover path in
      Alcotest.(check (list (pair (pair int int) (option int))))
        "unstamped entry carries no gseq"
        [ ((1, 1), None); ((2, 1), Some 0) ]
        (List.map
           (fun (req, g) -> (Request.key req, g))
           r.Journal.history_stamped))

let test_segment_dir_merges_by_gseq () =
  with_segment_dir ~shards:2 (fun dir paths ->
      (* Interleaved admissions across lanes: shard 0 stamps 0 and 2, the
         global lane stamps 1. Shard 1 never opened its segment — a lane
         that admitted nothing leaves no file, and recovery must not care. *)
      let shard0 = List.nth paths 0 and global = List.nth paths 2 in
      let j0 = Journal.open_ shard0 in
      Journal.log_submit j0 (Request.v 1 1 Op.Write 5);
      Journal.log_qualified_stamped j0 [ ((1, 1), 0) ];
      Journal.log_submit j0 (Request.v 3 1 Op.Read 9);
      Journal.log_qualified_stamped j0 [ ((3, 1), 2) ];
      Journal.close j0;
      let jg = Journal.open_ global in
      Journal.log_submit jg (Request.v 2 1 Op.Write 7);
      Journal.log_qualified_stamped jg [ ((2, 1), 1) ];
      Journal.close jg;
      Alcotest.(check bool) "manifest makes it a segment dir" true
        (Journal.is_segment_dir dir);
      let r = Journal.recover_dir dir in
      Alcotest.(check (list (pair int int)))
        "merged history interleaves lanes by gseq"
        [ (1, 1); (2, 1); (3, 1) ]
        (List.map Request.key r.Journal.history);
      Alcotest.(check bool) "replay counted across segments" true
        (r.Journal.replayed >= 6))

let test_segment_mid_corruption_names_segment () =
  with_segment_dir ~shards:2 (fun dir paths ->
      (* Shard 0 carries garbage in the middle of its log — unrepairable
         (only tails may be truncated), and the error must say which segment
         is bad so the operator knows what to restore. *)
      let shard0 = List.nth paths 0 and global = List.nth paths 2 in
      let oc = open_out shard0 in
      output_string oc "S 1,1,1,r,5,standard,0.0\nGARBAGE LINE\nQ 1 1\n";
      close_out oc;
      let jg = Journal.open_ global in
      Journal.log_submit jg (Request.v 2 1 Op.Write 7);
      Journal.log_qualified_stamped jg [ ((2, 1), 0) ];
      Journal.close jg;
      let names_segment m =
        let needle = Filename.basename shard0 in
        let nh = String.length m and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub m i nn = needle || at (i + 1)) in
        at 0
      in
      (match Journal.recover_dir dir with
      | exception Failure m ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the bad segment (got: %s)" m)
          true (names_segment m)
      | _ -> Alcotest.fail "mid-segment corruption must be refused");
      (* --repair doesn't paper over it either: truncation only ever drops a
         torn tail, never a corrupt middle. *)
      match Journal.recover_segments ~repair:true dir with
      | exception Failure m ->
        Alcotest.(check bool) "repair error names the segment too" true
          (names_segment m)
      | _ -> Alcotest.fail "repair must refuse mid-segment corruption")

let test_segment_torn_tail_isolated () =
  with_segment_dir ~shards:2 (fun dir paths ->
      (* A crash tears the last record of shard 0 only; siblings must
         recover untouched, and --repair truncates just the torn segment. *)
      let shard0 = List.nth paths 0 and global = List.nth paths 2 in
      let j0 = Journal.open_ shard0 in
      Journal.log_submit j0 (Request.v 1 1 Op.Write 5);
      Journal.log_qualified_stamped j0 [ ((1, 1), 0) ];
      Journal.close j0;
      let oc = open_out_gen [ Open_append ] 0o644 shard0 in
      output_string oc "S 99,99,1,r";
      close_out oc;
      let jg = Journal.open_ global in
      Journal.log_submit jg (Request.v 2 1 Op.Write 7);
      Journal.log_qualified_stamped jg [ ((2, 1), 1) ];
      Journal.close jg;
      let segs = Journal.recover_segments ~repair:true dir in
      let seg name = List.assoc name segs in
      Alcotest.(check int) "torn tail dropped in the bad segment" 1
        (seg (Filename.basename shard0)).Journal.corrupt_dropped;
      Alcotest.(check int) "sibling segment replays clean" 0
        (seg (Filename.basename global)).Journal.corrupt_dropped;
      (* The merged view still interleaves both lanes' history... *)
      let r = Journal.recover_dir dir in
      Alcotest.(check (list (pair int int)))
        "merged history survives the torn sibling"
        [ (1, 1); (2, 1) ]
        (List.map Request.key r.Journal.history);
      (* ...and the repair physically truncated the torn tail. *)
      let again = Journal.recover_segments dir in
      Alcotest.(check int) "repaired segment is clean on re-read" 0
        (List.assoc (Filename.basename shard0) again).Journal.corrupt_dropped)

let test_segment_dir_rejects_bad_manifest () =
  with_segment_dir ~shards:2 (fun dir _paths ->
      let oc = open_out_bin (Filename.concat dir "MANIFEST") in
      output_string oc "not a manifest\n";
      close_out oc;
      Alcotest.(check bool) "garbage manifest refused" true
        (try
           ignore (Journal.recover_dir dir);
           false
         with Failure _ -> true);
      Alcotest.check_raises "single shard refused"
        (Invalid_argument "Journal.init_segment_dir: needs at least 2 shards")
        (fun () -> ignore (Journal.init_segment_dir dir ~shards:1)))

(* Record payloads of a journal file, CRC frames stripped. *)
let payloads path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         if String.length l > 10 && l.[0] = '!' then
           Some (String.sub l 10 (String.length l - 10))
         else None)

(* A key submitted again while still live keeps the position of its first
   submission and carries the newer request, in the checkpoint block, in
   the state hash and in recovery. The hash is pinned so the writer mirror's
   serialization cannot drift. *)
let test_resubmitted_key_keeps_position () =
  with_journal_file (fun path ->
      let j = Journal.open_ path in
      Journal.set_hash_checkpoints j true;
      let a = Request.v 1 1 Op.Write 5 in
      let a' = { a with Request.id = 9 } in
      let c = Request.v 3 1 Op.Read 7 in
      List.iter (Journal.log_submit j) [ a; Request.v 2 1 Op.Read 6; c; a' ];
      Journal.log_qualified j [ (2, 1) ];
      Journal.checkpoint j ~cycle:1;
      let hash = Journal.state_hash j in
      Journal.close j;
      let line r = "c P " ^ Ds_workload.Trace.line_of_request r in
      let records = payloads path in
      Alcotest.(check (list string)) "checkpoint pending block" [ line a'; line c ]
        (List.filter (fun p -> String.starts_with ~prefix:"c P " p) records);
      Alcotest.(check string) "hash record" (Printf.sprintf "H 1 %08x" hash)
        (List.nth records (List.length records - 1));
      Alcotest.(check int) "pinned state hash" 0xbcf55448 hash;
      Alcotest.(check (list int)) "recovered pending" [ 9; 3001 ]
        (List.map
           (fun (r : Request.t) -> r.Request.id)
           (Journal.recover path).Journal.pending))

(* An abort drops exactly the aborted transaction's live requests from the
   writer mirror, so the next checkpoint no longer lists them. *)
let test_abort_drops_live_requests () =
  with_journal_file (fun path ->
      let j = Journal.open_ path in
      let kept = Request.v 2 1 Op.Read 6 in
      List.iter (Journal.log_submit j)
        [ Request.v 1 1 Op.Write 5; kept; Request.v 1 2 Op.Read 7 ];
      Journal.log_abort j 1;
      Journal.checkpoint j ~cycle:1;
      Journal.close j;
      Alcotest.(check (list string)) "checkpoint pending block"
        [ "c P " ^ Ds_workload.Trace.line_of_request kept ]
        (List.filter (fun p -> String.starts_with ~prefix:"c P " p) (payloads path)))

let tests =
  [
    Alcotest.test_case "journal roundtrip + recovery decision" `Quick
      test_roundtrip;
    Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail_tolerated;
    Alcotest.test_case "mid-file corruption rejected" `Quick
      test_mid_file_corruption_rejected;
    Alcotest.test_case "Q without S rejected" `Quick test_unknown_qualified_rejected;
    Alcotest.test_case "sync survives any kill point" `Quick test_sync_kill_points;
    QCheck_alcotest.to_alcotest journal_matches_live_state;
    Alcotest.test_case "checkpoint suffix recovery" `Quick
      test_checkpoint_suffix_recovery;
    Alcotest.test_case "torn checkpoint falls back a block" `Quick
      test_torn_checkpoint_previous_block;
    Alcotest.test_case "crc repair truncates the corrupt tail" `Quick
      test_crc_repair_truncates;
    Alcotest.test_case "mid-record kill with checkpoints" `Quick
      test_kill_mid_record_with_checkpoints;
    Alcotest.test_case "repair on an empty journal" `Quick
      test_repair_empty_journal;
    Alcotest.test_case "repair on a checkpoint-only journal" `Quick
      test_repair_checkpoint_only_journal;
    QCheck_alcotest.to_alcotest checkpoint_equals_full_replay;
    Alcotest.test_case "gseq stamps roundtrip" `Quick test_stamped_roundtrip;
    Alcotest.test_case "unstamped records sort last" `Quick
      test_unstamped_records_sort_last;
    Alcotest.test_case "segment dir merges by gseq" `Quick
      test_segment_dir_merges_by_gseq;
    Alcotest.test_case "mid-segment corruption names the segment" `Quick
      test_segment_mid_corruption_names_segment;
    Alcotest.test_case "torn segment tail doesn't block siblings" `Quick
      test_segment_torn_tail_isolated;
    Alcotest.test_case "segment dir rejects bad manifest" `Quick
      test_segment_dir_rejects_bad_manifest;
    Alcotest.test_case "resubmitted live key keeps its position" `Quick
      test_resubmitted_key_keeps_position;
    Alcotest.test_case "abort drops the transaction's live requests" `Quick
      test_abort_drops_live_requests;
  ]
