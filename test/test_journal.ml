(* Write-ahead journal and crash recovery. *)

open Ds_core
open Ds_model

let with_journal_file f =
  let path = Filename.temp_file "ds_journal" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* CRC32 computed bit by bit here rather than through the journal's
   table. *)
let crc_bitwise s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc :=
          if !crc land 1 = 1 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

(* One journal record line, ["!crc32 payload"]. *)
let frame payload = Printf.sprintf "!%08x %s\n" (crc_bitwise payload) payload

(* Newlines in the file: the line count a reopened writer must resume. *)
let file_lines path =
  String.fold_left
    (fun n c -> if c = '\n' then n + 1 else n)
    0
    (In_channel.with_open_bin path In_channel.input_all)

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
      output_string oc
        (frame "S 1,1,1,r,5,standard,0.0" ^ "GARBAGE LINE\n" ^ frame "Q 1 1");
      close_out oc;
      match Journal.recover path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "corruption in the middle must be rejected")

let test_unknown_qualified_rejected () =
  with_journal_file (fun path ->
      let oc = open_out path in
      output_string oc (frame "Q 7 1" ^ frame "S 1,1,1,r,5,standard,0.0");
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

let test_torn_checkpoint_previous_block () =
  (* Tearing the last [k] checkpoint blocks must send recovery back to the
     block before them, or to a whole-file replay when none is left. Each
     torn block keeps its C END marker, so the locator finds it and has to
     step back past it: the last block's C END is cut one byte short, as a
     crash mid-write would leave it; an earlier block's C END is rewritten,
     validly framed, with a wrong entry count. The torn snapshots were
     redundant (their state is in the log), so the recovered pending set is
     unchanged. *)
  with_journal_file (fun path ->
      drive_blocked path ~cycles:18 ~checkpoint_every:(Some 3);
      let intact = Journal.recover path in
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      let payload l = String.sub l 10 (String.length l - 10) in
      let ends =
        List.concat
          (List.mapi
             (fun i l ->
               if String.starts_with ~prefix:"C END" (payload l) then [ i ]
               else [])
             lines)
      in
      let blocks = List.length ends in
      if blocks < 3 then Alcotest.failf "only %d checkpoint blocks" blocks;
      let cut = List.nth ends (blocks - 1) in
      (* the line count the C BEGIN of the block at [cycle] records *)
      let begin_count cycle =
        List.find_map
          (fun l ->
            match String.split_on_char ' ' (payload l) with
            | [ "C"; "BEGIN"; c; k ] when int_of_string c = cycle ->
              Some (int_of_string k)
            | _ -> None)
          lines
        |> Option.get
      in
      let previous = ref (Option.get intact.Journal.checkpoint_cycle) in
      List.iter
        (fun k ->
          let torn = List.filteri (fun i _ -> i >= blocks - k) ends in
          Out_channel.with_open_bin path (fun oc ->
              List.iteri
                (fun i l ->
                  let out = Out_channel.output_string oc in
                  if i = cut then out (String.sub l 0 (String.length l - 1))
                  else if i > cut then ()
                  else if List.mem i torn then
                    match String.split_on_char ' ' (payload l) with
                    | [ "C"; "END"; n ] ->
                      out (frame (Printf.sprintf "C END %d" (int_of_string n + 1)))
                    | _ -> assert false
                  else out (l ^ "\n"))
                lines);
          let r = Journal.recover path in
          (match r.Journal.checkpoint_cycle with
          | Some c when k < blocks ->
            Alcotest.(check bool)
              (Printf.sprintf "%d torn: fell back to an earlier block (%d < %d)"
                 k c !previous)
              true (c < !previous);
            previous := c;
            Alcotest.(check int)
              (Printf.sprintf "%d torn: skipped the lines before the block" k)
              (begin_count c) r.Journal.skipped
          | None when k = blocks ->
            Alcotest.(check int) "every block torn: nothing skipped" 0
              r.Journal.skipped
          | Some c -> Alcotest.failf "every block torn, yet loaded cycle %d" c
          | None -> Alcotest.failf "%d torn: no block loaded" k);
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%d torn: pending unchanged" k)
            (pending_keys intact) (pending_keys r))
        [ 1; 2; blocks ])

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
      Alcotest.(check int) "line count of the trusted prefix"
        (file_lines path) r.Journal.valid_lines;
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
      Alcotest.(check int) "line count of the trusted prefix"
        (file_lines path) r.Journal.valid_lines;
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
  let dir = Journal.temp_path ~shards "ds_journal" in
  let paths = Journal.lane_paths dir ~shards in
  Fun.protect ~finally:(fun () -> Journal.remove dir) (fun () -> f dir paths)

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
      Alcotest.(check int) "one segment per lane" 3
        (List.length (fst (Journal.recover_segments dir)));
      let r = Journal.recover dir in
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
      output_string oc
        (frame "S 1,1,1,r,5,standard,0.0" ^ "GARBAGE LINE\n" ^ frame "Q 1 1");
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
      (match Journal.recover dir with
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
      let segs, _ = Journal.recover_segments ~repair:true dir in
      let seg name = List.assoc name segs in
      Alcotest.(check int) "torn tail dropped in the bad segment" 1
        (seg (Filename.basename shard0)).Journal.corrupt_dropped;
      Alcotest.(check int) "sibling segment replays clean" 0
        (seg (Filename.basename global)).Journal.corrupt_dropped;
      (* The merged view still interleaves both lanes' history... *)
      let r = Journal.recover dir in
      Alcotest.(check (list (pair int int)))
        "merged history survives the torn sibling"
        [ (1, 1); (2, 1) ]
        (List.map Request.key r.Journal.history);
      (* ...and the repair physically truncated the torn tail. *)
      let again, _ = Journal.recover_segments dir in
      Alcotest.(check int) "repaired segment is clean on re-read" 0
        (List.assoc (Filename.basename shard0) again).Journal.corrupt_dropped)

let test_segment_dir_rejects_bad_manifest () =
  with_segment_dir ~shards:2 (fun dir _paths ->
      (* No lane has written yet: the directory holds its manifest alone. *)
      let manifest =
        match Sys.readdir dir with
        | [| name |] -> Filename.concat dir name
        | names ->
          Alcotest.failf "%d files before any lane wrote" (Array.length names)
      in
      let oc = open_out_bin manifest in
      output_string oc "not a manifest\n";
      close_out oc;
      Alcotest.(check bool) "garbage manifest refused" true
        (try
           ignore (Journal.recover dir);
           false
         with Failure _ -> true);
      Alcotest.(check (list string)) "one shard journals to the path itself"
        [ dir ]
        (Journal.lane_paths dir ~shards:1);
      Alcotest.check_raises "no shards refused"
        (Invalid_argument "Journal.lane_paths: shards must be >= 1")
        (fun () -> ignore (Journal.lane_paths dir ~shards:0)))

(* A temporary journal of either layout, every lane written, leaves nothing
   behind once removed. *)
let test_temp_journal_removed () =
  List.iter
    (fun shards ->
      let path = Journal.temp_path ~shards "ds_journal" in
      List.iter
        (fun p ->
          let j = Journal.open_ p in
          Journal.log_submit j (Request.v 1 1 Op.Write 5);
          Journal.close j)
        (Journal.lane_paths path ~shards);
      Journal.remove path;
      Alcotest.(check bool)
        (Printf.sprintf "S=%d journal gone" shards)
        false (Sys.file_exists path))
    [ 1; 3 ]

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

(* --- the serializer against a reference ----------------------------- *)

(* A reference journal writer: the mirror as plain in-order lists, pruned by
   filtering the whole history, and every checkpoint entry and state hash
   formatted from its request with [Trace.line_of_request] at the moment it
   is written. The test keeps two: the writer's, which prunes, and the state
   recovery rebuilds, which keeps history whole. *)
type ref_state = {
  mutable live : ((int * int) * (int * Request.t)) list;  (* key -> seq, request *)
  mutable subs : int;
  mutable hist : Request.t list;
  mutable stamps : ((int * int) * int) list;
  mutable aborts : int list;
  mutable dead : Request.t list;
  mutable epoch : int;
}

let ref_fresh () =
  { live = []; subs = 0; hist = []; stamps = []; aborts = []; dead = []; epoch = 0 }

let ref_line = Ds_workload.Trace.line_of_request

let ref_submit st r =
  let key = Request.key r in
  match List.assoc_opt key st.live with
  | Some (seq, _) ->
    st.live <- List.map (fun (k, v) -> if k = key then (k, (seq, r)) else (k, v)) st.live
  | None ->
    st.subs <- st.subs + 1;
    st.live <- st.live @ [ (key, (st.subs, r)) ]

let ref_qualify st ?gseq key =
  let _, r = List.assoc key st.live in
  st.live <- List.remove_assoc key st.live;
  st.hist <- st.hist @ [ r ];
  Option.iter
    (fun g -> st.stamps <- (key, g) :: List.remove_assoc key st.stamps)
    gseq

let ref_abort st ta =
  st.live <- List.filter (fun (_, (_, (r : Request.t))) -> r.Request.ta <> ta) st.live;
  st.aborts <- st.aborts @ [ ta ]

let ref_dead st r =
  st.live <- List.remove_assoc (Request.key r) st.live;
  st.dead <- st.dead @ [ r ]

let ref_prune st =
  let finished =
    List.filter_map
      (fun (r : Request.t) ->
        if Op.is_terminal r.Request.op then Some r.Request.ta else None)
      st.hist
    @ st.aborts
  in
  st.hist <- List.filter (fun (r : Request.t) -> not (List.mem r.Request.ta finished)) st.hist;
  st.aborts <- []

let ref_pending st =
  List.sort (fun (_, (a, _)) (_, (b, _)) -> Int.compare a b) st.live
  |> List.map (fun (_, (_, r)) -> r)

let ref_stamp st r = List.assoc_opt (Request.key r) st.stamps

let ref_hash st =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "E%d\n" st.epoch);
  List.iter (fun r -> Buffer.add_string buf ("P " ^ ref_line r ^ "\n")) (ref_pending st);
  List.iter
    (fun r ->
      let stamp = match ref_stamp st r with Some g -> string_of_int g | None -> "-" in
      Buffer.add_string buf (Printf.sprintf "H %s %s\n" stamp (ref_line r)))
    st.hist;
  List.iter (fun ta -> Buffer.add_string buf (Printf.sprintf "A %d\n" ta)) st.aborts;
  List.iter (fun r -> Buffer.add_string buf ("D " ^ ref_line r ^ "\n")) st.dead;
  crc_bitwise (Buffer.contents buf)

(* The checkpoint block (and its 'H' record) the reference writes after
   [lines] journal lines. *)
let ref_block st ~cycle ~lines =
  let entries =
    (if st.epoch > 0 then [ Printf.sprintf "c E %d" st.epoch ] else [])
    @ List.map (fun r -> "c P " ^ ref_line r) (ref_pending st)
    @ List.map
        (fun r ->
          match ref_stamp st r with
          | Some g -> Printf.sprintf "c G %d %s" g (ref_line r)
          | None -> "c H " ^ ref_line r)
        st.hist
    @ List.map (Printf.sprintf "c A %d") st.aborts
    @ List.map (fun r -> "c D " ^ ref_line r) st.dead
  in
  (Printf.sprintf "C BEGIN %d %d" cycle lines :: entries)
  @ [
      Printf.sprintf "C END %d" (List.length entries);
      Printf.sprintf "H %d %08x" cycle (ref_hash st);
    ]

(* What recovery hands back for the reference's replay state. *)
let ref_recovered st =
  ( List.map ref_line (ref_pending st),
    List.map (fun r -> (ref_line r, ref_stamp st r)) st.hist,
    st.aborts,
    List.map ref_line st.dead,
    st.epoch )

let observe_recovered (r : Journal.recovered) =
  ( List.map ref_line r.Journal.pending,
    List.map (fun (q, g) -> (ref_line q, g)) r.Journal.history_stamped,
    r.Journal.aborted,
    List.map ref_line r.Journal.dead,
    r.Journal.epoch )

type jop =
  | J_submit of int * int * int * int  (* ta, intrata, op choice, arrival *)
  | J_resubmit of int * int  (* pick among live keys, arrival *)
  | J_qualify of int list * bool  (* picks among live keys, stamped *)
  | J_abort of int
  | J_dead of int  (* pick among live keys; a fresh request when none *)
  | J_prune
  | J_epoch
  | J_checkpoint

let jop_to_string = function
  | J_submit (ta, i, o, a) -> Printf.sprintf "submit(%d,%d,%d,%d)" ta i o a
  | J_resubmit (p, a) -> Printf.sprintf "resubmit(%d,%d)" p a
  | J_qualify (ps, st) ->
    Printf.sprintf "qualify([%s],%b)" (String.concat ";" (List.map string_of_int ps)) st
  | J_abort ta -> Printf.sprintf "abort(%d)" ta
  | J_dead p -> Printf.sprintf "dead(%d)" p
  | J_prune -> "prune"
  | J_epoch -> "epoch"
  | J_checkpoint -> "checkpoint"

let jop_gen =
  let open QCheck2.Gen in
  frequency
    [
      ( 6,
        map3
          (fun ta intrata (op, arrival) -> J_submit (ta, intrata, op, arrival))
          (int_range 1 5) (int_range 1 3)
          (pair (int_bound 3) (int_bound 1_000_000)) );
      (2, map2 (fun p a -> J_resubmit (p, a)) nat (int_bound 1_000_000));
      (4, map2 (fun ps st -> J_qualify (ps, st)) (list_size (int_range 1 3) nat) bool);
      (1, map (fun ta -> J_abort ta) (int_range 1 5));
      (1, map (fun p -> J_dead p) nat);
      (2, pure J_prune);
      (1, pure J_epoch);
      (2, pure J_checkpoint);
    ]

(* Drives a journal and the reference through the same operations, then
   compares the file byte for byte with the reference's framed records, the
   state hash, recovery, a checkpoint written after reopening from the
   recovered state, and a standby built from the streamed records alone. *)
let serializer_matches_reference =
  QCheck2.Test.make ~name:"serializer matches the line_of_request reference"
    ~count:200 ~print:(fun ops -> String.concat " " (List.map jop_to_string ops))
    QCheck2.Gen.(list_size (int_range 0 60) jop_gen)
    (fun ops ->
      with_journal_file (fun path ->
          with_journal_file (fun standby_path ->
              let j = Journal.open_ path in
              Journal.set_hash_checkpoints j true;
              let streamed = ref [] in
              Journal.set_sink j (fun p -> streamed := p :: !streamed);
              let w = ref_fresh () and replay = ref (ref_fresh ()) in
              let expected = ref [] in
              let emit p = expected := p :: !expected in
              let both f = f w; f !replay in
              let next_id = ref 0 and gseq = ref 0 and cycle = ref 0 in
              let request ~ta ~intrata ~op ~arrival =
                incr next_id;
                let op = List.nth [ Op.Read; Op.Write; Op.Commit; Op.Abort ] op in
                let sla = List.nth [ Sla.premium; Sla.standard; Sla.free ] (arrival mod 3) in
                Request.make ~sla ~arrival:(float_of_int arrival /. 7.) ~id:!next_id ~ta
                  ~intrata ~op
                  ?obj:(if Op.is_data op then Some ((ta * 7) + intrata) else None)
                  ()
              in
              let pick p = List.nth_opt w.live (p mod max 1 (List.length w.live)) in
              let submit r =
                Journal.log_submit j r;
                both (fun st -> ref_submit st r);
                emit ("S " ^ ref_line r)
              in
              List.iter
                (function
                  | J_submit (ta, intrata, op, arrival) ->
                    submit (request ~ta ~intrata ~op ~arrival)
                  | J_resubmit (p, arrival) -> (
                    match pick p with
                    | Some ((ta, intrata), (_, (r : Request.t))) ->
                      let op =
                        match r.Request.op with
                        | Op.Read -> 0 | Op.Write -> 1 | Op.Commit -> 2 | Op.Abort -> 3
                      in
                      submit (request ~ta ~intrata ~op ~arrival)
                    | None -> ())
                  | J_qualify (ps, stamped) ->
                    let keys =
                      List.fold_left
                        (fun acc p ->
                          match pick p with
                          | Some (k, _) when not (List.mem k acc) -> acc @ [ k ]
                          | _ -> acc)
                        [] ps
                    in
                    if stamped then begin
                      let entries =
                        List.map
                          (fun k ->
                            incr gseq;
                            (k, !gseq))
                          keys
                      in
                      Journal.log_qualified_stamped j entries;
                      List.iter
                        (fun (((ta, intrata) as k), g) ->
                          both (fun st -> ref_qualify st ~gseq:g k);
                          emit (Printf.sprintf "Q %d %d %d" ta intrata g))
                        entries
                    end
                    else begin
                      Journal.log_qualified j keys;
                      List.iter
                        (fun ((ta, intrata) as k) ->
                          both (fun st -> ref_qualify st k);
                          emit (Printf.sprintf "Q %d %d" ta intrata))
                        keys
                    end
                  | J_abort ta ->
                    Journal.log_abort j ta;
                    both (fun st -> ref_abort st ta);
                    emit (Printf.sprintf "A %d" ta)
                  | J_dead p ->
                    let r =
                      match pick p with
                      | Some (_, (_, r)) -> r
                      | None -> request ~ta:9 ~intrata:1 ~op:0 ~arrival:p
                    in
                    Journal.log_dead j r;
                    both (fun st -> ref_dead st r);
                    emit ("D " ^ ref_line r)
                  | J_prune ->
                    Journal.log_prune j;
                    ref_prune w;
                    emit "P"
                  | J_epoch ->
                    let e = w.epoch + 1 in
                    Journal.log_epoch j e;
                    both (fun st -> st.epoch <- e);
                    emit (Printf.sprintf "E %d" e)
                  | J_checkpoint ->
                    incr cycle;
                    Journal.checkpoint j ~cycle:!cycle;
                    List.iter emit
                      (ref_block w ~cycle:!cycle ~lines:(List.length !expected));
                    (* recovery starts from this block: its state, with the
                       stamps of the history entries only *)
                    replay :=
                      {
                        w with
                        stamps =
                          List.filter_map
                            (fun r -> Option.map (fun g -> (Request.key r, g)) (ref_stamp w r))
                            w.hist;
                      })
                ops;
              let hash = Journal.state_hash j in
              Journal.close j;
              let expected = List.rev !expected in
              let file = In_channel.with_open_bin path In_channel.input_all in
              if file <> String.concat "" (List.map frame expected) then
                QCheck2.Test.fail_reportf "journal differs from the reference:@.%s"
                  (String.concat "\n" expected);
              if hash <> ref_hash w then QCheck2.Test.fail_report "state hash differs";
              let recovered = Journal.recover path in
              if observe_recovered recovered <> ref_recovered !replay then
                QCheck2.Test.fail_report "recovery differs from the reference";
              (* Reopened from recovery, the writer formats each request once
                 and checkpoints the replay state. *)
              let reopened = Journal.open_ ~state:recovered path in
              Journal.set_hash_checkpoints reopened true;
              Journal.checkpoint reopened ~cycle:1000;
              Journal.close reopened;
              let tail =
                List.filteri (fun i _ -> i >= List.length expected) (payloads path)
              in
              if tail <> ref_block !replay ~cycle:1000 ~lines:(List.length expected)
              then QCheck2.Test.fail_report "reopened checkpoint differs";
              (* A standby fed only the streamed records writes the same
                 file. *)
              Sys.remove standby_path;
              let sb = Journal.open_ standby_path in
              List.iter
                (fun p ->
                  match String.split_on_char ' ' p with
                  | [ "C"; "BEGIN"; c; _ ] ->
                    if not (Journal.append_checkpoint sb ~cycle:(int_of_string c) p)
                    then QCheck2.Test.fail_report "standby C BEGIN differs"
                  | _ -> Journal.append_raw sb p)
                (List.rev !streamed);
              let sb_hash = Journal.state_hash sb in
              Journal.close sb;
              let sb_file = In_channel.with_open_bin standby_path In_channel.input_all in
              if sb_file <> file then QCheck2.Test.fail_report "standby file differs";
              if sb_hash <> hash then QCheck2.Test.fail_report "standby state hash differs";
              let local p =
                String.starts_with ~prefix:"c " p || String.starts_with ~prefix:"C END" p
              in
              List.length !streamed
              = List.length (List.filter (fun p -> not (local p)) expected))))

(* The move phase splits into history, journal and checkpoint parts taken
   from consecutive timestamps, so on a journaled, checkpointed run they add
   up to it exactly, cycle by cycle. *)
let test_move_phase_split () =
  with_journal_file (fun path ->
      let journal = Journal.open_ path in
      let sched =
        Scheduler.create ~journal ~checkpoint_every:3 Builtin.ss2pl_ocaml
      in
      for ta = 1 to 12 do
        Scheduler.submit sched (Request.v ta 1 Op.Write (ta mod 5));
        Scheduler.submit sched (Request.terminal ta 2 Op.Commit);
        let _, stats = Scheduler.cycle sched in
        let t = stats.Scheduler.times in
        Alcotest.(check (float 0.)) "history + journal + checkpoint = move"
          t.Scheduler.move
          (t.Scheduler.history +. t.Scheduler.journal +. t.Scheduler.checkpoint)
      done;
      Alcotest.(check int) "checkpoints written" 4
        (Journal.checkpoints_written journal);
      Journal.close journal)

(* Blocks are written by size, so the journal grows with the records, not
   with one snapshot of the live state per interval: checkpoint entries stay
   a minority of the lines, the bytes spent on blocks stay at or below the
   record bytes plus the last block, and recovery reads that last block and
   the lines written after it. *)
let test_checkpoint_growth_bounded () =
  with_journal_file (fun path ->
      ignore
        (Middleware.run
           {
             Middleware.default_config with
             Middleware.n_clients = 50;
             duration = 3.;
             protocol = Builtin.ss2pl_ocaml;
             charge_scheduler_time = false;
             journal_path = Some path;
             checkpoint_interval = Some 10;
           });
      let lines = Array.of_list (payloads path) in
      let n = Array.length lines in
      let is_entry p =
        String.starts_with ~prefix:"c " p || String.starts_with ~prefix:"C END " p
      in
      let entries = Array.fold_left (fun k p -> if is_entry p then k + 1 else k) 0 lines in
      if 2 * entries > n then
        Alcotest.failf "%d of %d journal lines are checkpoint entries" entries n;
      (* Bytes per line as framed on disk; a block runs from its C BEGIN to
         its C END. *)
      let bytes p = String.length p + 11 in
      let block_bytes = ref 0 and record_bytes = ref 0 and last_block = ref 0 in
      let last_begin = ref (-1) and last_end = ref (-1) in
      Array.iteri
        (fun i p ->
          if String.starts_with ~prefix:"C BEGIN " p then begin
            last_begin := i;
            last_block := 0
          end;
          if String.starts_with ~prefix:"C BEGIN " p || is_entry p then begin
            block_bytes := !block_bytes + bytes p;
            last_block := !last_block + bytes p
          end
          else record_bytes := !record_bytes + bytes p;
          if String.starts_with ~prefix:"C END " p then last_end := i)
        lines;
      Alcotest.(check bool) "blocks written" true (!last_end > 0);
      if !block_bytes > !record_bytes + !last_block then
        Alcotest.failf "%d block bytes for %d record bytes (last block %d)"
          !block_bytes !record_bytes !last_block;
      let r = Journal.recover path in
      Alcotest.(check int) "lines before the last block skipped" !last_begin
        r.Journal.skipped;
      let suffix = n - 1 - !last_end in
      if r.Journal.replayed > suffix then
        Alcotest.failf "replayed %d entries, %d written after the last block"
          r.Journal.replayed suffix)

let test_crc32_check_value () =
  Alcotest.(check int) "CRC-32 check value" 0xcbf43926 (Journal.crc32 "123456789");
  Alcotest.(check int) "empty string" 0 (Journal.crc32 "")

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
    QCheck_alcotest.to_alcotest serializer_matches_reference;
    Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
    Alcotest.test_case "move phase splits exactly" `Quick test_move_phase_split;
    Alcotest.test_case "checkpoint bytes bounded by record bytes" `Quick
      test_checkpoint_growth_bounded;
    Alcotest.test_case "temp journal of each layout removed whole" `Quick
      test_temp_journal_removed;
  ]
