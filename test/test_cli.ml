(* CLI argument validation: the strict numeric converters behind
   --checkpoint, --shards and the other numeric run flags, and the
   replication flag preconditions; what [recover --repair] reports on a
   segment directory and [recover] on a journal with a hole; and that
   [check] only validates a logged schedule.
   These run the real dsched binary — the tests execute from
   _build/default/test, next to bin/. *)

let dsched_exe = Filename.concat ".." (Filename.concat "bin" "dsched.exe")

let dsched args =
  let out = Filename.temp_file "dsched_cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>&1" dsched_exe args (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let check_rejected ~flag ~needle args =
  let code, text = dsched args in
  Alcotest.(check bool)
    (Printf.sprintf "%s rejected (exit %d)" flag code)
    true (code <> 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s error mentions %S (got: %s)" flag needle text)
    true (contains ~needle text)

let test_checkpoint_rejects_nonpositive () =
  check_rejected ~flag:"--checkpoint 0" ~needle:"--checkpoint must be positive"
    "run --duration 0.1 --journal /tmp/x.journal --checkpoint 0";
  check_rejected ~flag:"--checkpoint -3" ~needle:"--checkpoint must be positive"
    "run --duration 0.1 --journal /tmp/x.journal --checkpoint=-3"

let test_checkpoint_rejects_nonnumeric () =
  check_rejected ~flag:"--checkpoint four"
    ~needle:"--checkpoint must be a positive integer"
    "run --duration 0.1 --journal /tmp/x.journal --checkpoint four"

let test_shards_rejects_nonpositive () =
  check_rejected ~flag:"--shards 0" ~needle:"--shards must be positive"
    "run --duration 0.1 --shards 0";
  check_rejected ~flag:"--shards -2" ~needle:"--shards must be positive"
    "run --duration 0.1 --shards=-2"

let test_shards_rejects_nonnumeric () =
  check_rejected ~flag:"--shards many"
    ~needle:"--shards must be a positive integer"
    "run --duration 0.1 --shards many"

let test_repl_flag_preconditions () =
  (* The standby needs a primary journal to mirror, and a fault plan for the
     link needs a standby to run it against. *)
  check_rejected ~flag:"--standby without --journal" ~needle:"--journal"
    "run --duration 0.1 --standby /tmp/ds_cli_standby.d";
  check_rejected ~flag:"--repl-faults without --standby" ~needle:"--standby"
    "run --duration 0.1 --journal /tmp/x.journal --repl-faults drop=0.1"

(* Out-of-range numbers are refused by the flag's converter before the
   run starts, instead of raising from inside the engine mid-run. *)
let rejects flag ~needle values () =
  List.iter
    (fun v ->
      check_rejected ~flag:(flag ^ v) ~needle
        (Printf.sprintf "run --duration 0.1 %s%s" flag v))
    values

(* [recover --repair] on a segment directory: the merged summary comes from
   the same pass as the per-segment report, so the torn tail it truncated
   shows in both. *)
let test_recover_repair_segment_dir () =
  let dir = Ds_core.Journal.temp_path ~shards:2 "dsched_cli" in
  Fun.protect
    ~finally:(fun () -> Ds_core.Journal.remove dir)
    (fun () ->
      let code, text =
        dsched
          (Printf.sprintf "run --shards 2 --duration 0.2 --journal %s"
             (Filename.quote dir))
      in
      Alcotest.(check int) (Printf.sprintf "run exits 0 (got: %s)" text) 0 code;
      Out_channel.with_open_gen [ Open_append ] 0o644
        (Filename.concat dir "shard-1.journal") (fun oc ->
          Out_channel.output_string oc
            "!deadbeef S 99,99,1,w,5,standard,0.0\n!00");
      let code, text =
        dsched (Printf.sprintf "recover --repair %s" (Filename.quote dir))
      in
      Alcotest.(check int) "recover exits 0" 0 code;
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "output has %S (got: %s)" needle text)
            true (contains ~needle text))
        [
          "shard-1.journal: replayed 0, dropped 2 corrupt tail line(s) \
           (truncated)";
          "dropped 2 corrupt tail line(s) (file truncated)";
        ])

(* A flag combination the middleware refuses is a usage error, reported
   before the standby directory is made: exit 2, nothing left behind. *)
let test_run_validates_before_standby () =
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let standby = tmp "ds_cli_refused_standby.d" and journal = tmp "ds_cli_refused.d" in
  let code, text =
    dsched
      (Printf.sprintf "run --shards 2 --standby %s --journal %s --duration 0.1"
         (Filename.quote standby) (Filename.quote journal))
  in
  Alcotest.(check int) (Printf.sprintf "exit 2 (got: %s)" text) 2 code;
  Alcotest.(check bool) (Printf.sprintf "names the rule (got: %s)" text) true
    (contains ~needle:"replication requires shards = 1" text);
  Alcotest.(check bool) "no standby files" false (Sys.file_exists standby);
  Alcotest.(check bool) "no journal" false (Sys.file_exists journal)

(* A bad frame with valid records after it is a hole, not a torn tail:
   [recover] reports it as a recovery error naming the file and the line,
   and exits 1, for a journal file and for a segment of a directory. *)
let test_recover_reports_hole () =
  let corrupt_line_2 path =
    let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
    let hole = List.mapi (fun i l -> if i = 1 then "!x" ^ String.sub l 2 (String.length l - 2) else l) lines in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (String.concat "\n" hole))
  in
  List.iter
    (fun (shards, segment, where) ->
      let path = Ds_core.Journal.temp_path ~shards "dsched_cli_hole" in
      Fun.protect
        ~finally:(fun () -> Ds_core.Journal.remove path)
        (fun () ->
          let code, text =
            dsched
              (Printf.sprintf "run --shards %d --duration 0.2 --journal %s" shards
                 (Filename.quote path))
          in
          Alcotest.(check int) (Printf.sprintf "run exits 0 (got: %s)" text) 0 code;
          corrupt_line_2 (if segment = "" then path else Filename.concat path segment);
          let code, text = dsched (Printf.sprintf "recover %s" (Filename.quote path)) in
          Alcotest.(check int) (Printf.sprintf "%s: recover exits 1 (got: %s)" where text) 1 code;
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: output has %S (got: %s)" where needle text)
                true (contains ~needle text))
            [
              "recover: " ^ path ^ ": ";
              segment;
              "journal line 2: checksum mismatch before valid records";
            ]))
    [ (1, "", "journal file"); (2, "global.journal", "segment") ]

(* [check] validates a logged schedule and nothing else: the lockstep
   fuzzing flags are gone, and cmdliner refuses unknown options with 124. *)
let test_check_refuses_fuzz_flags () =
  List.iter
    (fun flag ->
      let code, text = dsched ("check " ^ flag) in
      Alcotest.(check int)
        (Printf.sprintf "%s: exit 124 (got: %s)" flag text)
        124 code)
    [ "--fuzz 1"; "--no-native"; "--seed 1"; "--verbose" ]

let tests =
  [
    Alcotest.test_case "--checkpoint rejects non-positive values" `Quick
      test_checkpoint_rejects_nonpositive;
    Alcotest.test_case "--checkpoint rejects non-numeric values" `Quick
      test_checkpoint_rejects_nonnumeric;
    Alcotest.test_case "--shards rejects non-positive values" `Quick
      test_shards_rejects_nonpositive;
    Alcotest.test_case "--shards rejects non-numeric values" `Quick
      test_shards_rejects_nonnumeric;
    Alcotest.test_case "replication flags validate their prerequisites" `Quick
      test_repl_flag_preconditions;
    Alcotest.test_case "--queue-cap rejects non-positive values" `Quick
      (rejects "--queue-cap" ~needle:"--queue-cap must be positive"
         [ " 0"; "=-3" ]);
    Alcotest.test_case "--clients rejects non-positive values" `Quick
      (rejects "--clients" ~needle:"--clients must be positive" [ "=-5"; " 0" ]);
    Alcotest.test_case "--objects rejects non-positive values" `Quick
      (rejects "--objects" ~needle:"--objects must be positive" [ " 0" ]);
    Alcotest.test_case "recover --repair reports a torn segment once, merged"
      `Quick test_recover_repair_segment_dir;
    Alcotest.test_case "run refuses a bad combination before the standby" `Quick
      test_run_validates_before_standby;
    Alcotest.test_case "recover reports a hole in a journal" `Quick test_recover_reports_hole;
    Alcotest.test_case "check refuses the removed fuzzing flags" `Quick
      test_check_refuses_fuzz_flags;
  ]
