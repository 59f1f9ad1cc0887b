(* CLI argument validation: the strict numeric converters behind
   --checkpoint, --shards and the other numeric run flags, and the
   replication flag preconditions; what [recover --repair] reports on a
   segment directory; and that [check] only validates a logged schedule.
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
    Alcotest.test_case "check refuses the removed fuzzing flags" `Quick
      test_check_refuses_fuzz_flags;
  ]
