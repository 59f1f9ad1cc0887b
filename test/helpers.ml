(* Shared helpers for the test suite. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else begin
    let rec loop i =
      if i + n > h then false
      else if String.sub haystack i n = needle then true
      else loop (i + 1)
    in
    loop 0
  end

(* Deterministic request-batch generator used by several suites: random
   pending/history request sets with controlled conflicts. *)
open Ds_model

let random_requests rng ~n_txns ~ops_per_txn ~n_objects =
  let id = ref 0 in
  List.concat_map
    (fun ta ->
      List.init ops_per_txn (fun i ->
          incr id;
          let op =
            if i = ops_per_txn - 1 && Ds_sim.Rng.float rng < 0.3 then
              if Ds_sim.Rng.bool rng then Op.Commit else Op.Abort
            else if Ds_sim.Rng.bool rng then Op.Read
            else Op.Write
          in
          match op with
          | Op.Commit | Op.Abort ->
            Request.make ~id:!id ~ta ~intrata:(i + 1) ~op ()
          | Op.Read | Op.Write ->
            Request.make ~id:!id ~ta ~intrata:(i + 1) ~op
              ~obj:(Ds_sim.Rng.int rng n_objects) ()))
    (List.init n_txns (fun i -> i + 1))

(* Sorted (ta, intrata) pairs for set comparison. *)
let sorted_keys keys =
  List.sort_uniq
    (fun (a1, a2) (b1, b2) ->
      match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
    keys

(* Shrink-friendly QCheck2 batch generator: a batch is a list of
   (ta, op-tag, obj) triples over small ranges, so QCheck's integrated
   shrinking reduces a failing batch to a minimal one (fewer requests,
   smaller transaction/object ids) instead of mutating an opaque seed.
   Tags: 0 = read, 1 = write, 2 = commit, 3 = abort. Intrata counters are
   assigned per transaction in batch order, like a real submission stream. *)
let batch_gen ?(max_txns = 6) ?(max_objects = 8) ?(max_len = 24) () =
  QCheck2.Gen.(
    list_size (int_bound max_len)
      (triple (int_range 1 max_txns) (int_bound 3) (int_bound (max_objects - 1))))

let requests_of_triples triples =
  let next_intrata = Hashtbl.create 8 in
  let id = ref 0 in
  List.map
    (fun (ta, tag, obj) ->
      incr id;
      let intrata =
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt next_intrata ta) in
        Hashtbl.replace next_intrata ta n;
        n
      in
      match tag with
      | 0 -> Request.make ~id:!id ~ta ~intrata ~op:Op.Read ~obj ()
      | 1 -> Request.make ~id:!id ~ta ~intrata ~op:Op.Write ~obj ()
      | 2 -> Request.make ~id:!id ~ta ~intrata ~op:Op.Commit ()
      | _ -> Request.make ~id:!id ~ta ~intrata ~op:Op.Abort ())
    triples

(* All environment knobs the test suites honour, in one place (documented
   in README.md). Every parser fails loudly on a malformed value — a typo
   silently falling back to the default would void the coverage CI thinks
   it has (e.g. the whole middleware suite running at K=1 when the job
   meant K=4). *)
module Config = struct
  let pos_int_env name ~default =
    match Sys.getenv_opt name with
    | None -> default
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some n ->
        failwith
          (Printf.sprintf "%s must be a positive integer, got %d" name n)
      | None ->
        failwith
          (Printf.sprintf "%s must be a positive integer, got %S" name s))

  (* Pool size for the middleware-driven suites: CI runs the tests at both
     DS_WORKERS=1 (default) and DS_WORKERS=4. *)
  let workers () = pos_int_env "DS_WORKERS" ~default:1

  (* Scenarios the swarm smoke test runs; CI's PR job uses the default,
     the nightly job raises it. *)
  let swarm_n () = pos_int_env "DS_SWARM_N" ~default:25

  (* Multiplier on property-test case counts, for soak runs
     (DS_QCHECK_FACTOR=10 runs every property 10x longer). *)
  let qcheck_factor () = pos_int_env "DS_QCHECK_FACTOR" ~default:1

  let qcheck_count base = base * qcheck_factor ()
end

(* Backwards-compatible alias; new code should use [Config.workers]. *)
let env_workers = Config.workers

(* A single-lane middleware run with its scheduler, for inspecting the
   relations (rte, dead) afterwards. *)
let run_single cfg =
  let stats, h = Ds_core.Middleware.run_sharded cfg in
  (stats, h.Ds_core.Middleware.lane_schedulers.(0))

(* --- whole middleware runs that must match bit for bit -------------------- *)

(* A small journaled run: 12 clients for 2 virtual seconds over 2,000
   objects, host time not charged to the virtual clock, so two protocols
   that decide alike give identical runs. *)
let whole_run ?(tweak = Fun.id) protocol =
  let open Ds_core in
  let base =
    {
      Middleware.default_config with
      Middleware.n_clients = 12;
      duration = 2.;
      spec =
        {
          Ds_workload.Spec.paper_default with
          Ds_workload.Spec.n_objects = 2_000;
        };
      protocol;
      charge_scheduler_time = false;
    }
  in
  let path =
    Journal.temp_path ~shards:(tweak base).Middleware.shards "ds_whole_run"
  in
  Fun.protect ~finally:(fun () -> Journal.remove path) @@ fun () ->
  Middleware.run_sharded
    (tweak { base with Middleware.journal_path = Some path })

(* Host-time fields are measurements, everything else must match. *)
let deterministic = Ds_core.Middleware.without_host_time

let same_run name (sa, (ha : Ds_core.Middleware.handle)) (sb, (hb : Ds_core.Middleware.handle)) =
  Alcotest.(check bool) (name ^ ": committed something") true
    (sb.Ds_core.Middleware.committed_txns > 0);
  Alcotest.(check bool) (name ^ ": identical stats") true
    (deterministic sa = deterministic sb);
  Alcotest.(check bool) (name ^ ": identical rte") true
    (ha.Ds_core.Middleware.merged_rte = hb.Ds_core.Middleware.merged_rte)

let plan_exn s =
  match Ds_core.Faults.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S rejected: %s" s e

(* --- key=value plans, checked row by row from their tables ---------------- *)

(* A random plan: every knob on or off at random, and a duration that would
   be written set at random too; values are ones [%g] prints exactly. *)
let gen_plan (codec : 'p Ds_util.Kv.t) =
  let open QCheck2.Gen in
  let scaled lo hi d = map (fun k -> float_of_int k /. d) (int_range lo hi) in
  let value : type a. a Ds_util.Kv.kind -> a QCheck2.Gen.t = function
    | Ds_util.Kv.Rate -> scaled 0 1000 1000.
    | Ds_util.Kv.Seconds -> scaled 0 5000 1000.
    | Ds_util.Kv.Cycle -> opt (int_range 1 500)
    | Ds_util.Kv.Time -> opt (scaled 0 1000 100.)
    | Ds_util.Kv.Period -> opt (scaled 1 1000 100.)
  in
  List.fold_left
    (fun acc (Ds_util.Kv.Row r as row) ->
      acc >>= fun p ->
      match r.gate with
      | Some _ when not (Ds_util.Kv.shown row p) -> return p
      | _ -> map (r.set p) (value r.kind))
    (return codec.Ds_util.Kv.none)
    codec.Ds_util.Kv.rows

(* Values each kind must refuse: out of its range, or not a number of its
   type at all. *)
let bad_values : type a. a Ds_util.Kv.kind -> string list = function
  | Ds_util.Kv.Rate -> [ "-0.1"; "1.5"; "nan"; "lots" ]
  | Ds_util.Kv.Seconds -> [ "-1"; "nan"; "long" ]
  | Ds_util.Kv.Cycle -> [ "0"; "-3"; "2.5"; "soon" ]
  | Ds_util.Kv.Time -> [ "-1"; "nan"; "later" ]
  | Ds_util.Kv.Period -> [ "0"; "-1"; "nan"; "often" ]

(* What every plan codec must do, for each row of its table: random plans
   round-trip as records, the printed plan is "none" exactly when no knob
   is on, and every key refuses a bad value. *)
let plan_codec_tests name (codec : 'p Ds_util.Kv.t) =
  let print = Ds_util.Kv.to_string codec in
  let roundtrip =
    QCheck2.Test.make ~name:(name ^ " plans round-trip as records")
      ~count:(Config.qcheck_count 300) ~print (gen_plan codec) (fun p ->
        Ds_util.Kv.of_string codec (print p) = Ok p)
  in
  let none =
    QCheck2.Test.make ~name:(name ^ " plan is none iff it prints none")
      ~count:(Config.qcheck_count 300) ~print (gen_plan codec) (fun p ->
        Ds_util.Kv.is_none codec p = (print p = "none"))
  in
  let rejects () =
    List.iter
      (fun (Ds_util.Kv.Row r) ->
        List.iter
          (fun v ->
            let spec = r.key ^ "=" ^ v in
            match Ds_util.Kv.of_string codec spec with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s plan %S was accepted" name spec)
          (bad_values r.kind))
      codec.Ds_util.Kv.rows
  in
  [
    QCheck_alcotest.to_alcotest roundtrip;
    QCheck_alcotest.to_alcotest none;
    Alcotest.test_case (name ^ " plan keys reject bad values") `Quick rejects;
  ]
