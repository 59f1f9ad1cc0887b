(* Standing plans against the reference: a compiled plan must answer
   exactly what [Eval.run] of the same plan answers, rows and order,
   whatever the base tables go through and with or without their indexes,
   and a protocol whose Listing 1 runs as a standing plan must schedule
   exactly like the one that evaluates it afresh every cycle. *)

open Ds_sql
open Ds_relal
open Ds_core

let with_indexes on f =
  let saved = !Eval.use_table_indexes in
  Eval.use_table_indexes := on;
  Fun.protect ~finally:(fun () -> Eval.use_table_indexes := saved) f

(* The standing runner and the reference on the same plan, indexes on and
   off; [None] when they agree row for row. *)
let disagreement plan run =
  List.find_map
    (fun on ->
      let got, expected = with_indexes on (fun () -> (run (), Eval.run plan)) in
      if got = expected then None
      else
        Some
          (Format.asprintf "indexes %b:@.standing %a@.eval     %a" on
             Fmt.(Dump.list (Dump.array Value.pp))
             got
             Fmt.(Dump.list (Dump.array Value.pp))
             expected))
    [ true; false ]

(* --- property: standing plans track random mutations ---------------------- *)

(* Mostly the small ints [Test_sql_random]'s tables and constants use; also
   negative ones, ones on both sides of the 31-bit boundary a two-column key
   packs within, and one past 2^40, each also as an integral float, which
   SQL equates with the int. *)
let cell rng =
  if Ds_sim.Rng.int rng 6 = 0 then Value.Null
  else
    let n =
      if Ds_sim.Rng.int rng 4 = 0 then
        Ds_sim.Rng.pick rng [| -2; (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30) - 1; (1 lsl 40) + 3 |]
      else Ds_sim.Rng.int rng 4
    in
    if Ds_sim.Rng.int rng 4 = 0 then Value.Float (float_of_int n) else Value.Int n

let text rng =
  if Ds_sim.Rng.int rng 6 = 0 then Value.Null
  else Value.Str (String.make 1 (Char.chr (Char.code 'p' + Ds_sim.Rng.int rng 3)))

let random_row rng = [| cell rng; cell rng; text rng |]

(* A random test on one row: a column against a random value, or a coin. *)
let random_pred rng =
  let col = Ds_sim.Rng.int rng 3 in
  let v = if col = 2 then text rng else cell rng in
  if Ds_sim.Rng.bool rng then fun row -> Value.equal row.(col) v
  else fun _ -> Ds_sim.Rng.int rng 3 = 0

let mutate rng t =
  match Ds_sim.Rng.int rng 5 with
  | 0 -> Table.insert t (random_row rng)
  | 1 -> Table.insert_many t (List.init (Ds_sim.Rng.int rng 5) (fun _ -> random_row rng))
  | 2 -> ignore (Table.delete_where t (random_pred rng))
  | 3 ->
    let col = Ds_sim.Rng.int rng 3 in
    let v = if col = 2 then text rng else cell rng in
    ignore (Table.update_where t (random_pred rng) (fun row -> row.(col) <- v))
  | _ -> Table.clear t

(* [Test_sql_random]'s queries reach semi/anti joins; these shapes add the
   ones a standing plan probes per key: DISTINCT and UNION ALL over them,
   an inner join whose right side is a lock-table-like chain, two-column
   keys, a UNION under IN, and filters pinning an indexed column to
   constants, within a join and at the top. *)
let standing_query rng =
  let neg () = if Ds_sim.Rng.bool rng then "NOT " else "" in
  let col () = Ds_sim.Rng.pick rng [| "a"; "b" |] in
  let exists alias =
    Printf.sprintf "%sEXISTS (SELECT * FROM t sub WHERE sub.a = %s.%s)" (neg ()) alias (col ())
  in
  match Ds_sim.Rng.int rng 9 with
  | 0 ->
    Printf.sprintf "SELECT DISTINCT x.b, x.c FROM s x WHERE %s AND %s ORDER BY 1, 2"
      (exists "x")
      (Test_sql_random.rand_pred rng [ "x" ] 1)
  | 1 ->
    Printf.sprintf
      "(SELECT DISTINCT x.a, x.c FROM s x WHERE %s) UNION ALL (SELECT y.b, y.c \
       FROM t y WHERE %s) ORDER BY 1, 2"
      (exists "x")
      (Test_sql_random.rand_pred rng [ "y" ] 1)
  | 2 ->
    Printf.sprintf
      "SELECT x.a, x.c, y.b FROM s x, (SELECT DISTINCT u.a, u.b FROM t u WHERE %s AND \
       %sEXISTS (SELECT * FROM s w WHERE w.%s = u.%s)) y WHERE x.%s = y.a AND x.c <> 'q' \
       ORDER BY 1, 2, 3"
      (Test_sql_random.rand_pred rng [ "u" ] 1)
      (neg ()) (col ()) (col ()) (col ())
  | 3 ->
    Printf.sprintf
      "SELECT x.a, x.b FROM s x WHERE %sEXISTS (SELECT * FROM t y WHERE y.a = x.%s AND y.b = \
       x.%s) ORDER BY 1, 2"
      (neg ()) (col ()) (col ())
  | 4 ->
    Printf.sprintf
      "SELECT * FROM s x WHERE x.%s %sIN (SELECT d.a FROM ((SELECT a, b FROM t WHERE %s) UNION \
       (SELECT b, a FROM s)) d) ORDER BY 1, 2, 3"
      (col ()) (neg ())
      (Test_sql_random.rand_pred rng [ "t" ] 1)
  | 5 ->
    Printf.sprintf
      "SELECT x.a, y.c FROM s x, t y WHERE x.a = y.%s AND (y.%s = %s OR y.%s = 1 OR y.%s = 1.0) \
       ORDER BY 1, 2"
      (col ()) "b" (Test_sql_random.rand_const rng) "b" "b"
  | 6 ->
    Printf.sprintf "SELECT * FROM %s x WHERE x.%s = %s OR x.%s IN (1, 2.0) OR x.%s = 3"
      (Ds_sim.Rng.pick rng [| "s"; "t" |])
      (col ()) (Test_sql_random.rand_const rng) (col ()) (col ())
  | _ -> Test_sql_random.rand_query rng

(* The query without its ORDER BY (and LIMIT), whose row order is then the
   plan's own. *)
let unordered sql =
  let n = String.length sql and key = " ORDER BY " in
  let rec find i =
    if i + String.length key > n then sql
    else if String.sub sql i (String.length key) = key then String.sub sql 0 i
    else find (i + 1)
  in
  find 0

let random_plan rng =
  let cat = Test_sql_random.build_db rng in
  let sql = standing_query rng in
  let sql = if Ds_sim.Rng.bool rng then unordered sql else sql in
  (cat, sql, Exec.prepare ~optimize:`Full cat sql)

let standing_equivalence =
  QCheck2.Test.make ~name:"standing plans: Eval.run's rows and order after random mutations"
    ~count:(Helpers.Config.qcheck_count 250)
    QCheck2.Gen.int
    (fun seed ->
      let rng = Ds_sim.Rng.create seed in
      let cat, sql, plan = random_plan rng in
      let run = Standing.standing plan in
      let check step =
        Option.iter
          (fun diff ->
            QCheck2.Test.fail_reportf "%s, %s on:@.%s@.%a" step diff sql Ra.pp_plan plan)
          (disagreement plan run)
      in
      check "after preparation";
      for batch = 1 to 1 + Ds_sim.Rng.int rng 6 do
        for _ = 1 to 1 + Ds_sim.Rng.int rng 3 do
          mutate rng (Catalog.find cat (if Ds_sim.Rng.bool rng then "s" else "t"))
        done;
        check (Printf.sprintf "after batch %d" batch)
      done;
      true)

let probes_per_key plan =
  List.exists
    (fun r -> match r.Standing.access with Standing.Probe (_, `Rows_of _) -> true | _ -> false)
    (Standing.reads plan)

(* The generator must reach per-key probes often, or the property proves
   little. *)
let test_generator_reaches_probes () =
  let hits = ref 0 in
  for seed = 1 to 200 do
    let _, _, plan = random_plan (Ds_sim.Rng.create seed) in
    if probes_per_key plan then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 200 random queries probe per key" !hits)
    true (!hits >= 80)

(* Keys the packing rules tell apart: duplicate rows under one key, an int
   against the equal float, two-column keys on both sides of the 31-bit
   packing boundary, and NULLs. [key_edges ()] fills [s] and [t] with them
   and returns a check of five keyed joins over the two tables. *)
let edge = [ -(1 lsl 30) - 1; -(1 lsl 30); -1; 0; 1; (1 lsl 30) - 1; 1 lsl 30 ]
let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) edge) edge
let pair_row ?(c = Value.Null) (a, b) = [| Value.Int a; Value.Int b; c |]
let in_t i = i mod 3 = 0

let key_edges () =
  let cat = Catalog.create () in
  List.iter
    (fun name ->
      ignore (Exec.exec cat (Printf.sprintf "CREATE TABLE %s (a INT, b INT, c TEXT)" name));
      let t = Catalog.find cat name in
      Table.create_index t [ 0 ];
      Table.create_index t [ 1 ])
    [ "s"; "t" ];
  let s = Catalog.find cat "s" and t = Catalog.find cat "t" in
  Table.insert_many s (List.map pair_row pairs);
  Table.insert_many s
    [
      pair_row ~c:(Value.Str "p") (1, 1);
      pair_row ~c:(Value.Str "p") (1, 1);
      [| Value.Float 1.; Value.Int 2; Value.Str "q" |];
      [| Value.Null; Value.Int 1; Value.Str "r" |];
      [| Value.Int 1; Value.Null; Value.Str "r" |];
    ];
  Table.insert_many t
    (List.filteri (fun i _ -> in_t i) (List.map pair_row pairs)
    @ [ [| Value.Float 1.; Value.Float 1.; Value.Null |]; [| Value.Null; Value.Null; Value.Null |] ]);
  let queries =
    [
      "SELECT x.a, x.b FROM s x WHERE NOT EXISTS (SELECT * FROM t y WHERE y.a = x.a AND y.b = \
       x.b)";
      "SELECT x.a, x.b, x.c FROM s x WHERE EXISTS (SELECT * FROM t y WHERE y.a = x.a AND y.b = \
       x.b)";
      "SELECT x.a, x.b, y.c FROM s x, t y WHERE x.a = y.a AND x.b = y.b";
      "SELECT DISTINCT x.a, x.c FROM s x WHERE EXISTS (SELECT * FROM t y WHERE y.a = x.b)";
      "SELECT x.c, y.a, y.b FROM s x, (SELECT DISTINCT a, b FROM t WHERE NOT EXISTS (SELECT * \
       FROM s z WHERE z.b = t.b AND z.c = 'p')) y WHERE x.a = y.a";
    ]
  in
  let plans =
    List.map
      (fun sql ->
        let plan = Exec.prepare ~optimize:`Full cat sql in
        (sql, plan, Standing.standing plan))
      queries
  in
  let check step =
    List.iter
      (fun (sql, plan, run) ->
        Option.iter
          (fun diff -> Alcotest.failf "%s: %s on %s" step diff sql)
          (disagreement plan run))
      plans
  in
  check "filled";
  (s, t, check)

(* Edits under one key: deletes from the middle of a key's rows and of one
   of two duplicates, updates to an equal float key, and a clear. *)
let test_bucket_edits () =
  let s, t, check = key_edges () in
  let once p =
    let pending = ref true in
    fun r ->
      let hit = !pending && p r in
      if hit then pending := false;
      hit
  in
  ignore (Table.delete_where s (once (fun r -> r.(0) = Value.Int 1 && r.(1) = Value.Int 0)));
  check "a middle row of a key deleted";
  ignore (Table.delete_where s (once (fun r -> r.(2) = Value.Str "p")));
  check "one of two duplicates deleted";
  ignore (Table.update_where t (fun r -> r.(0) = Value.Int 0) (fun r -> r.(0) <- Value.Float 1.));
  check "keys moved to an equal float";
  Table.clear t;
  check "right side cleared"

(* Two-column int keys pack into one int while both fit 31 bits: pairs on
   both sides of that boundary must join exactly with themselves, as right
   rows arrive one at a time and as the boundary keys leave. *)
let test_pair_keys () =
  let _, t, check = key_edges () in
  List.iteri
    (fun i pair ->
      if not (in_t i) then begin
        Table.insert t (pair_row pair);
        check "after one more right row"
      end)
    pairs;
  ignore (Table.delete_where t (fun r -> r.(1) = Value.Int ((1 lsl 30) - 1)));
  check "keys at the boundary gone"

(* Listing 1 and every other [`Full] protocol query read history only by
   index probes, keyed by the pending requests' columns or by constants: a
   cycle costs the pending batch, not the history. Only a join whose probes
   of the run already walked as many rows may read a right side whole. *)
let test_history_probed_per_request () =
  let rels = Relations.create () in
  let cat = rels.Relations.catalog in
  let plans =
    ("rationing-dynamic", Exec.prepared_plan (Exec.prepare_params cat Queries.rationing_parameterized))
    :: List.map
         (fun (name, sql) -> (name, Exec.prepare ~optimize:`Full cat sql))
         [
           ("ss2pl", Queries.ss2pl);
           ("ss2pl-ordered", Queries.ss2pl_ordered);
           ("read-committed", Queries.read_committed);
           ("c2pl", Queries.c2pl);
           ("reader-offload", Queries.reader_offload);
           ("rationing", Queries.rationing ~threshold:1000);
           ("sla-ordered", Queries.sla_ordered);
         ]
  in
  List.iter
    (fun (name, plan) ->
      let history = List.filter (fun r -> r.Standing.table = "history") (Standing.reads plan) in
      Alcotest.(check bool) (name ^ ": history is probed per request") true
        (List.exists
           (fun r -> r.Standing.access = Standing.Probe ([ 4 ], `Rows_of "requests"))
           history);
      List.iter
        (fun r ->
          match r.Standing.access with
          | Standing.Probe (_, (`Const | `Rows_of "requests")) -> ()
          | _ when r.Standing.on_demand -> ()
          | Standing.Probe (_, `Rows_of other) ->
            Alcotest.failf "%s: history probed per %s row in every cycle" name other
          | Standing.Whole -> Alcotest.failf "%s: history read whole in every cycle" name)
        history)
    plans

(* --- oracle: standing plans vs recomputation in whole middleware runs ---- *)

(* A mid-run crash rebuilds history from the checkpointed journal, straight
   into the table: the standing plan must read the rebuilt indexes. *)
let test_crash_checkpointed () =
  let tweak c =
    { c with Middleware.faults = Helpers.plan_exn "crash=40"; checkpoint_interval = Some 10 }
  in
  let standing = Helpers.whole_run ~tweak Builtin.ss2pl_sql in
  Alcotest.(check int) "crashed once" 1 (fst standing).Middleware.crashes;
  Helpers.same_run "S=1 crash" standing (Helpers.whole_run ~tweak (Builtin.ss2pl_sql_at `Basic))

let test_sharded () =
  let tweak c = { c with Middleware.shards = 4; journal_path = None } in
  Helpers.same_run "S=4" (Helpers.whole_run ~tweak Builtin.ss2pl_sql)
    (Helpers.whole_run ~tweak (Builtin.ss2pl_sql_at `Basic))

(* The rationing boundary moves mid-run; the placeholder is read in every
   run, so the next cycle must already see the new boundary. *)
let test_rationing_dynamic () =
  let dynamic ?(change = true) optimize =
    let proto, set =
      Protocol.of_sql_dynamic ~optimize ~name:"rationing-dynamic"
        ~guarantee:(Protocol.Custom "rationed")
        ~initial:(Value.Int 2_000) Queries.rationing_parameterized
    in
    let prepare rels =
      let qualify = proto.Protocol.prepare rels in
      let calls = ref 0 in
      fun () ->
        let keys = qualify () in
        incr calls;
        if change && !calls = 60 then set (Value.Int 0);
        keys
    in
    { proto with Protocol.prepare }
  in
  let standing = Helpers.whole_run (dynamic `Full) in
  Helpers.same_run "rationing-dynamic" standing (Helpers.whole_run (dynamic `Basic));
  let unchanged = Helpers.whole_run (dynamic ~change:false `Full) in
  Alcotest.(check bool) "the boundary change mattered" false
    ((snd standing).Middleware.merged_rte = (snd unchanged).Middleware.merged_rte)

let tests =
  [
    QCheck_alcotest.to_alcotest standing_equivalence;
    Alcotest.test_case "random queries reach per-key probes" `Quick
      test_generator_reaches_probes;
  ]

(* These checks keep the names they had when Listing 1's lock tables were
   maintained as views, so their history reads on across that change. *)
let view_tests =
  [
    Alcotest.test_case "bag view: edits under one key" `Quick test_bucket_edits;
    Alcotest.test_case "two-column int keys at the packing boundary" `Quick test_pair_keys;
    Alcotest.test_case "listing 1 reads history only through views" `Quick
      test_history_probed_per_request;
    Alcotest.test_case "views = recomputation: S=1 crash, checkpoints" `Quick
      test_crash_checkpointed;
    Alcotest.test_case "views = recomputation: S=4 shards" `Quick test_sharded;
    Alcotest.test_case "views = recomputation: rationing-dynamic" `Quick
      test_rationing_dynamic;
  ]
