(* Incrementally maintained views against full re-evaluation: a
   materialized plan must keep answering exactly what a fresh evaluation of
   the same query answers, whatever the base tables go through, and a
   protocol whose Listing 1 runs on views must schedule exactly like the one
   that recomputes it every cycle. *)

open Ds_sql
open Ds_relal
open Ds_core

(* Views show up in the plan as scans of tables named view(...). *)
let view_scans plan =
  let text = Format.asprintf "%a" Ra.pp_plan plan and needle = "Scan(view(" in
  let n = String.length needle in
  let hits = ref 0 in
  for i = 0 to String.length text - n do
    if String.sub text i n = needle then incr hits
  done;
  !hits

(* --- property: views track random mutations ------------------------------ *)

(* Mostly the small ints [Test_sql_random]'s tables and constants use; also
   negative ones and ones past 2^30, which do not pack into a two-column int
   key, and each of them as an integral float, which SQL equates with the
   int. *)
let cell rng =
  if Ds_sim.Rng.int rng 6 = 0 then Value.Null
  else
    let n =
      if Ds_sim.Rng.int rng 4 = 0 then Ds_sim.Rng.pick rng [| -2; 1 lsl 30; (1 lsl 40) + 3 |]
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

(* [Test_sql_random]'s queries reach semi/anti joins; these shapes add
   DISTINCT and UNION ALL over them, whose counting rules see duplicates
   here. *)
let view_query rng =
  let exists alias =
    Printf.sprintf "%sEXISTS (SELECT * FROM t sub WHERE sub.a = %s.%s)"
      (if Ds_sim.Rng.bool rng then "NOT " else "")
      alias
      (Ds_sim.Rng.pick rng [| "a"; "b" |])
  in
  match Ds_sim.Rng.int rng 4 with
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

(* The [`Full] plan runs as a standing plan — views, then the compiled
   runner — and each of its rows must equal the reference's: [Eval.run] of
   the unoptimized plan. Without the ORDER BY, the standing plan must also
   list its rows in the order [Eval.run] lists those of the same plan
   materialized beside it. *)
let view_equivalence =
  QCheck2.Test.make ~name:"views: a materialized plan tracks random mutations"
    ~count:(Helpers.Config.qcheck_count 250)
    QCheck2.Gen.int
    (fun seed ->
      let rng = Ds_sim.Rng.create seed in
      let cat = Test_sql_random.build_db rng in
      let sql = view_query rng in
      let plan = Exec.prepare ~optimize:`Full cat sql in
      let run = View.standing plan in
      let reference = Exec.prepare ~optimize:`None cat sql in
      let bare = unordered sql in
      let run_bare = View.standing (Exec.prepare ~optimize:`Full cat bare) in
      let materialized = View.materialize (Exec.prepare ~optimize:`Full cat bare) in
      let same a b =
        List.equal (List.equal Value.equal) (Test_sql_random.normalize a)
          (Test_sql_random.normalize b)
      in
      let check step =
        (* Value by value: [Int 1] and [Float 1.] are the same SQL value,
           and which of them a DISTINCT keeps is not fixed. *)
        if not (same (run ()) (Eval.run reference)) then
          QCheck2.Test.fail_reportf "standing plan result differs %s on:@.%s@.%a" step sql
            Ra.pp_plan plan;
        if not (same (run_bare ()) (Eval.run materialized)) then
          QCheck2.Test.fail_reportf "standing plan row order differs %s on:@.%s@.%a" step bare
            Ra.pp_plan materialized
      in
      check "after preparation";
      for batch = 1 to 1 + Ds_sim.Rng.int rng 6 do
        for _ = 1 to 1 + Ds_sim.Rng.int rng 3 do
          mutate rng (Catalog.find cat (if Ds_sim.Rng.bool rng then "s" else "t"))
        done;
        check (Printf.sprintf "after batch %d" batch)
      done;
      true)

(* The generator must reach views often, or the property proves little. *)
let test_generator_reaches_views () =
  let with_views = ref 0 in
  for seed = 1 to 200 do
    let rng = Ds_sim.Rng.create seed in
    let cat = Test_sql_random.build_db rng in
    let plan =
      View.materialize (Exec.prepare ~optimize:`Full cat (view_query rng))
    in
    if view_scans plan > 0 then incr with_views
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 200 random queries have a view" !with_views)
    true (!with_views >= 80)

let test_listing1_views () =
  let rels = Relations.create () in
  let plan = View.materialize (Exec.prepare rels.Relations.catalog Queries.ss2pl) in
  let text = Format.asprintf "%a" Ra.pp_plan plan in
  Alcotest.(check int) "RLockedObjects and WLockedObjects are views" 2 (view_scans plan);
  Alcotest.(check bool) "history is read only through views" false
    (Helpers.contains text "Scan(history");
  (* A placeholder is never inside a view: rationing's threshold test sits
     above RLockedObjects' anti-joins, which still become a view, and reads
     the bound value at query time. *)
  let prepared = Exec.prepare_params rels.Relations.catalog Queries.rationing_parameterized in
  let plan = View.materialize (Exec.prepared_plan prepared) in
  Alcotest.(check int) "rationing: both lock tables are views" 2 (view_scans plan);
  Alcotest.(check bool) "rationing: the placeholder stays in the plan" true
    (Helpers.contains (Format.asprintf "%a" Ra.pp_plan plan) "?=")

(* A bag view with duplicate rows under one key: a delete from the middle
   of the key's rows, then of the newest, then of one of two duplicates,
   then the whole key's rows moving out (matched by an equal float) and
   back in, oldest first. *)
let test_bucket_edits () =
  let cat = Catalog.create () in
  List.iter
    (fun name ->
      ignore (Exec.exec cat (Printf.sprintf "CREATE TABLE %s (a INT, b INT, c TEXT)" name)))
    [ "s"; "t" ];
  let s = Catalog.find cat "s" and t = Catalog.find cat "t" in
  let row b c = [| Value.Int 1; Value.Int b; Value.Str c |] in
  Table.insert_many s [ row 1 "p"; row 2 "q"; row 1 "p"; row 3 "r" ];
  let sql =
    "SELECT x.a, x.b, x.c FROM s x WHERE NOT EXISTS (SELECT * FROM t y WHERE y.a = x.a)"
  in
  let plan = View.materialize (Exec.prepare ~optimize:`Full cat sql) in
  Alcotest.(check int) "the query is one view" 1 (view_scans plan);
  let check step =
    Alcotest.(check (list (list (of_pp Value.pp))))
      step
      (Test_sql_random.normalize (snd (Exec.query ~optimize:`None cat sql)))
      (Test_sql_random.normalize (Eval.run plan))
  in
  check "filled";
  ignore (Table.delete_where s (fun r -> r.(1) = Value.Int 2));
  check "a middle row deleted";
  ignore (Table.delete_where s (fun r -> r.(1) = Value.Int 3));
  check "the newest row deleted";
  let once = ref true in
  ignore
    (Table.delete_where s (fun r ->
         let hit = !once && r.(1) = Value.Int 1 in
         if hit then once := false;
         hit));
  check "one of two duplicates deleted";
  Table.insert s (row 4 "s");
  Table.insert t [| Value.Float 1.; Value.Null; Value.Null |];
  check "the key's rows moved out";
  Alcotest.(check int) "nothing left" 0 (List.length (Eval.run plan));
  ignore (Table.delete_where t (fun _ -> true));
  check "the key's rows moved back in, oldest first"

(* Two-column int keys pack into one int while both fit 31 bits: pairs on
   both sides of that boundary must join exactly with themselves. *)
let test_pair_keys () =
  let cat = Catalog.create () in
  List.iter
    (fun name ->
      ignore (Exec.exec cat (Printf.sprintf "CREATE TABLE %s (a INT, b INT, c TEXT)" name)))
    [ "s"; "t" ];
  let s = Catalog.find cat "s" and t = Catalog.find cat "t" in
  let edge = [ -(1 lsl 30) - 1; -(1 lsl 30); -1; 0; 1; (1 lsl 30) - 1; 1 lsl 30 ] in
  let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) edge) edge in
  let row (a, b) = [| Value.Int a; Value.Int b; Value.Null |] in
  Table.insert_many s (List.map row pairs);
  let sql =
    "SELECT x.a, x.b FROM s x WHERE NOT EXISTS (SELECT * FROM t y WHERE y.a = x.a AND y.b = \
     x.b) ORDER BY 1, 2"
  in
  let plan = View.materialize (Exec.prepare ~optimize:`Full cat sql) in
  Alcotest.(check int) "the anti-join is a view" 1 (view_scans plan);
  List.iter
    (fun pair ->
      Table.insert t (row pair);
      Alcotest.(check (list (list (of_pp Value.pp))))
        "after one more right row"
        (Test_sql_random.normalize (snd (Exec.query ~optimize:`None cat sql)))
        (Test_sql_random.normalize (Eval.run plan)))
    pairs

(* --- oracle: views vs recomputation in whole middleware runs ------------- *)

(* A mid-run crash rebuilds history from the checkpointed journal, straight
   into the table: the views must follow that path too. *)
let test_crash_checkpointed () =
  let tweak c =
    { c with Middleware.faults = Helpers.plan_exn "crash=40"; checkpoint_interval = Some 10 }
  in
  let views = Helpers.whole_run ~tweak Builtin.ss2pl_sql in
  Alcotest.(check int) "crashed once" 1 (fst views).Middleware.crashes;
  Helpers.same_run "S=1 crash" views (Helpers.whole_run ~tweak (Builtin.ss2pl_sql_at `Basic))

let test_sharded () =
  let tweak c = { c with Middleware.shards = 4; journal_path = None } in
  Helpers.same_run "S=4" (Helpers.whole_run ~tweak Builtin.ss2pl_sql)
    (Helpers.whole_run ~tweak (Builtin.ss2pl_sql_at `Basic))

(* The rationing boundary moves mid-run; the placeholder subplan is never a
   view, so the next cycle must already see the new boundary. *)
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
  let views = Helpers.whole_run (dynamic `Full) in
  Helpers.same_run "rationing-dynamic" views (Helpers.whole_run (dynamic `Basic));
  let unchanged = Helpers.whole_run (dynamic ~change:false `Full) in
  Alcotest.(check bool) "the boundary change mattered" false
    ((snd views).Middleware.merged_rte = (snd unchanged).Middleware.merged_rte)

let tests =
  [
    QCheck_alcotest.to_alcotest view_equivalence;
    Alcotest.test_case "random queries reach views" `Quick test_generator_reaches_views;
    Alcotest.test_case "listing 1 reads history only through views" `Quick
      test_listing1_views;
    Alcotest.test_case "views = recomputation: S=1 crash, checkpoints" `Quick
      test_crash_checkpointed;
    Alcotest.test_case "views = recomputation: S=4 shards" `Quick test_sharded;
    Alcotest.test_case "views = recomputation: rationing-dynamic" `Quick
      test_rationing_dynamic;
    Alcotest.test_case "bag view: edits under one key" `Quick test_bucket_edits;
    Alcotest.test_case "two-column int keys at the packing boundary" `Quick test_pair_keys;
  ]
