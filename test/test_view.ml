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

let cell rng =
  if Ds_sim.Rng.int rng 6 = 0 then Value.Null else Value.Int (Ds_sim.Rng.int rng 4)

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

let view_equivalence =
  QCheck2.Test.make ~name:"views: a materialized plan tracks random mutations"
    ~count:(Helpers.Config.qcheck_count 250)
    QCheck2.Gen.int
    (fun seed ->
      let rng = Ds_sim.Rng.create seed in
      let cat = Test_sql_random.build_db rng in
      let sql = view_query rng in
      let plan = View.materialize (Exec.prepare ~optimize:`Full cat sql) in
      let check step =
        let got = Test_sql_random.normalize (Eval.run plan) in
        let want = Test_sql_random.normalize (snd (Exec.query ~optimize:`None cat sql)) in
        if got <> want then
          QCheck2.Test.fail_reportf "view result differs %s on:@.%s@.%a" step sql
            Ra.pp_plan plan
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
        ~guarantee:(Protocol.Custom "rationed") ~ordered:false
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
  ]
