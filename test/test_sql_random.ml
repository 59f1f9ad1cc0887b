(* Whole-pipeline property tests: random SQL queries over random data must
   (a) produce identical results at every optimizer level and with/without
   table-index probing, and (b) never crash the engine. The generator emits
   query *text*, so the lexer, parser, binder, optimizer and evaluator are
   all on the path. *)

open Ds_sql
open Ds_relal

let columns = [ "a"; "b"; "c" ]

(* Random database: two three-column tables with small value domains (so
   joins and filters actually select) and some NULLs. *)
let build_db rng =
  let cat = Catalog.create () in
  let mk name rows =
    ignore
      (Exec.exec cat
         (Printf.sprintf "CREATE TABLE %s (a INT, b INT, c TEXT)" name));
    let t = Catalog.find cat name in
    for _ = 1 to rows do
      let cell () =
        if Ds_sim.Rng.int rng 6 = 0 then Value.Null
        else Value.Int (Ds_sim.Rng.int rng 4)
      in
      let s () =
        if Ds_sim.Rng.int rng 6 = 0 then Value.Null
        else Value.Str (String.make 1 (Char.chr (Char.code 'p' + Ds_sim.Rng.int rng 3)))
      in
      Table.insert t [| cell (); cell (); s () |]
    done;
    (* Declare indexes so the hash probe paths (join, point filter) get
       exercised. *)
    Table.create_index t [ 0 ];
    Table.create_index t [ 1 ]
  in
  mk "s" (Ds_sim.Rng.int rng 8);
  mk "t" (1 + Ds_sim.Rng.int rng 8);
  cat

let rand_const rng =
  match Ds_sim.Rng.int rng 5 with
  | 0 -> "NULL"
  | 1 -> Printf.sprintf "'%c'" (Char.chr (Char.code 'p' + Ds_sim.Rng.int rng 3))
  | _ -> string_of_int (Ds_sim.Rng.int rng 4)

let rand_ref rng aliases =
  let alias = Ds_sim.Rng.pick rng (Array.of_list aliases) in
  let col = Ds_sim.Rng.pick rng (Array.of_list columns) in
  alias ^ "." ^ col

let rec rand_pred rng aliases depth =
  if depth = 0 || Ds_sim.Rng.int rng 3 = 0 then begin
    match Ds_sim.Rng.int rng 6 with
    | 0 -> Printf.sprintf "%s IS NULL" (rand_ref rng aliases)
    | 1 -> Printf.sprintf "%s IS NOT NULL" (rand_ref rng aliases)
    | 2 ->
      Printf.sprintf "%s IN (%s, %s)" (rand_ref rng aliases) (rand_const rng)
        (rand_const rng)
    | 3 ->
      Printf.sprintf "%s %s %s" (rand_ref rng aliases)
        (Ds_sim.Rng.pick rng [| "="; "<>"; "<"; "<="; ">"; ">=" |])
        (rand_ref rng aliases)
    | _ ->
      Printf.sprintf "%s %s %s" (rand_ref rng aliases)
        (Ds_sim.Rng.pick rng [| "="; "<>"; "<" |])
        (rand_const rng)
  end
  else begin
    match Ds_sim.Rng.int rng 4 with
    | 0 ->
      Printf.sprintf "(%s AND %s)"
        (rand_pred rng aliases (depth - 1))
        (rand_pred rng aliases (depth - 1))
    | 1 ->
      Printf.sprintf "(%s OR %s)"
        (rand_pred rng aliases (depth - 1))
        (rand_pred rng aliases (depth - 1))
    | 2 -> Printf.sprintf "(NOT %s)" (rand_pred rng aliases (depth - 1))
    | _ ->
      (* Correlated (NOT) EXISTS: exercises decorrelation. *)
      let neg = if Ds_sim.Rng.bool rng then "NOT " else "" in
      Printf.sprintf "%sEXISTS (SELECT * FROM t sub WHERE sub.a = %s%s)" neg
        (rand_ref rng aliases)
        (if Ds_sim.Rng.bool rng then
           Printf.sprintf " AND sub.b %s %s"
             (Ds_sim.Rng.pick rng [| "="; "<>" |])
             (rand_const rng)
         else "")
  end

(* A correlated (NOT) EXISTS whose predicate is a key equality AND a
   disjunction — the shape the optimizer splits into one anti-join per
   disjunct. Disjuncts mix correlated tests with constant-only ones. *)
let disjunctive_exists rng =
  let outer () = "x." ^ Ds_sim.Rng.pick rng [| "a"; "b" |] in
  let disjunct () =
    match Ds_sim.Rng.int rng 5 with
    | 0 -> Printf.sprintf "sub.b = %s" (outer ())
    | 1 -> Printf.sprintf "(sub.b = %s AND sub.c = %s)" (outer ()) (rand_const rng)
    | 2 -> Printf.sprintf "sub.c = %s" (rand_const rng)
    | 3 -> Printf.sprintf "sub.b <> %s" (outer ())
    | _ -> Printf.sprintf "%s = %s" (outer ()) (rand_const rng)
  in
  let ds = List.init (2 + Ds_sim.Rng.int rng 2) (fun _ -> disjunct ()) in
  Printf.sprintf "%sEXISTS (SELECT * FROM t sub WHERE sub.a = %s AND (%s))"
    (if Ds_sim.Rng.bool rng then "NOT " else "")
    (outer ()) (String.concat " OR " ds)

(* DISTINCT where its consumer ignores duplicates — EXCEPT's right input,
   an IN or a NOT EXISTS subquery, reached through a join, a projection, a
   filter or a UNION ALL — which the optimizer drops, and at the top, where
   the duplicates show and it must stay. *)
let distinct_query rng =
  let pairs () =
    match Ds_sim.Rng.int rng 3 with
    | 0 -> Printf.sprintf "(SELECT DISTINCT a, b FROM t WHERE %s)" (rand_pred rng [ "t" ] 1)
    | 1 ->
      Printf.sprintf "(SELECT u.a, u.b FROM (SELECT DISTINCT a, b, c FROM t) u WHERE %s)"
        (rand_pred rng [ "u" ] 1)
    | _ -> "((SELECT DISTINCT a, b FROM t) UNION ALL (SELECT DISTINCT b, a FROM s))"
  in
  let col () = Ds_sim.Rng.pick rng [| "a"; "b" |] in
  match Ds_sim.Rng.int rng 5 with
  | 0 ->
    Printf.sprintf "(SELECT a, b FROM s WHERE %s) EXCEPT (SELECT d.a, d.b FROM %s d) ORDER BY 1, 2"
      (rand_pred rng [ "s" ] 1) (pairs ())
  | 1 ->
    Printf.sprintf
      "(SELECT a, b FROM s) EXCEPT (SELECT d.a, e.%s FROM %s d, s e WHERE d.%s = e.%s) ORDER BY \
       1, 2"
      (col ()) (pairs ()) (col ()) (col ())
  | 2 ->
    Printf.sprintf "SELECT * FROM s x WHERE x.%s %sIN (SELECT d.%s FROM %s d) ORDER BY 1, 2, 3"
      (col ())
      (if Ds_sim.Rng.bool rng then "NOT " else "")
      (col ()) (pairs ())
  | 3 ->
    Printf.sprintf
      "SELECT * FROM s x WHERE NOT EXISTS (SELECT * FROM %s d WHERE d.%s = x.%s) ORDER BY 1, 2, 3"
      (pairs ()) (col ()) (col ())
  | _ -> Printf.sprintf "SELECT DISTINCT d.%s FROM %s d ORDER BY 1" (col ()) (pairs ())

let rand_query rng =
  match Ds_sim.Rng.int rng 10 with
  | 8 | 9 -> distinct_query rng
  | 4 | 5 ->
    Printf.sprintf "SELECT * FROM s x WHERE %s AND %s ORDER BY 1, 2, 3"
      (disjunctive_exists rng) (rand_pred rng [ "x" ] 1)
  | 6 ->
    (* LEFT JOIN ... IS NULL: on a right join-key column it is an anti-join;
       on any other right column (the negative case) it is not. *)
    let key = Ds_sim.Rng.pick rng [| "a"; "b" |] in
    Printf.sprintf
      "SELECT x.a, x.b, x.c, y.a, y.c FROM s x LEFT JOIN t y ON x.%s = y.%s%s \
       WHERE y.%s IS NULL AND %s ORDER BY 1, 2, 3, 4, 5"
      (Ds_sim.Rng.pick rng [| "a"; "b" |])
      key
      (if Ds_sim.Rng.bool rng then " AND y.c <> 'p'" else "")
      (Ds_sim.Rng.pick rng [| key; key; "c" |])
      (rand_pred rng [ "x"; "y" ] 1)
  | 7 ->
    (* col = const on an indexed column: a point probe. *)
    Printf.sprintf "SELECT * FROM s x WHERE x.%s = %s AND %s ORDER BY 1, 2, 3"
      (Ds_sim.Rng.pick rng [| "a"; "b" |])
      (rand_const rng)
      (rand_pred rng [ "x" ] 1)
  | _ -> (
  match Ds_sim.Rng.int rng 4 with
  | 0 ->
    (* single-table select with order/limit *)
    Printf.sprintf "SELECT * FROM s x WHERE %s ORDER BY 1, 2, 3 LIMIT %d"
      (rand_pred rng [ "x" ] 2)
      (1 + Ds_sim.Rng.int rng 10)
  | 1 ->
    (* join *)
    Printf.sprintf
      "SELECT x.a, y.b FROM s x, t y WHERE x.%s = y.%s AND %s ORDER BY 1, 2"
      (Ds_sim.Rng.pick rng [| "a"; "b" |])
      (Ds_sim.Rng.pick rng [| "a"; "b" |])
      (rand_pred rng [ "x"; "y" ] 1)
  | 2 ->
    (* aggregate *)
    Printf.sprintf
      "SELECT x.a, COUNT(*) n, SUM(x.b) s2 FROM s x WHERE %s GROUP BY x.a \
       ORDER BY 1, 2, 3"
      (rand_pred rng [ "x" ] 1)
  | _ ->
    (* set operation *)
    Printf.sprintf
      "(SELECT a, b FROM s WHERE %s) %s (SELECT a, b FROM t WHERE %s) ORDER \
       BY 1, 2"
      (rand_pred rng [ "s" ] 1)
      (Ds_sim.Rng.pick rng [| "UNION"; "UNION ALL"; "EXCEPT"; "INTERSECT" |])
      (rand_pred rng [ "t" ] 1))

let normalize rows = List.map Array.to_list rows

let pipeline_equivalence =
  QCheck2.Test.make ~name:"random SQL: all optimizer levels and index modes agree"
    ~count:(Helpers.Config.qcheck_count 250)
    QCheck2.Gen.int
    (fun seed ->
      let rng = Ds_sim.Rng.create seed in
      let cat = build_db rng in
      let sql = rand_query rng in
      let run level indexes =
        Eval.use_table_indexes := indexes;
        Fun.protect
          ~finally:(fun () -> Eval.use_table_indexes := true)
          (fun () ->
            let _, rows = Exec.query ~optimize:level cat sql in
            normalize rows)
      in
      let reference = run `None true in
      let ok =
        List.for_all
          (fun (level, indexes) -> run level indexes = reference)
          [ (`Basic, true); (`Full, true); (`Full, false) ]
      in
      if not ok then
        QCheck2.Test.fail_reportf "optimizer levels disagree on:@.%s" sql
      else true)

let tests = [ QCheck_alcotest.to_alcotest pipeline_equivalence ]
