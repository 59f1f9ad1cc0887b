(* Tests for Ds_sql: lexer, parser, compilation and execution, including the
   paper's Listing 1. *)

open Ds_sql
open Ds_relal

let fresh_db () =
  let cat = Catalog.create () in
  ignore
    (Exec.exec_script cat
       {|
CREATE TABLE emp (id INT, name TEXT, dept INT, salary INT);
CREATE TABLE dept (id INT, dname TEXT);
INSERT INTO emp VALUES (1, 'ann', 10, 100);
INSERT INTO emp VALUES (2, 'bob', 10, 200);
INSERT INTO emp VALUES (3, 'cleo', 20, 300);
INSERT INTO emp (id, name) VALUES (4, 'dan');
INSERT INTO dept VALUES (10, 'eng');
INSERT INTO dept VALUES (30, 'hr');
|});
  cat

let rows cat sql = snd (Exec.query cat sql)

let ints row = Array.to_list row

let test_lexer () =
  let toks = Lexer.tokenize "SELECT x, 'it''s' FROM t -- c\n WHERE y <= 4.5 /* z */ <> !=" in
  let kinds = List.map fst toks in
  Alcotest.(check bool) "keywords uppercased" true
    (List.mem (Token.Kw "SELECT") kinds);
  Alcotest.(check bool) "ident lowercased" true
    (List.mem (Token.Ident "x") kinds);
  Alcotest.(check bool) "string escape" true
    (List.mem (Token.Str_lit "it's") kinds);
  Alcotest.(check bool) "float" true (List.mem (Token.Float_lit 4.5) kinds);
  Alcotest.(check bool) "neq normalized" true
    (List.length (List.filter (fun t -> t = Token.Sym "<>") kinds) = 2)

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Lexer.tokenize "SELECT 'oops");
       false
     with Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Lexer.tokenize "SELECT @");
       false
     with Lexer.Lex_error _ -> true)

let test_parser_shapes () =
  (match Parser.parse_stmt "SELECT a, b AS c FROM t WHERE a = 1 ORDER BY 1 DESC LIMIT 3" with
  | Ast.Select_stmt { Ast.body = Ast.Select b; order_by = [ (Ast.Int_lit 1, false) ]; limit = Some 3; _ } ->
    Alcotest.(check int) "items" 2 (List.length b.Ast.items)
  | _ -> Alcotest.fail "unexpected shape");
  (match Parser.parse_stmt "INSERT INTO t (a) VALUES (1), (2)" with
  | Ast.Insert { columns = Some [ "a" ]; source = `Values [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "insert shape");
  match Parser.parse_stmt "UPDATE t SET a = a + 1 WHERE b IS NOT NULL" with
  | Ast.Update { sets = [ ("a", _) ]; where = Some (Ast.Is_null (_, true)); _ } -> ()
  | _ -> Alcotest.fail "update shape"

let test_parser_errors () =
  let expect_fail sql =
    match Parser.parse_stmt sql with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" sql
  in
  expect_fail "SELECT FROM";
  expect_fail "SELECT * FROM t WHERE";
  expect_fail "SELECT (SELECT a FROM t) FROM t";
  expect_fail "SELECT * FROM t LIMIT x";
  expect_fail "WITH x AS SELECT 1 SELECT 2";
  (* One index kind: CREATE INDEX declares a hash index. *)
  expect_fail "CREATE ORDERED INDEX ON t (a)"

let test_basic_select () =
  let cat = fresh_db () in
  Alcotest.(check int) "all rows" 4 (List.length (rows cat "SELECT * FROM emp"));
  let r = rows cat "SELECT name FROM emp WHERE salary > 150 ORDER BY salary DESC" in
  Alcotest.(check bool) "filter + order" true
    (List.map ints r = [ [ Value.Str "cleo" ]; [ Value.Str "bob" ] ]);
  let r = rows cat "SELECT id + 100 AS shifted FROM emp WHERE id = 1" in
  Alcotest.(check bool) "projection arith" true
    (List.map ints r = [ [ Value.Int 101 ] ])

let test_null_handling () =
  let cat = fresh_db () in
  Alcotest.(check int) "null dept excluded by =" 0
    (List.length (rows cat "SELECT * FROM emp WHERE dept = NULL"));
  Alcotest.(check int) "is null" 1
    (List.length (rows cat "SELECT * FROM emp WHERE dept IS NULL"));
  Alcotest.(check int) "is not null" 3
    (List.length (rows cat "SELECT * FROM emp WHERE dept IS NOT NULL"))

let test_joins_sql () =
  let cat = fresh_db () in
  let r = rows cat "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept = d.id ORDER BY e.name" in
  Alcotest.(check int) "inner via where" 2 (List.length r);
  let r =
    rows cat
      "SELECT e.name, d.dname FROM emp e LEFT JOIN dept d ON e.dept = d.id ORDER BY e.id"
  in
  Alcotest.(check int) "left join row count" 4 (List.length r);
  let nulls = List.filter (fun row -> row.(1) = Value.Null) r in
  Alcotest.(check int) "unmatched padded" 2 (List.length nulls);
  let r = rows cat "SELECT e.id FROM emp e JOIN dept d ON e.dept = d.id AND d.dname = 'eng' ORDER BY e.id" in
  Alcotest.(check int) "join with residual" 2 (List.length r)

let test_exists_in () =
  let cat = fresh_db () in
  let r =
    rows cat
      "SELECT name FROM emp e WHERE EXISTS (SELECT * FROM dept d WHERE d.id = e.dept) ORDER BY name"
  in
  Alcotest.(check int) "exists" 2 (List.length r);
  let r =
    rows cat
      "SELECT name FROM emp e WHERE NOT EXISTS (SELECT * FROM dept d WHERE d.id = e.dept) ORDER BY name"
  in
  (* cleo (dept 20 unmatched) and dan (dept NULL). *)
  Alcotest.(check int) "not exists" 2 (List.length r);
  let r = rows cat "SELECT name FROM emp WHERE dept IN (SELECT id FROM dept)" in
  Alcotest.(check int) "in subquery" 2 (List.length r);
  let r = rows cat "SELECT name FROM emp WHERE id IN (1, 3)" in
  Alcotest.(check int) "in list" 2 (List.length r)

let test_set_ops_sql () =
  let cat = fresh_db () in
  Alcotest.(check int) "union all" 6
    (List.length (rows cat "(SELECT id FROM emp) UNION ALL (SELECT id FROM dept)"));
  Alcotest.(check int) "union" 6
    (List.length (rows cat "(SELECT id FROM emp) UNION (SELECT id FROM dept)"));
  Alcotest.(check int) "except" 3
    (List.length
       (rows cat "(SELECT dept FROM emp) EXCEPT (SELECT 99)"));
  (* except dedups: depts 10,10,20,NULL -> 10,20,NULL *)
  Alcotest.(check int) "intersect" 1
    (List.length (rows cat "(SELECT dept FROM emp) INTERSECT (SELECT id FROM dept)"))

let test_group_by_sql () =
  let cat = fresh_db () in
  let r =
    rows cat
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS s FROM emp GROUP BY dept ORDER BY dept"
  in
  (* NULL group first (Value ordering puts NULL smallest). *)
  Alcotest.(check int) "groups" 3 (List.length r);
  let g10 = List.find (fun row -> row.(0) = Value.Int 10) r in
  Alcotest.(check bool) "count/sum" true
    (g10.(1) = Value.Int 2 && g10.(2) = Value.Int 300);
  let r =
    rows cat
      "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 1"
  in
  Alcotest.(check int) "having" 1 (List.length r);
  let r = rows cat "SELECT COUNT(salary) FROM emp" in
  Alcotest.(check bool) "count skips nulls" true
    (List.hd r = [| Value.Int 3 |]);
  let r = rows cat "SELECT AVG(salary) FROM emp" in
  Alcotest.(check bool) "avg" true (List.hd r = [| Value.Float 200. |])

let test_cte () =
  let cat = fresh_db () in
  let r =
    rows cat
      {|WITH rich AS (SELECT * FROM emp WHERE salary >= 200),
            names AS (SELECT name FROM rich)
        SELECT * FROM names ORDER BY name|}
  in
  Alcotest.(check bool) "cte chain" true
    (List.map ints r = [ [ Value.Str "bob" ]; [ Value.Str "cleo" ] ])

let test_dml () =
  let cat = fresh_db () in
  (match Exec.exec cat "UPDATE emp SET salary = salary * 2 WHERE dept = 10" with
  | Exec.Affected 2 -> ()
  | _ -> Alcotest.fail "update count");
  let r = rows cat "SELECT salary FROM emp WHERE id = 1" in
  Alcotest.(check bool) "updated" true (List.hd r = [| Value.Int 200 |]);
  (match Exec.exec cat "DELETE FROM emp WHERE salary IS NULL" with
  | Exec.Affected 1 -> ()
  | _ -> Alcotest.fail "delete count");
  (match Exec.exec cat "INSERT INTO emp SELECT id + 100, name, dept, salary FROM emp" with
  | Exec.Affected 3 -> ()
  | _ -> Alcotest.fail "insert-select count");
  Alcotest.(check int) "final count" 6 (List.length (rows cat "SELECT * FROM emp"))

let test_ddl () =
  let cat = Catalog.create () in
  (match Exec.exec cat "CREATE TABLE t (a INT, b TEXT)" with
  | Exec.Done -> ()
  | _ -> Alcotest.fail "create");
  (match Exec.exec cat "CREATE INDEX ON t (a)" with
  | Exec.Done -> ()
  | _ -> Alcotest.fail "index");
  Alcotest.(check bool) "duplicate create fails" true
    (try
       ignore (Exec.exec cat "CREATE TABLE t (x INT)");
       false
     with Exec.Exec_error _ -> true);
  (match Exec.exec cat "DROP TABLE t" with
  | Exec.Done -> ()
  | _ -> Alcotest.fail "drop");
  Alcotest.(check bool) "unknown table" true
    (try
       ignore (Exec.exec cat "SELECT * FROM t");
       false
     with Compile.Compile_error _ -> true)

let test_compile_errors () =
  let cat = fresh_db () in
  let expect sql =
    try
      ignore (Exec.exec cat sql);
      Alcotest.failf "expected compile error for %s" sql
    with Compile.Compile_error _ -> ()
  in
  expect "SELECT zz FROM emp";
  expect "SELECT e.name FROM emp e, emp e2 WHERE name = 'ann'" |> ignore;
  expect "SELECT name FROM emp GROUP BY dept";
  expect "(SELECT id, name FROM emp) UNION (SELECT id FROM dept)";
  expect "SELECT name FROM emp WHERE dept IN (SELECT id, dname FROM dept)"

(* --- Listing 1 --------------------------------------------------- *)

let listing1_db () =
  let cat = Catalog.create () in
  ignore
    (Exec.exec_script cat
       {|
CREATE TABLE requests (id INT, ta INT, intrata INT, operation TEXT, object INT);
CREATE TABLE history  (id INT, ta INT, intrata INT, operation TEXT, object INT);
INSERT INTO history VALUES (1, 1, 1, 'r', 10);
INSERT INTO history VALUES (2, 2, 1, 'w', 20);
INSERT INTO history VALUES (3, 5, 1, 'w', 50);
INSERT INTO history VALUES (4, 5, 2, 'c', NULL);
INSERT INTO requests VALUES (10, 3, 1, 'w', 10);
INSERT INTO requests VALUES (11, 3, 2, 'r', 30);
INSERT INTO requests VALUES (12, 4, 1, 'r', 20);
INSERT INTO requests VALUES (13, 1, 2, 'w', 11);
INSERT INTO requests VALUES (14, 6, 1, 'r', 50);
INSERT INTO requests VALUES (15, 7, 1, 'c', NULL);
|});
  cat

let expected_listing1 = [ 11; 13; 14; 15 ]
(* 10 blocked by T1's read lock on 10; 12 blocked by T2's write lock on 20;
   14 fine because T5 committed (lock released); 15 is a terminal op. *)

let test_listing1_semantics () =
  let cat = listing1_db () in
  List.iter
    (fun level ->
      let plan = Exec.prepare ~optimize:level cat Ds_core.Queries.ss2pl in
      let result =
        Exec.run_plan plan
        |> List.map (fun row -> match row.(0) with Value.Int i -> i | _ -> -1)
        |> List.sort Int.compare
      in
      Alcotest.(check (list int))
        (Printf.sprintf "listing1 at level %s"
           (match level with `None -> "none" | `Basic -> "basic" | `Full -> "full"))
        expected_listing1 result)
    [ `None; `Basic; `Full ]

let test_listing1_optimizer_shrinks_plan () =
  let cat = listing1_db () in
  let p_none = Exec.prepare ~optimize:`None cat Ds_core.Queries.ss2pl in
  let p_full = Exec.prepare ~optimize:`Full cat Ds_core.Queries.ss2pl in
  (* Decorrelation removes the nested correlated Exists from the main
     filter path; plan shapes must differ. *)
  Alcotest.(check bool) "plans differ" true (p_none <> p_full)

let test_listing1_table_index_agreement () =
  (* Joins probing the persistent table index must produce exactly the same
     rows as ephemeral hashing. *)
  let cat = listing1_db () in
  ignore (Exec.exec cat "CREATE INDEX ON history (ta)");
  ignore (Exec.exec cat "CREATE INDEX ON requests (object)");
  let plan = Exec.prepare ~optimize:`Full cat Ds_core.Queries.ss2pl in
  let sort rows = List.sort compare (List.map Array.to_list rows) in
  Eval.use_table_indexes := true;
  let with_index = sort (Exec.run_plan plan) in
  Eval.use_table_indexes := false;
  let without_index = sort (Exec.run_plan plan) in
  Eval.use_table_indexes := true;
  Alcotest.(check bool) "identical results" true (with_index = without_index);
  Alcotest.(check int) "expected cardinality" 4 (List.length with_index)

let test_precedence () =
  let cat = fresh_db () in
  (* AND binds tighter than OR. *)
  Alcotest.(check int) "and over or" 3
    (List.length
       (rows cat "SELECT * FROM emp WHERE dept = 20 OR dept = 10 AND salary >= 100"));
  (* NOT binds tighter than AND. *)
  Alcotest.(check int) "not over and" 1
    (List.length
       (rows cat "SELECT * FROM emp WHERE NOT dept = 10 AND salary = 300"));
  (* Multiplication over addition; unary minus. *)
  let r = rows cat "SELECT 2 + 3 * 4, -(2 + 3), 10 - 2 - 3" in
  Alcotest.(check bool) "arithmetic" true
    (List.hd r = [| Value.Int 14; Value.Int (-5); Value.Int 5 |]);
  (* Comparison chains do not associate: a = b = c is a parse error in our
     grammar (comparison is non-associative). *)
  match Parser.parse_stmt "SELECT * FROM emp WHERE 1 = 1 = 1" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "chained comparison must not parse"

let test_between () =
  let cat = fresh_db () in
  Alcotest.(check int) "between inclusive" 2
    (List.length (rows cat "SELECT * FROM emp WHERE salary BETWEEN 100 AND 200"));
  Alcotest.(check int) "not between" 1
    (List.length (rows cat "SELECT * FROM emp WHERE salary NOT BETWEEN 100 AND 200"));
  (* NULL salary is neither between nor not-between (3VL). *)
  Alcotest.(check int) "null excluded from between" 3
    (List.length (rows cat "SELECT * FROM emp WHERE salary BETWEEN 0 AND 999"));
  Alcotest.(check int) "null excluded from not-between" 0
    (List.length (rows cat "SELECT * FROM emp WHERE salary NOT BETWEEN 0 AND 999"));
  (* BETWEEN binds tighter than the surrounding AND. *)
  Alcotest.(check int) "between within conjunction" 1
    (List.length
       (rows cat "SELECT * FROM emp WHERE salary BETWEEN 100 AND 300 AND dept = 20"))

let test_case_expressions () =
  let cat = fresh_db () in
  (* Searched form. *)
  let r =
    rows cat
      {|SELECT name, CASE WHEN salary >= 250 THEN 'high'
                          WHEN salary >= 150 THEN 'mid'
                          ELSE 'low' END AS band
        FROM emp WHERE salary IS NOT NULL ORDER BY id|}
  in
  Alcotest.(check bool) "bands" true
    (List.map (fun row -> row.(1)) r
    = [ Value.Str "low"; Value.Str "mid"; Value.Str "high" ]);
  (* Simple (operand) form. *)
  let r =
    rows cat
      "SELECT CASE dept WHEN 10 THEN 'eng' WHEN 20 THEN 'sales' END AS d FROM emp ORDER BY id"
  in
  Alcotest.(check bool) "operand form with null default" true
    (List.map (fun row -> row.(0)) r
    = [ Value.Str "eng"; Value.Str "eng"; Value.Str "sales"; Value.Null ]);
  (* CASE in WHERE and ORDER BY. *)
  let r =
    rows cat
      {|SELECT name FROM emp
        WHERE CASE WHEN dept IS NULL THEN FALSE ELSE dept < 15 END
        ORDER BY CASE name WHEN 'bob' THEN 0 ELSE 1 END, name|}
  in
  Alcotest.(check bool) "where + order by case" true
    (List.map (fun row -> row.(0)) r = [ Value.Str "bob"; Value.Str "ann" ]);
  (* Missing WHEN arm is a parse error. *)
  match Parser.parse_stmt "SELECT CASE ELSE 1 END FROM emp" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "CASE without WHEN must fail"

let test_prepared_params () =
  let cat = fresh_db () in
  let p =
    Exec.prepare_params cat
      "SELECT name FROM emp WHERE salary > ? AND dept = ? ORDER BY name"
  in
  Exec.bind p 0 (Value.Int 50);
  Exec.bind p 1 (Value.Int 10);
  Alcotest.(check int) "both in dept 10" 2 (List.length (Exec.run_prepared p));
  Exec.bind p 0 (Value.Int 150);
  Alcotest.(check int) "rebound" 1 (List.length (Exec.run_prepared p));
  Alcotest.(check bool) "unknown placeholder rejected" true
    (try
       Exec.bind p 2 (Value.Int 0);
       false
     with Exec.Exec_error _ -> true);
  (* Unbound placeholders behave as NULL (three-valued comparison). *)
  let q = Exec.prepare_params cat "SELECT * FROM emp WHERE salary > ?" in
  Alcotest.(check int) "unbound = NULL filters everything" 0
    (List.length (Exec.run_prepared q))

let test_explain () =
  let cat = fresh_db () in
  match Exec.exec cat "EXPLAIN SELECT e.name FROM emp e, dept d WHERE e.dept = d.id" with
  | Exec.Rows (schema, rows) ->
    Alcotest.(check int) "one plan column" 1 (Schema.arity schema);
    let text =
      String.concat "\n"
        (List.map
           (fun row -> match row.(0) with Value.Str s -> s | _ -> "")
           rows)
    in
    Alcotest.(check bool) "shows a join" true (Helpers.contains text "INNERJoin");
    Alcotest.(check bool) "shows the scans" true (Helpers.contains text "Scan(emp AS e)")
  | _ -> Alcotest.fail "EXPLAIN must return rows"

let test_explain_analyze () =
  let cat = fresh_db () in
  match
    Exec.exec cat
      "EXPLAIN ANALYZE SELECT e.name FROM emp e, dept d WHERE e.dept = d.id"
  with
  | Exec.Rows (_, rows) ->
    let text =
      String.concat "\n"
        (List.map (fun r -> match r.(0) with Value.Str s -> s | _ -> "") rows)
    in
    Alcotest.(check bool) "has rows counts" true (Helpers.contains text "rows=");
    Alcotest.(check bool) "join cardinality" true
      (Helpers.contains text "INNERJoin  rows=2");
    Alcotest.(check bool) "timings present" true (Helpers.contains text "ms")
  | _ -> Alcotest.fail "EXPLAIN ANALYZE must return rows"

let test_profile_agrees_with_eval () =
  let cat = listing1_db () in
  let plan = Exec.prepare ~optimize:`Full cat Ds_core.Queries.ss2pl in
  let rows, stats = Profile.run plan in
  let sort rows = List.sort compare (List.map Array.to_list rows) in
  Alcotest.(check bool) "profiled rows = plain rows" true
    (sort rows = sort (Exec.run_plan plan));
  Alcotest.(check int) "root cardinality recorded" (List.length rows)
    stats.Profile.rows

let test_render () =
  let cat = fresh_db () in
  let schema, rs = Exec.query cat "SELECT id, name FROM emp WHERE id = 1" in
  let s = Exec.render schema rs in
  Alcotest.(check bool) "has name" true (Helpers.contains s "ann");
  Alcotest.(check bool) "has header" true (Helpers.contains s "name")

(* Listing 1 at `Full: RLockedObjects' disjunctive NOT EXISTS is split
   into keyed anti-joins and WLockedObjects' LEFT JOIN ... IS NULL is an
   anti-join — no OR residual is left for a per-candidate check. *)
let test_listing1_full_plan () =
  let plan = Exec.prepare ~optimize:`Full (listing1_db ()) Ds_core.Queries.ss2pl in
  let rec joins = function
    | Ra.Join j -> j :: (joins j.Ra.left @ joins j.Ra.right)
    | Ra.Scan _ | Ra.Values _ -> []
    | Ra.Filter (_, p) | Ra.Project (_, p) | Ra.Distinct p | Ra.Sort (_, p)
    | Ra.Limit (_, p) ->
      joins p
    | Ra.Group g -> joins g.Ra.input
    | Ra.Cross (l, r) | Ra.Union_all (l, r) | Ra.Union (l, r)
    | Ra.Except (l, r) | Ra.Intersect (l, r) ->
      joins l @ joins r
  in
  let rec has_or = function
    | Ra.Or _ -> true
    | e -> List.exists has_or (Ra.expr_children e)
  in
  let js = joins plan in
  let anti = List.filter (fun j -> j.Ra.kind = Ra.Anti) js in
  Alcotest.(check int) "anti-joins: three for RLockedObjects, one for WLockedObjects"
    4 (List.length anti);
  Alcotest.(check bool) "no LEFT join left" false
    (List.exists (fun j -> j.Ra.kind = Ra.Left) js);
  List.iter
    (fun j ->
      Alcotest.(check bool) "anti-join has a key" true (j.Ra.lkeys <> []);
      Alcotest.(check bool) "anti-join has no OR residual" false
        (Option.fold ~none:false ~some:has_or j.Ra.residual))
    anti

(* A filter over an indexed table is profiled as Eval runs it: the scan
   child reports the probe's candidates, not the whole table. *)
let test_profile_filter_probe () =
  let t =
    Table.create ~name:"h"
      (Schema.of_list [ Schema.column "k" Schema.Tint; Schema.column "v" Schema.Tint ])
  in
  for i = 0 to 99 do
    Table.insert t [| Value.Int (i mod 10); Value.Int i |]
  done;
  Table.create_index t [ 0 ];
  let check name pred ~candidates =
    let plan = Ra.Filter (pred, Ra.Scan (t, None)) in
    let rows, stats = Profile.run plan in
    Alcotest.(check bool) (name ^ ": rows = Eval.run") true (rows = Eval.run plan);
    match stats.Profile.children with
    | [ scan ] -> Alcotest.(check int) (name ^ ": examined") candidates scan.Profile.rows
    | _ -> Alcotest.fail "filter over scan has one scan child"
  in
  let int i = Ra.Const (Value.Int i) in
  check "point probe"
    (Ra.And (Ra.Cmp (Ra.Eq, Ra.Col 0, int 3), Ra.Cmp (Ra.Gt, Ra.Col 1, int 50)))
    ~candidates:10;
  check "no usable index" (Ra.Cmp (Ra.Neq, Ra.Col 0, int 3)) ~candidates:100

(* The optimizer drops a DISTINCT whose consumer ignores duplicates, but
   not below arithmetic: [3] and [3.0] are one value to DISTINCT, yet
   [3 / 2] is 1 and [3.0 / 2] is 1.5, so which copy DISTINCT keeps shows. *)
let test_distinct_kept_under_arithmetic () =
  let cat = Catalog.create () in
  ignore
    (Exec.exec_script cat
       {|
CREATE TABLE s (a INT, b INT);
CREATE TABLE t (a INT, b INT);
INSERT INTO s VALUES (1, 1.5), (1.5, 1);
INSERT INTO t VALUES (3, 0), (3.0, 0);
|});
  List.iter
    (fun sql ->
      let at level = List.map Array.to_list (snd (Exec.query ~optimize:level cat sql)) in
      Alcotest.(check (list (list (of_pp Value.pp)))) sql (at `None) (at `Full))
    [
      "SELECT x.a FROM s x WHERE EXISTS (SELECT * FROM (SELECT DISTINCT a FROM t) d \
       WHERE d.a / 2 = x.b)";
      "SELECT x.a FROM s x WHERE NOT EXISTS (SELECT * FROM (SELECT DISTINCT a FROM t) d \
       WHERE d.a / 2 = x.b)";
      "(SELECT a FROM s) EXCEPT (SELECT d.a / 2 FROM (SELECT DISTINCT a FROM t) d)";
    ]

let tests =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser shapes" `Quick test_parser_shapes;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "basic select" `Quick test_basic_select;
    Alcotest.test_case "null handling" `Quick test_null_handling;
    Alcotest.test_case "joins" `Quick test_joins_sql;
    Alcotest.test_case "exists/in" `Quick test_exists_in;
    Alcotest.test_case "set operations" `Quick test_set_ops_sql;
    Alcotest.test_case "group by" `Quick test_group_by_sql;
    Alcotest.test_case "cte" `Quick test_cte;
    Alcotest.test_case "dml" `Quick test_dml;
    Alcotest.test_case "ddl" `Quick test_ddl;
    Alcotest.test_case "compile errors" `Quick test_compile_errors;
    Alcotest.test_case "listing1 semantics (all levels)" `Quick
      test_listing1_semantics;
    Alcotest.test_case "listing1 optimizer changes plan" `Quick
      test_listing1_optimizer_shrinks_plan;
    Alcotest.test_case "listing1 table-index agreement" `Quick
      test_listing1_table_index_agreement;
    Alcotest.test_case "operator precedence" `Quick test_precedence;
    Alcotest.test_case "between" `Quick test_between;
    Alcotest.test_case "case expressions" `Quick test_case_expressions;
    Alcotest.test_case "prepared parameters" `Quick test_prepared_params;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "distinct kept under arithmetic" `Quick
      test_distinct_kept_under_arithmetic;
    Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
    Alcotest.test_case "profile agrees with eval" `Quick test_profile_agrees_with_eval;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "listing1 full plan has keyed anti-joins" `Quick
      test_listing1_full_plan;
    Alcotest.test_case "profile keeps filter index probes" `Quick
      test_profile_filter_probe;
  ]
