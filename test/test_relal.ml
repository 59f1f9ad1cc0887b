(* Tests for Ds_relal: values, schemas, tables, plans, evaluation,
   optimizer. *)

open Ds_relal

let v_int i = Value.Int i
let v_str s = Value.Str s

let test_value_compare () =
  Alcotest.(check int) "int eq" 0 (Value.compare (v_int 3) (v_int 3));
  Alcotest.(check bool) "int/float numeric" true
    (Value.equal (v_int 1) (Value.Float 1.0));
  Alcotest.(check bool) "null smallest" true
    (Value.compare Value.Null (Value.Bool false) < 0);
  Alcotest.(check bool) "cross-type rank" true
    (Value.compare (Value.Bool true) (v_int 0) < 0);
  Alcotest.(check bool) "str order" true
    (Value.compare (v_str "a") (v_str "b") < 0)

(* Ints meet floats near each other, and around 2^53, where the hash
   switches from the int to the float. *)
let value_hash_consistent =
  QCheck2.Test.make ~name:"Value: equal implies same hash" ~count:300
    QCheck2.Gen.(
      pair
        (oneof
           [
             int;
             int_range (-1000) 1000;
             map (fun d -> (1 lsl 53) + d) (int_range (-3) 3);
             map (fun d -> -(1 lsl 53) + d) (int_range (-3) 3);
           ])
        (int_range (-2) 2))
    (fun (a, d) ->
      let va = v_int a and vb = Value.Float (float_of_int (a + d)) in
      (not (Value.equal va vb)) || Value.hash va = Value.hash vb)

let test_schema_find () =
  let s =
    Schema.of_list
      [
        Schema.column ~rel:"a" "ta" Schema.Tint;
        Schema.column ~rel:"b" "ta" Schema.Tint;
        Schema.column ~rel:"a" "obj" Schema.Tint;
      ]
  in
  Alcotest.(check bool) "qualified" true
    (Schema.find s ~rel:(Some "b") ~name:"ta" = Ok 1);
  Alcotest.(check bool) "unqualified ambiguous" true
    (Schema.find s ~rel:None ~name:"ta" = Error `Ambiguous);
  Alcotest.(check bool) "unqualified unique" true
    (Schema.find s ~rel:None ~name:"obj" = Ok 2);
  Alcotest.(check bool) "case-insensitive" true
    (Schema.find s ~rel:(Some "A") ~name:"OBJ" = Ok 2);
  Alcotest.(check bool) "unknown" true
    (Schema.find s ~rel:None ~name:"zz" = Error `Unknown)

let mk_table name rows =
  let t =
    Table.create ~name
      (Schema.of_list
         [ Schema.column "k" Schema.Tint; Schema.column "v" Schema.Tstr ])
  in
  List.iter (fun (k, v) -> Table.insert t [| v_int k; v_str v |]) rows;
  t

let test_table_basics () =
  let t = mk_table "t" [ (1, "a"); (2, "b"); (3, "c") ] in
  Alcotest.(check int) "count" 3 (Table.row_count t);
  let deleted = Table.delete_where t (fun row -> row.(0) = v_int 2) in
  Alcotest.(check int) "deleted" 1 deleted;
  Alcotest.(check int) "count after" 2 (Table.row_count t);
  let touched = Table.update_where t (fun row -> row.(0) = v_int 3) (fun row -> row.(1) <- v_str "z") in
  Alcotest.(check int) "updated" 1 touched;
  Alcotest.(check bool) "updated value" true
    (List.exists (fun r -> r.(1) = v_str "z") (Table.rows t));
  Alcotest.check_raises "arity check"
    (Invalid_argument "Table.insert(t): arity 1, schema wants 2") (fun () ->
      Table.insert t [| v_int 9 |])

let test_table_index () =
  let t = mk_table "t" [ (1, "a"); (2, "b"); (1, "c") ] in
  Table.create_index t [ 0 ];
  Alcotest.(check bool) "has index" true (Table.has_index t [ 0 ]);
  let hits = Table.probe t [ 0 ] [ v_int 1 ] in
  Alcotest.(check int) "probe hits" 2 (List.length hits);
  (* Index survives mutation via lazy rebuild. *)
  Table.insert t [| v_int 1; v_str "d" |];
  Alcotest.(check int) "probe after insert" 3
    (List.length (Table.probe t [ 0 ] [ v_int 1 ]));
  ignore (Table.delete_where t (fun row -> row.(1) = v_str "a"));
  Alcotest.(check int) "probe after delete" 2
    (List.length (Table.probe t [ 0 ] [ v_int 1 ]));
  Alcotest.check_raises "unknown index"
    (Invalid_argument "Table.probe(t): no such index") (fun () ->
      ignore (Table.probe t [ 1 ] [ v_str "a" ]))

let run = Eval.run

let test_filter_three_valued () =
  let t = mk_table "t" [ (1, "a"); (2, "b") ] in
  Table.insert t [| Value.Null; v_str "n" |];
  (* k > 1 is NULL for the null row: excluded (not an error). *)
  let plan = Ra.Filter (Ra.Cmp (Ra.Gt, Ra.Col 0, Ra.Const (v_int 1)), Ra.Scan (t, None)) in
  Alcotest.(check int) "null filtered out" 1 (List.length (run plan));
  (* IS NULL finds it. *)
  let plan2 = Ra.Filter (Ra.Is_null (Ra.Col 0), Ra.Scan (t, None)) in
  Alcotest.(check int) "is null" 1 (List.length (run plan2));
  (* NOT (k > 1) also excludes the null row: NOT NULL = NULL. *)
  let plan3 =
    Ra.Filter
      (Ra.Not (Ra.Cmp (Ra.Gt, Ra.Col 0, Ra.Const (v_int 1))), Ra.Scan (t, None))
  in
  Alcotest.(check int) "not of null" 1 (List.length (run plan3))

let test_kleene_logic () =
  let row = [| Value.Null; Value.Bool true; Value.Bool false |] in
  let ev e = Eval.eval_expr ~row e in
  Alcotest.(check bool) "null and false = false" true
    (ev (Ra.And (Ra.Col 0, Ra.Col 2)) = Value.Bool false);
  Alcotest.(check bool) "null and true = null" true
    (ev (Ra.And (Ra.Col 0, Ra.Col 1)) = Value.Null);
  Alcotest.(check bool) "null or true = true" true
    (ev (Ra.Or (Ra.Col 0, Ra.Col 1)) = Value.Bool true);
  Alcotest.(check bool) "null or false = null" true
    (ev (Ra.Or (Ra.Col 0, Ra.Col 2)) = Value.Null);
  Alcotest.(check bool) "in-list with null" true
    (ev (Ra.In_list (Ra.Const (v_int 5), [ v_int 1; Value.Null ])) = Value.Null)

let test_arith () =
  let ev e = Eval.eval_expr ~row:[||] e in
  Alcotest.(check bool) "int div" true
    (ev (Ra.Arith (Ra.Div, Ra.Const (v_int 7), Ra.Const (v_int 2))) = v_int 3);
  Alcotest.(check bool) "div by zero is null" true
    (ev (Ra.Arith (Ra.Div, Ra.Const (v_int 7), Ra.Const (v_int 0))) = Value.Null);
  Alcotest.(check bool) "mixed float" true
    (ev (Ra.Arith (Ra.Add, Ra.Const (v_int 1), Ra.Const (Value.Float 0.5)))
    = Value.Float 1.5);
  Alcotest.check_raises "type error" (Ra.Type_error "arithmetic on non-numeric values 'a' and 1")
    (fun () -> ignore (ev (Ra.Arith (Ra.Add, Ra.Const (v_str "a"), Ra.Const (v_int 1)))))

let test_joins () =
  let l = mk_table "l" [ (1, "a"); (2, "b"); (3, "c") ] in
  let r = mk_table "r" [ (2, "x"); (3, "y"); (3, "z") ] in
  let join kind =
    Ra.Join
      {
        Ra.kind;
        lkeys = [ Ra.Col 0 ];
        rkeys = [ Ra.Col 0 ];
        residual = None;
        left = Ra.Scan (l, None);
        right = Ra.Scan (r, None);
      }
  in
  Alcotest.(check int) "inner" 3 (List.length (run (join Ra.Inner)));
  let left_rows = run (join Ra.Left) in
  Alcotest.(check int) "left" 4 (List.length left_rows);
  Alcotest.(check bool) "left pads nulls" true
    (List.exists (fun row -> row.(2) = Value.Null) left_rows);
  Alcotest.(check int) "semi" 2 (List.length (run (join Ra.Semi)));
  let anti = run (join Ra.Anti) in
  Alcotest.(check int) "anti" 1 (List.length anti);
  Alcotest.(check bool) "anti row" true ((List.hd anti).(0) = v_int 1)

let test_join_null_keys () =
  let l = mk_table "l" [ (1, "a") ] in
  Table.insert l [| Value.Null; v_str "n" |];
  let r = mk_table "r" [ (1, "x") ] in
  Table.insert r [| Value.Null; v_str "m" |];
  let join kind =
    Ra.Join
      {
        Ra.kind;
        lkeys = [ Ra.Col 0 ];
        rkeys = [ Ra.Col 0 ];
        residual = None;
        left = Ra.Scan (l, None);
        right = Ra.Scan (r, None);
      }
  in
  (* NULL keys never match: inner join yields only the 1-1 pair. *)
  Alcotest.(check int) "inner skips nulls" 1 (List.length (run (join Ra.Inner)));
  (* ...but the null-keyed left row survives an anti join (NOT EXISTS). *)
  Alcotest.(check int) "anti keeps null row" 1 (List.length (run (join Ra.Anti)))

let test_set_ops () =
  let a = mk_table "a" [ (1, "x"); (2, "y"); (2, "y") ] in
  let b = mk_table "b" [ (2, "y"); (3, "z") ] in
  let sa = Ra.Scan (a, None) and sb = Ra.Scan (b, None) in
  Alcotest.(check int) "union all" 5 (List.length (run (Ra.Union_all (sa, sb))));
  Alcotest.(check int) "union distinct" 3 (List.length (run (Ra.Union (sa, sb))));
  Alcotest.(check int) "except" 1 (List.length (run (Ra.Except (sa, sb))));
  Alcotest.(check int) "intersect" 1 (List.length (run (Ra.Intersect (sa, sb))));
  Alcotest.(check int) "distinct" 2 (List.length (run (Ra.Distinct sa)))

let test_sort_limit () =
  let t = mk_table "t" [ (3, "c"); (1, "a"); (2, "b") ] in
  let sorted = run (Ra.Sort ([ (Ra.Col 0, `Desc) ], Ra.Scan (t, None))) in
  Alcotest.(check bool) "desc" true ((List.hd sorted).(0) = v_int 3);
  let limited = run (Ra.Limit (2, Ra.Sort ([ (Ra.Col 0, `Asc) ], Ra.Scan (t, None)))) in
  Alcotest.(check int) "limit" 2 (List.length limited)

let test_group () =
  let t = mk_table "t" [ (1, "a"); (1, "b"); (2, "c") ] in
  let plan =
    Ra.Group
      {
        Ra.keys = [ (Ra.Col 0, Schema.column "k" Schema.Tint) ];
        aggs =
          [
            (Ra.Count_star, Schema.column "n" Schema.Tint);
            (Ra.Max (Ra.Col 1), Schema.column "m" Schema.Tstr);
          ];
        input = Ra.Scan (t, None);
      }
  in
  let rows = run plan in
  Alcotest.(check int) "groups" 2 (List.length rows);
  let g1 = List.find (fun r -> r.(0) = v_int 1) rows in
  Alcotest.(check bool) "count" true (g1.(1) = v_int 2);
  Alcotest.(check bool) "max" true (g1.(2) = v_str "b");
  (* Aggregate over empty input without keys yields one row. *)
  let empty = mk_table "e" [] in
  let agg_empty =
    Ra.Group
      {
        Ra.keys = [];
        aggs =
          [
            (Ra.Count_star, Schema.column "n" Schema.Tint);
            (Ra.Sum (Ra.Col 0), Schema.column "s" Schema.Tint);
          ];
        input = Ra.Scan (empty, None);
      }
  in
  match run agg_empty with
  | [ [| n; s |] ] ->
    Alcotest.(check bool) "count 0" true (n = v_int 0);
    Alcotest.(check bool) "sum null" true (s = Value.Null)
  | _ -> Alcotest.fail "expected a single row"

let test_correlated_exists () =
  let l = mk_table "l" [ (1, "a"); (2, "b") ] in
  let r = mk_table "r" [ (2, "x") ] in
  (* SELECT * FROM l WHERE EXISTS (SELECT * FROM r WHERE r.k = l.k) *)
  let sub =
    Ra.Filter (Ra.Cmp (Ra.Eq, Ra.Col 0, Ra.Outer (1, 0)), Ra.Scan (r, None))
  in
  let plan = Ra.Filter (Ra.Exists sub, Ra.Scan (l, None)) in
  let rows = run plan in
  Alcotest.(check int) "one row" 1 (List.length rows);
  Alcotest.(check bool) "the right row" true ((List.hd rows).(0) = v_int 2)

let test_optimizer_equivalence_listing_shapes () =
  (* Filter over cross becomes a join; result sets agree at all levels. *)
  let l = mk_table "l" [ (1, "a"); (2, "b"); (3, "c") ] in
  let r = mk_table "r" [ (2, "x"); (3, "y") ] in
  let plan =
    Ra.Filter
      ( Ra.And
          ( Ra.Cmp (Ra.Eq, Ra.Col 0, Ra.Col 2),
            Ra.Cmp (Ra.Neq, Ra.Col 1, Ra.Col 3) ),
        Ra.Cross (Ra.Scan (l, None), Ra.Scan (r, None)) )
  in
  let reference = run plan in
  let optimized = Optimizer.optimize ~level:`Full plan in
  Alcotest.(check bool) "plan changed" true (optimized <> plan);
  let has_join =
    let rec walk = function
      | Ra.Join _ -> true
      | Ra.Filter (_, p) | Ra.Distinct p | Ra.Limit (_, p) | Ra.Sort (_, p) ->
        walk p
      | Ra.Cross (a, b)
      | Ra.Union_all (a, b)
      | Ra.Union (a, b)
      | Ra.Except (a, b)
      | Ra.Intersect (a, b) -> walk a || walk b
      | Ra.Project (_, p) -> walk p
      | Ra.Group g -> walk g.Ra.input
      | Ra.Scan _ | Ra.Values _ -> false
    in
    walk optimized
  in
  Alcotest.(check bool) "join detected" true has_join;
  let sort rows = List.sort compare (List.map Array.to_list rows) in
  Alcotest.(check bool) "same result" true
    (sort (run optimized) = sort reference)

let test_optimizer_decorrelates_not_exists () =
  let l = mk_table "l" [ (1, "a"); (2, "b") ] in
  let r = mk_table "r" [ (2, "x") ] in
  let sub =
    Ra.Filter (Ra.Cmp (Ra.Eq, Ra.Col 0, Ra.Outer (1, 0)), Ra.Scan (r, None))
  in
  let plan = Ra.Filter (Ra.Not (Ra.Exists sub), Ra.Scan (l, None)) in
  let optimized = Optimizer.optimize ~level:`Full plan in
  let is_anti =
    match optimized with Ra.Join { Ra.kind = Ra.Anti; _ } -> true | _ -> false
  in
  Alcotest.(check bool) "anti join" true is_anti;
  let rows = run optimized in
  Alcotest.(check int) "result" 1 (List.length rows);
  Alcotest.(check bool) "kept row 1" true ((List.hd rows).(0) = v_int 1)

let test_factor_common_disjunction () =
  let a = Ra.Cmp (Ra.Eq, Ra.Col 0, Ra.Col 1) in
  let b = Ra.Cmp (Ra.Gt, Ra.Col 2, Ra.Const (v_int 0)) in
  let c = Ra.Is_null (Ra.Col 3) in
  let e = Ra.Or (Ra.And (a, b), Ra.And (a, c)) in
  let factored = Optimizer.factor_common_disjunction e in
  (match factored with
  | Ra.And (a', Ra.Or (b', c')) ->
    Alcotest.(check bool) "common pulled out" true (a' = a && b' = b && c' = c)
  | _ -> Alcotest.fail "expected A and (B or C)");
  (* Verify semantic equivalence on random rows. *)
  let rng = Ds_sim.Rng.create 5 in
  for _ = 1 to 100 do
    let row =
      Array.init 4 (fun _ ->
          if Ds_sim.Rng.int rng 5 = 0 then Value.Null
          else v_int (Ds_sim.Rng.int rng 3))
    in
    let x = Eval.eval_expr ~row e and y = Eval.eval_expr ~row factored in
    if not (x = y) then
      Alcotest.failf "mismatch on %s vs %s"
        (Value.to_string x) (Value.to_string y)
  done

let test_as_int_non_finite () =
  Alcotest.(check (option int)) "nan" None (Value.as_int (Value.Float Float.nan));
  Alcotest.(check (option int)) "inf" None
    (Value.as_int (Value.Float Float.infinity));
  Alcotest.(check (option int)) "neg inf" None
    (Value.as_int (Value.Float Float.neg_infinity));
  Alcotest.(check (option int)) "finite float" (Some 3)
    (Value.as_int (Value.Float 3.0));
  Alcotest.(check (option int)) "int" (Some 7) (Value.as_int (v_int 7))

let test_sum_domains () =
  (* SUM folds ints in the int domain and only widens to Float when a float
     flows in — an integral float total must stay Float, and big int sums
     must stay exact past 2^53. *)
  let sum_over ty vals =
    let t = Table.create ~name:"s" (Schema.of_list [ Schema.column "x" ty ]) in
    List.iter (fun v -> Table.insert t [| v |]) vals;
    match
      run
        (Ra.Group
           {
             Ra.keys = [];
             aggs = [ (Ra.Sum (Ra.Col 0), Schema.column "s" ty) ];
             input = Ra.Scan (t, None);
           })
    with
    | [ [| s |] ] -> s
    | _ -> Alcotest.fail "expected a single aggregate row"
  in
  let value = Alcotest.of_pp Value.pp in
  Alcotest.check value "integral float total stays Float" (Value.Float 4.0)
    (sum_over Schema.Tfloat [ Value.Float 2.5; Value.Float 1.5 ]);
  Alcotest.check value "all-int stays Int" (v_int 6)
    (sum_over Schema.Tint [ v_int 1; v_int 2; v_int 3 ]);
  Alcotest.check value "mixed widens to Float" (Value.Float 3.5)
    (sum_over Schema.Tfloat [ v_int 3; Value.Float 0.5 ]);
  let big = 1 lsl 60 in
  Alcotest.check value "int sum exact beyond 2^53" (v_int (big + 1))
    (sum_over Schema.Tint [ v_int big; v_int 1 ]);
  Alcotest.check value "nulls ignored" (v_int 5)
    (sum_over Schema.Tint [ Value.Null; v_int 5; Value.Null ]);
  Alcotest.check value "all-null is NULL" Value.Null
    (sum_over Schema.Tint [ Value.Null ])

(* Keys from both sides of the int/by-value split of the index postings:
   small ints and the integral floats equal to them, both edges of the
   31-bit range two-column keys pack in, ints at and past 2^53 with the
   float they are closest to, and keys that never pack (NULL, text,
   non-integral floats, booleans). *)
let key_pool =
  let half = 1 lsl 30 and big = 1 lsl 53 in
  [|
    Value.Null; v_str "p"; v_str "q"; Value.Bool true; Value.Float 2.5;
    v_int 0; v_int 1; v_int 2; Value.Float 1.; Value.Float 2.;
    v_int (half - 1); v_int half; v_int (-half); v_int (-half - 1); Value.Float (float_of_int half);
    v_int (big - 1); v_int big; v_int (big + 1); Value.Float 0x1p53;
  |]

let index_consistency_prop =
  (* Under random interleavings of every mutation the table supports, a hash
     probe — by value, and by int for a key that packs — must equal the
     predicate scan, in insertion order, on one-column and two-column
     indexes. Updates rewrite column [b], so the indexes on it see postings
     move between keys, and between the int and the by-value side. *)
  QCheck2.Test.make ~name:"probe = full scan under random mutations"
    ~count:(Helpers.Config.qcheck_count 60)
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 5 40))
    (fun (seed, nops) ->
      let t =
        Table.create ~name:"p"
          (Schema.of_list
             [
               Schema.column "a" Schema.Tint;
               Schema.column "b" Schema.Tint;
               Schema.column "n" Schema.Tint;
             ])
      in
      List.iter (Table.create_index t) [ [ 0 ]; [ 1 ]; [ 0; 1 ] ];
      let rng = Ds_sim.Rng.create seed in
      let key () = Ds_sim.Rng.pick rng key_pool in
      let serial = ref 0 in
      let mk_row () =
        incr serial;
        [| key (); key (); v_int !serial |]
      in
      let same cols key row = List.for_all2 (fun c v -> Value.equal row.(c) v) cols key in
      let check cols key =
        let via_scan = List.filter (same cols key) (Table.rows t) in
        if Table.probe t cols key <> via_scan then failwith "probe <> scan";
        let walked = ref [] in
        ignore
          (Table.walk (Option.get (Table.index t cols)) (Array.of_list key)
             (fun () row ->
               walked := row :: !walked;
               false)
             ());
        if List.rev !walked <> via_scan then failwith "walk <> scan"
      in
      let check_probes () =
        Array.iter
          (fun u ->
            check [ 0 ] [ u ];
            check [ 1 ] [ u ];
            Array.iter (fun v -> check [ 0; 1 ] [ u; v ]) key_pool)
          key_pool
      in
      for _ = 1 to nops do
        (match Ds_sim.Rng.int rng 12 with
        | 0 | 1 | 2 | 3 -> Table.insert t (mk_row ())
        | 4 | 5 ->
          Table.insert_many t
            (List.init (1 + Ds_sim.Rng.int rng 6) (fun _ -> mk_row ()))
        | 6 ->
          let k = key () in
          ignore (Table.delete_where t (fun row -> Value.equal row.(0) k))
        | 7 ->
          let k = [ key (); key () ] in
          ignore (Table.delete_by_keys t [ 0; 1 ] [ (k, fun _ -> Ds_sim.Rng.bool rng) ])
        | 8 | 9 ->
          let k = key () and v = key () in
          ignore
            (Table.update_where t
               (fun row -> Value.equal row.(0) k)
               (fun row -> row.(1) <- v))
        | 10 ->
          (* Bulk churn to cross the compaction threshold. *)
          Table.insert_many t (List.init 80 (fun _ -> mk_row ()));
          let old = v_int (!serial - 40) in
          ignore (Table.delete_where t (fun row -> Value.compare row.(2) old < 0))
        | _ -> if Ds_sim.Rng.int rng 4 = 0 then Table.clear t);
        check_probes ()
      done;
      true)

let optimizer_preserves_filter_semantics =
  (* Random conjunctive/disjunctive filters over a cross product evaluate the
     same optimized and unoptimized. *)
  QCheck2.Test.make ~name:"optimizer preserves filter-over-cross semantics"
    ~count:(Helpers.Config.qcheck_count 60)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, nrows) ->
      let rng = Ds_sim.Rng.create seed in
      let mk name =
        let t =
          Table.create ~name
            (Schema.of_list
               [ Schema.column "x" Schema.Tint; Schema.column "y" Schema.Tint ])
        in
        for _ = 1 to nrows do
          let cell () =
            if Ds_sim.Rng.int rng 6 = 0 then Value.Null
            else v_int (Ds_sim.Rng.int rng 4)
          in
          Table.insert t [| cell (); cell () |]
        done;
        t
      in
      let l = mk "l" and r = mk "r" in
      let rec rand_expr depth =
        if depth = 0 then
          Ra.Cmp
            ( (match Ds_sim.Rng.int rng 3 with
              | 0 -> Ra.Eq
              | 1 -> Ra.Lt
              | _ -> Ra.Neq),
              Ra.Col (Ds_sim.Rng.int rng 4),
              if Ds_sim.Rng.bool rng then Ra.Col (Ds_sim.Rng.int rng 4)
              else Ra.Const (v_int (Ds_sim.Rng.int rng 4)) )
        else
          match Ds_sim.Rng.int rng 3 with
          | 0 -> Ra.And (rand_expr (depth - 1), rand_expr (depth - 1))
          | 1 -> Ra.Or (rand_expr (depth - 1), rand_expr (depth - 1))
          | _ -> Ra.Not (rand_expr (depth - 1))
      in
      let plan =
        Ra.Filter
          (rand_expr 3, Ra.Cross (Ra.Scan (l, None), Ra.Scan (r, None)))
      in
      let sort rows = List.sort compare (List.map Array.to_list rows) in
      let reference = sort (run plan) in
      List.for_all
        (fun level ->
          sort (run (Optimizer.optimize ~level plan)) = reference)
        [ `None; `Basic; `Full ])

let tests =
  [
    Alcotest.test_case "value compare" `Quick test_value_compare;
    QCheck_alcotest.to_alcotest value_hash_consistent;
    Alcotest.test_case "schema find" `Quick test_schema_find;
    Alcotest.test_case "table basics" `Quick test_table_basics;
    Alcotest.test_case "table index" `Quick test_table_index;
    Alcotest.test_case "filter 3VL" `Quick test_filter_three_valued;
    Alcotest.test_case "kleene logic" `Quick test_kleene_logic;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "joins" `Quick test_joins;
    Alcotest.test_case "join null keys" `Quick test_join_null_keys;
    Alcotest.test_case "set ops" `Quick test_set_ops;
    Alcotest.test_case "sort limit" `Quick test_sort_limit;
    Alcotest.test_case "group/aggregates" `Quick test_group;
    Alcotest.test_case "correlated exists" `Quick test_correlated_exists;
    Alcotest.test_case "optimizer join detection" `Quick
      test_optimizer_equivalence_listing_shapes;
    Alcotest.test_case "optimizer decorrelation" `Quick
      test_optimizer_decorrelates_not_exists;
    Alcotest.test_case "factor common disjunction" `Quick
      test_factor_common_disjunction;
    QCheck_alcotest.to_alcotest optimizer_preserves_filter_semantics;
    Alcotest.test_case "as_int non-finite" `Quick test_as_int_non_finite;
    Alcotest.test_case "sum domains" `Quick test_sum_domains;
    QCheck_alcotest.to_alcotest index_consistency_prop;
  ]
