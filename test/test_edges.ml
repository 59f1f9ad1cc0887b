(* Edge-case sweep across libraries: small behaviours not covered by the
   per-module suites (error paths, printers, boundary values). *)

open Ds_relal

(* --- stats ----------------------------------------------------------- *)

let test_histogram_merge_incompatible () =
  let a = Ds_stats.Histogram.create ~buckets_per_decade:10 () in
  let b = Ds_stats.Histogram.create ~buckets_per_decade:20 () in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Histogram.merge_into: incompatible shapes") (fun () ->
      Ds_stats.Histogram.merge_into ~dst:a b)

let test_summary_single () =
  let s = Ds_stats.Summary.create () in
  Ds_stats.Summary.add s 5.;
  Alcotest.(check (float 0.)) "variance of one sample" 0.
    (Ds_stats.Summary.variance s);
  Alcotest.check_raises "min of empty" (Invalid_argument "Summary.min: empty")
    (fun () -> ignore (Ds_stats.Summary.min (Ds_stats.Summary.create ())))

(* --- sim ------------------------------------------------------------- *)

let test_zipf_validation () =
  Alcotest.(check bool) "theta >= 1 rejected" true
    (try
       ignore (Ds_sim.Dist.Zipf.create ~n:10 ~theta:1.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "n <= 0 rejected" true
    (try
       ignore (Ds_sim.Dist.Zipf.create ~n:0 ~theta:0.5);
       false
     with Invalid_argument _ -> true)

let test_rng_errors () =
  let r = Ds_sim.Rng.create 1 in
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Ds_sim.Rng.int r 0));
  Alcotest.check_raises "bad range" (Invalid_argument "Rng.range: hi < lo")
    (fun () -> ignore (Ds_sim.Rng.range r 5 4));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Ds_sim.Rng.pick r [||]))

let test_rng_copy () =
  let a = Ds_sim.Rng.create 9 in
  ignore (Ds_sim.Rng.int63 a);
  let b = Ds_sim.Rng.copy a in
  Alcotest.(check bool) "copy continues identically" true
    (List.init 10 (fun _ -> Ds_sim.Rng.int63 a)
    = List.init 10 (fun _ -> Ds_sim.Rng.int63 b))

(* --- relal ----------------------------------------------------------- *)

let test_value_printing () =
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "str quoted" "'x'" (Value.to_string (Value.Str "x"));
  Alcotest.(check string) "bool" "TRUE" (Value.to_string (Value.Bool true));
  Alcotest.(check string) "float" "2.5" (Value.to_string (Value.Float 2.5))

let test_expr_pp () =
  let e =
    Ra.And
      ( Ra.Cmp (Ra.Eq, Ra.Col 0, Ra.Const (Value.Int 3)),
        Ra.Not (Ra.Is_null (Ra.Col 1)) )
  in
  Alcotest.(check string) "rendering" "(($0 = 3) AND (NOT ($1 IS NULL)))"
    (Format.asprintf "%a" Ra.pp_expr e)

let test_refers_outer () =
  let inner = Ra.Cmp (Ra.Eq, Ra.Col 0, Ra.Outer (1, 2)) in
  Alcotest.(check bool) "direct" true (Ra.refers_outer ~depth:1 inner);
  (* The same reference inside an Exists belongs to the subquery's own
     enclosing row, not ours. *)
  let t = Table.create ~name:"t" (Schema.of_list [ Schema.column "a" Schema.Tint ]) in
  let wrapped = Ra.Exists (Ra.Filter (inner, Ra.Scan (t, None))) in
  Alcotest.(check bool) "shielded by exists" false
    (Ra.refers_outer ~depth:1 wrapped);
  let deep = Ra.Exists (Ra.Filter (Ra.Cmp (Ra.Eq, Ra.Col 0, Ra.Outer (2, 1)), Ra.Scan (t, None))) in
  Alcotest.(check bool) "depth-2 escapes one exists" true
    (Ra.refers_outer ~depth:1 deep)

let test_aggregate_null_handling () =
  let t =
    Table.create ~name:"t" (Schema.of_list [ Schema.column "v" Schema.Tint ])
  in
  List.iter (Table.insert t) [ [| Value.Int 1 |]; [| Value.Null |]; [| Value.Int 3 |] ];
  let agg fn = Ra.Group { Ra.keys = []; aggs = [ (fn, Schema.column "x" Schema.Tint) ]; input = Ra.Scan (t, None) } in
  let one plan = (List.hd (Eval.run plan)).(0) in
  Alcotest.(check bool) "count(*) counts nulls" true
    (one (agg Ra.Count_star) = Value.Int 3);
  Alcotest.(check bool) "count(v) skips nulls" true
    (one (agg (Ra.Count (Ra.Col 0))) = Value.Int 2);
  Alcotest.(check bool) "sum skips nulls" true
    (one (agg (Ra.Sum (Ra.Col 0))) = Value.Int 4);
  Alcotest.(check bool) "min skips nulls" true
    (one (agg (Ra.Min (Ra.Col 0))) = Value.Int 1);
  Alcotest.(check bool) "avg of remaining" true
    (one (agg (Ra.Avg (Ra.Col 0))) = Value.Float 2.)

let test_schema_pp () =
  Alcotest.(check string) "schema rendering"
    "(id INT, ta INT, intrata INT, operation TEXT, object INT, sla TEXT, \
     weight INT, arrival FLOAT)"
    (Format.asprintf "%a" Schema.pp Ds_core.Relations.schema)

(* --- datalog ---------------------------------------------------------- *)

let test_datalog_wildcards_distinct () =
  (* Each wildcard is a fresh variable: p(_, _) matches (1, 2). *)
  let e =
    Ds_datalog.Dl_engine.create
      (Ds_datalog.Dl_parser.parse_program "hit(X) :- src(X, _, _).")
  in
  Ds_datalog.Dl_engine.add_fact e "src"
    [ Value.Int 7; Value.Int 1; Value.Int 2 ];
  Alcotest.(check int) "wildcards independent" 1
    (List.length (Ds_datalog.Dl_engine.query e "hit"))

let test_datalog_clear_one_pred () =
  let e =
    Ds_datalog.Dl_engine.create
      (Ds_datalog.Dl_parser.parse_program "out(X) :- a(X).\nout(X) :- b(X).")
  in
  Ds_datalog.Dl_engine.add_fact e "a" [ Value.Int 1 ];
  Ds_datalog.Dl_engine.add_fact e "b" [ Value.Int 2 ];
  Alcotest.(check int) "both" 2 (List.length (Ds_datalog.Dl_engine.query e "out"));
  Ds_datalog.Dl_engine.clear_facts ~pred:"a" e;
  Alcotest.(check int) "one left" 1
    (List.length (Ds_datalog.Dl_engine.query e "out"))

(* --- server ------------------------------------------------------------ *)

let test_cost_model () =
  let c = Ds_server.Cost_model.default in
  Alcotest.(check bool) "locking costs more" true
    (Ds_server.Cost_model.stmt_cost c ~locking:true
    > Ds_server.Cost_model.stmt_cost c ~locking:false)

let test_replay_empty () =
  Alcotest.(check (float 1e-12)) "empty schedule = one commit"
    Ds_server.Cost_model.default.Ds_server.Cost_model.commit_service
    (Ds_server.Replay.single_user_time Ds_server.Cost_model.default [])

let test_lock_blocked_txns () =
  let lm = Ds_server.Lock_manager.create () in
  ignore (Ds_server.Lock_manager.acquire lm ~txn:1 ~obj:1 ~mode:Ds_server.Lock_manager.X);
  ignore (Ds_server.Lock_manager.acquire lm ~txn:2 ~obj:1 ~mode:Ds_server.Lock_manager.S);
  Alcotest.(check (list int)) "blocked set" [ 2 ]
    (Ds_server.Lock_manager.blocked_txns lm);
  Alcotest.(check int) "total held" 1 (Ds_server.Lock_manager.total_held lm)

(* --- core -------------------------------------------------------------- *)

let test_trigger_to_string () =
  Alcotest.(check string) "time" "time(10ms)"
    (Ds_core.Trigger.to_string (Ds_core.Trigger.Time_lapse 0.01));
  Alcotest.(check string) "fill" "fill(25)"
    (Ds_core.Trigger.to_string (Ds_core.Trigger.Fill_level 25));
  Alcotest.(check string) "hybrid" "hybrid(5ms,9)"
    (Ds_core.Trigger.to_string (Ds_core.Trigger.Hybrid (0.005, 9)))

let test_protocol_registry () =
  Alcotest.(check bool) "find known" true
    (Ds_core.Builtin.find "ss2pl-datalog" <> None);
  Alcotest.(check bool) "find unknown" true (Ds_core.Builtin.find "nope" = None);
  (* Every registered protocol has a distinct name. *)
  let names =
    List.map (fun (p : Ds_core.Protocol.t) -> p.Ds_core.Protocol.name)
      Ds_core.Builtin.all
  in
  Alcotest.(check int) "names unique"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  (* Every registered protocol runs through the middleware at its defaults;
     the serializable ones get work done. *)
  List.iter
    (fun (p : Ds_core.Protocol.t) ->
      let s =
        Ds_core.Middleware.run
          {
            Ds_core.Middleware.default_config with
            Ds_core.Middleware.n_clients = 5;
            duration = 0.5;
            protocol = p;
          }
      in
      if p.Ds_core.Protocol.guarantee = Ds_core.Protocol.Serializable then
        Alcotest.(check bool)
          (p.Ds_core.Protocol.name ^ " commits")
          true
          (s.Ds_core.Middleware.committed_txns > 0))
    Ds_core.Builtin.all

let test_spec_loc () =
  Alcotest.(check int) "counts non-empty lines" 2
    (Ds_core.Queries.spec_loc "a\n\n  \nb");
  Alcotest.(check int) "empty" 0 (Ds_core.Queries.spec_loc "\n  \n")

let test_amortized_zero_qualified () =
  let m =
    {
      Ds_core.Overhead_probe.n_clients = 1;
      pending = 1;
      history = 0;
      qualified = 0;
      cycle_time = 0.001;
      query_time = 0.001;
      maintain_time = 0.;
    }
  in
  Alcotest.(check bool) "infinite when nothing qualifies" true
    (Float.is_integer
       (Ds_core.Overhead_probe.amortized_overhead m ~total_stmts:10)
    = false
    || Ds_core.Overhead_probe.amortized_overhead m ~total_stmts:10 = infinity)

let tests =
  [
    Alcotest.test_case "histogram merge incompatible" `Quick
      test_histogram_merge_incompatible;
    Alcotest.test_case "summary single" `Quick test_summary_single;
    Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "rng errors" `Quick test_rng_errors;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "value printing" `Quick test_value_printing;
    Alcotest.test_case "expr pretty printing" `Quick test_expr_pp;
    Alcotest.test_case "refers_outer depths" `Quick test_refers_outer;
    Alcotest.test_case "aggregate null handling" `Quick test_aggregate_null_handling;
    Alcotest.test_case "schema pretty printing" `Quick test_schema_pp;
    Alcotest.test_case "datalog wildcards" `Quick test_datalog_wildcards_distinct;
    Alcotest.test_case "datalog clear one pred" `Quick test_datalog_clear_one_pred;
    Alcotest.test_case "cost model" `Quick test_cost_model;
    Alcotest.test_case "replay empty" `Quick test_replay_empty;
    Alcotest.test_case "lock blocked txns" `Quick test_lock_blocked_txns;
    Alcotest.test_case "trigger to_string" `Quick test_trigger_to_string;
    Alcotest.test_case "protocol registry" `Quick test_protocol_registry;
    Alcotest.test_case "spec_loc" `Quick test_spec_loc;
    Alcotest.test_case "amortized zero qualified" `Quick
      test_amortized_zero_qualified;
  ]
