open Ds_relal

type result =
  | Rows of Schema.t * Value.t array list
  | Affected of int
  | Done

exception Exec_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

let run_select ~optimize catalog q =
  let plan = Compile.compile_query catalog q in
  let plan = Optimizer.optimize ~level:optimize plan in
  (Ra.schema_of plan, Eval.run plan)

let row_of_values table columns values =
  let schema = Table.schema table in
  let arity = Schema.arity schema in
  match columns with
  | None ->
    if List.length values <> arity then
      fail "INSERT into %s: %d values for %d columns" (Table.name table)
        (List.length values) arity;
    Array.of_list values
  | Some cols ->
    if List.length cols <> List.length values then
      fail "INSERT into %s: column/value count mismatch" (Table.name table);
    let row = Array.make arity Value.Null in
    List.iter2
      (fun col v ->
        match Schema.find schema ~rel:None ~name:col with
        | Ok i -> row.(i) <- v
        | Error `Unknown -> fail "INSERT: unknown column %s" col
        | Error `Ambiguous -> fail "INSERT: ambiguous column %s" col)
      cols values;
    row

let exec_stmt ~optimize catalog (stmt : Ast.stmt) =
  match stmt with
  | Ast.Select_stmt q ->
    let schema, rows = run_select ~optimize catalog q in
    Rows (schema, rows)
  | Ast.Explain { analyze; query } ->
    let plan = Compile.compile_query catalog query in
    let plan = Optimizer.optimize ~level:optimize plan in
    let text =
      if analyze then
        let _, stats = Profile.run plan in
        Profile.render stats
      else Format.asprintf "%a" Ra.pp_plan plan
    in
    let rows =
      String.split_on_char '\n' text
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map (fun line -> [| Value.Str line |])
    in
    Rows ([| Schema.column "plan" Schema.Tstr |], rows)
  | Ast.Insert { table; columns; source } -> (
    let t = Catalog.find catalog table in
    match source with
    | `Values tuples ->
      let rows =
        List.map
          (fun exprs -> row_of_values t columns (List.map Compile.const_value exprs))
          tuples
      in
      Table.insert_many t rows;
      Affected (List.length rows)
    | `Query q ->
      let _, rows = run_select ~optimize catalog q in
      let rows = List.map (fun r -> row_of_values t columns (Array.to_list r)) rows in
      Table.insert_many t rows;
      Affected (List.length rows))
  | Ast.Delete { table; where } -> (
    let t = Catalog.find catalog table in
    match where with
    | None ->
      let n = Table.row_count t in
      Table.clear t;
      Affected n
    | Some w ->
      let schema = Schema.requalify table (Table.schema t) in
      let pred = Compile.compile_predicate catalog schema w in
      Affected (Table.delete_where t (fun row -> Eval.truthy (Eval.eval_expr ~row pred))))
  | Ast.Update { table; sets; where } ->
    let t = Catalog.find catalog table in
    let schema = Schema.requalify table (Table.schema t) in
    let pred =
      match where with
      | None -> Ra.Const (Value.Bool true)
      | Some w -> Compile.compile_predicate catalog schema w
    in
    let compiled_sets =
      List.map
        (fun (col, e) ->
          match Schema.find schema ~rel:None ~name:col with
          | Ok i -> (i, Compile.compile_predicate catalog schema e)
          | Error `Unknown -> fail "UPDATE: unknown column %s" col
          | Error `Ambiguous -> fail "UPDATE: ambiguous column %s" col)
        sets
    in
    Affected
      (Table.update_where t
         (fun row -> Eval.truthy (Eval.eval_expr ~row pred))
         (fun row ->
           let news =
             List.map (fun (i, e) -> (i, Eval.eval_expr ~row e)) compiled_sets
           in
           List.iter (fun (i, v) -> row.(i) <- v) news))
  | Ast.Create_table { name; cols } ->
    if Catalog.find_opt catalog name <> None then
      fail "table %s already exists" name;
    let schema =
      Schema.of_list (List.map (fun (n, ty) -> Schema.column n ty) cols)
    in
    Catalog.register catalog (Table.create ~name schema);
    Done
  | Ast.Create_index { table; cols } ->
    let t = Catalog.find catalog table in
    let positions =
      List.map
        (fun c ->
          match Schema.find (Table.schema t) ~rel:None ~name:c with
          | Ok i -> i
          | Error `Unknown -> fail "CREATE INDEX: unknown column %s" c
          | Error `Ambiguous -> fail "CREATE INDEX: ambiguous column %s" c)
        cols
    in
    Table.create_index t positions;
    Done
  | Ast.Drop_table name ->
    if Catalog.find_opt catalog name = None then fail "unknown table %s" name;
    Catalog.drop catalog name;
    Done

let exec ?(optimize = `Full) catalog sql =
  exec_stmt ~optimize catalog (Parser.parse_stmt sql)

let query ?(optimize = `Full) catalog sql =
  match exec ~optimize catalog sql with
  | Rows (schema, rows) -> (schema, rows)
  | Affected _ | Done -> fail "expected a SELECT statement"

let exec_script ?(optimize = `Full) catalog sql =
  let stmts = Parser.parse_script sql in
  List.fold_left (fun _ stmt -> exec_stmt ~optimize catalog stmt) Done stmts

let prepare ?(optimize = `Full) catalog sql =
  let q = Parser.parse_query sql in
  Optimizer.optimize ~level:optimize (Compile.compile_query catalog q)

type prepared = { plan : Ra.plan; params : (int, Value.t ref) Hashtbl.t }

let prepare_params ?(optimize = `Full) catalog sql =
  let q = Parser.parse_query sql in
  let plan, params = Compile.compile_query_params catalog q in
  { plan = Optimizer.optimize ~level:optimize plan; params }

let prepared_plan p = p.plan

let bind p k v =
  match Hashtbl.find_opt p.params k with
  | Some cell -> cell := v
  | None -> fail "no placeholder ?%d in prepared statement" k

let run_prepared p = Eval.run p.plan

let run_plan plan = Eval.run plan

let render schema rows =
  let headers =
    Array.to_list
      (Array.map
         (fun (c : Schema.column) ->
           match c.Schema.rel with
           | Some r -> r ^ "." ^ c.Schema.name
           | None -> c.Schema.name)
         schema)
  in
  let table = Ds_util.Tablefmt.create headers in
  List.iter
    (fun row ->
      Ds_util.Tablefmt.add_row table
        (Array.to_list
           (Array.map
              (fun v ->
                match v with
                | Value.Str s -> s (* unquoted for display *)
                | v -> Value.to_string v)
              row)))
    rows;
  Ds_util.Tablefmt.render table
