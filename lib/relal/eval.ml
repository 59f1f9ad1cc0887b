open Ra

let truthy = function Value.Bool true -> true | _ -> false

let use_table_indexes = ref true

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* SQL three-valued comparison. *)
let compare_values cmp a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    let c = Value.compare a b in
    let r =
      match cmp with
      | Eq -> c = 0
      | Neq -> c <> 0
      | Lt -> c < 0
      | Leq -> c <= 0
      | Gt -> c > 0
      | Geq -> c >= 0
    in
    Value.Bool r

let arith_values op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else
    match (a, b) with
    | Value.Int x, Value.Int y -> (
      match op with
      | Add -> Value.Int (x + y)
      | Sub -> Value.Int (x - y)
      | Mul -> Value.Int (x * y)
      | Div -> if y = 0 then Value.Null else Value.Int (x / y)
      | Mod -> if y = 0 then Value.Null else Value.Int (x mod y))
    | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
      let x = Option.get (Value.as_float a)
      and y = Option.get (Value.as_float b) in
      (match op with
      | Add -> Value.Float (x +. y)
      | Sub -> Value.Float (x -. y)
      | Mul -> Value.Float (x *. y)
      | Div -> if y = 0. then Value.Null else Value.Float (x /. y)
      | Mod -> if y = 0. then Value.Null else Value.Float (Float.rem x y))
    | _ ->
      type_error "arithmetic on non-numeric values %s and %s"
        (Value.to_string a) (Value.to_string b)

(* Kleene logic. *)
let and_values a b =
  match (a, b) with
  | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
  | Value.Bool true, Value.Bool true -> Value.Bool true
  | (Value.Null | Value.Bool _), (Value.Null | Value.Bool _) -> Value.Null
  | _ -> type_error "AND on non-boolean values"

let or_values a b =
  match (a, b) with
  | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
  | Value.Bool false, Value.Bool false -> Value.Bool false
  | (Value.Null | Value.Bool _), (Value.Null | Value.Bool _) -> Value.Null
  | _ -> type_error "OR on non-boolean values"

let not_value = function
  | Value.Bool b -> Value.Bool (not b)
  | Value.Null -> Value.Null
  | v -> type_error "NOT on non-boolean value %s" (Value.to_string v)

module Row_key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec loop i =
      i >= Array.length a || (Value.equal a.(i) b.(i) && loop (i + 1))
    in
    loop 0

  let hash row = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 row
end

module Row_tbl = Hashtbl.Make (Row_key)

(* Filter-over-scan: the rows the predicate has to be tested on. A
   [col = const] conjunct on a hash-indexed column probes that index; else
   every row. The full predicate is still applied afterwards, so a probe only
   needs to return a superset. A probe returns rows in slot order, the order
   of a full scan. *)
let index_candidates pred p =
  match p with
  | Scan (t, _) when !use_table_indexes ->
    let rec conjuncts = function
      | And (a, b) -> conjuncts a @ conjuncts b
      | e -> [ e ]
    in
    let const_of = function
      | Const v -> Some v
      | Param r -> Some !r
      | _ -> None
    in
    let point = function
      | Cmp (Eq, Col i, rhs) | Cmp (Eq, rhs, Col i) -> (
        match const_of rhs with
        | Some v when (not (Value.is_null v)) && Table.has_index t [ i ] ->
          Some (i, v)
        | _ -> None)
      | _ -> None
    in
    Option.map
      (fun (i, v) -> Table.probe t [ i ] [ v ])
      (List.find_map point (conjuncts pred))
  | _ -> None

let rec eval_expr ?(env = []) ~row e =
  match e with
  | Col i ->
    if i < 0 || i >= Array.length row then
      type_error "column $%d out of range (arity %d)" i (Array.length row)
    else row.(i)
  | Outer (depth, i) -> (
    match List.nth_opt env (depth - 1) with
    | Some outer_row ->
      if i < 0 || i >= Array.length outer_row then
        type_error "outer column $%d out of range" i
      else outer_row.(i)
    | None -> type_error "outer reference at depth %d with no outer row" depth)
  | Const v -> v
  | Param r -> !r
  | Cmp (c, a, b) ->
    compare_values c (eval_expr ~env ~row a) (eval_expr ~env ~row b)
  | Arith (op, a, b) ->
    arith_values op (eval_expr ~env ~row a) (eval_expr ~env ~row b)
  | And (a, b) -> (
    (* Short-circuit: FALSE AND x = FALSE without evaluating x. *)
    match eval_expr ~env ~row a with
    | Value.Bool false -> Value.Bool false
    | va -> and_values va (eval_expr ~env ~row b))
  | Or (a, b) -> (
    match eval_expr ~env ~row a with
    | Value.Bool true -> Value.Bool true
    | va -> or_values va (eval_expr ~env ~row b))
  | Not e -> not_value (eval_expr ~env ~row e)
  | Is_null e -> Value.Bool (Value.is_null (eval_expr ~env ~row e))
  | Exists p -> Value.Bool (run ~env:(row :: env) p <> [])
  | In_list (e, vs) -> (
    match eval_expr ~env ~row e with
    | Value.Null -> Value.Null
    | v ->
      if List.exists (Value.equal v) vs then Value.Bool true
      else if List.exists Value.is_null vs then Value.Null
      else Value.Bool false)
  | Case (arms, default) ->
    let rec arm = function
      | [] -> eval_expr ~env ~row default
      | (c, r) :: rest ->
        if truthy (eval_expr ~env ~row c) then eval_expr ~env ~row r
        else arm rest
    in
    arm arms

and run ?(env = []) plan =
  match plan with
  | Scan (t, _) -> Table.rows t
  | Values (_, rows) -> rows
  | Filter (pred, p) ->
    List.filter
      (fun row -> truthy (eval_expr ~env ~row pred))
      (candidates ~env pred p)

  | Project (cols, p) ->
    List.map
      (fun row -> Array.of_list (List.map (fun (e, _) -> eval_expr ~env ~row e) cols))
      (run ~env p)
  | Cross (l, r) ->
    let right_rows = run ~env r in
    List.concat_map
      (fun lrow -> List.map (fun rrow -> Array.append lrow rrow) right_rows)
      (run ~env l)
  | Join j -> eval_join ~env j
  | Union_all (l, r) -> run ~env l @ run ~env r
  | Union (l, r) -> dedup (run ~env l @ run ~env r)
  | Except (l, r) ->
    let right_set = row_set (run ~env r) in
    dedup (List.filter (fun row -> not (Row_tbl.mem right_set row)) (run ~env l))
  | Intersect (l, r) ->
    let right_set = row_set (run ~env r) in
    dedup (List.filter (fun row -> Row_tbl.mem right_set row) (run ~env l))
  | Distinct p -> dedup (run ~env p)
  | Sort (keys, p) ->
    let rows = run ~env p in
    let decorated =
      List.map
        (fun row -> (List.map (fun (e, _) -> eval_expr ~env ~row e) keys, row))
        rows
    in
    let compare_keys (ka, _) (kb, _) =
      let rec loop ks dirs =
        match (ks, dirs) with
        | [], [] -> 0
        | (a, b) :: rest, (_, dir) :: dirs -> (
          let c = Value.compare a b in
          let c = match dir with `Asc -> c | `Desc -> -c in
          match c with 0 -> loop rest dirs | c -> c)
        | _ -> assert false
      in
      loop (List.combine ka kb) keys
    in
    List.map snd (List.stable_sort compare_keys decorated)
  | Limit (n, p) ->
    let rec take n = function
      | [] -> []
      | _ when n <= 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    take n (run ~env p)
  | Group { keys; aggs; input } -> eval_group ~env keys aggs input

and candidates ?(env = []) pred p =
  match index_candidates pred p with Some rows -> rows | None -> run ~env p

and dedup rows =
  let seen = Row_tbl.create 64 in
  List.filter
    (fun row ->
      if Row_tbl.mem seen row then false
      else begin
        Row_tbl.add seen row ();
        true
      end)
    rows

and row_set rows =
  let set = Row_tbl.create (max 16 (List.length rows)) in
  List.iter (fun row -> Row_tbl.replace set row ()) rows;
  set

and eval_join ~env { kind; lkeys; rkeys; residual; left; right } =
  let left_rows = run ~env left in
  let right_arity = Schema.arity (schema_of right) in
  let residual_ok combined =
    match residual with
    | None -> true
    | Some e -> truthy (eval_expr ~env ~row:combined e)
  in
  (* When the right side is a base-table scan carrying an index on exactly
     the join columns, probe it directly; otherwise hash the materialized
     right side. NULL keys never join either way (left NULL keys are
     rejected before probing; the persistent index may file rows under NULL
     keys, but those buckets are unreachable). *)
  let bucket, probe =
    let direct =
      if not !use_table_indexes then None
      else
        match right with
        | Scan (t, _) ->
          let cols =
            List.filter_map (function Col i -> Some i | _ -> None) rkeys
          in
          if List.length cols = List.length rkeys && Table.has_index t cols
          then Some (fun key -> Table.probe t cols (Array.to_list key))
          else None
        | _ -> None
    in
    match direct with
    | Some probe -> (probe, probe)
    | None ->
      let right_rows = run ~env right in
      let index = Row_tbl.create (max 16 (List.length right_rows)) in
      List.iter
        (fun rrow ->
          let key =
            Array.of_list (List.map (fun e -> eval_expr ~env ~row:rrow e) rkeys)
          in
          if not (Array.exists Value.is_null key) then begin
            let prev = Option.value ~default:[] (Row_tbl.find_opt index key) in
            Row_tbl.replace index key (rrow :: prev)
          end)
        right_rows;
      (* [bucket] holds a key's rows newest first; [probe] restores the
         right side's order. *)
      let bucket key = Option.value ~default:[] (Row_tbl.find_opt index key) in
      (bucket, fun key -> List.rev (bucket key))
  in
  let key_of lrow =
    let key = Array.of_list (List.map (fun e -> eval_expr ~env ~row:lrow e) lkeys) in
    if Array.exists Value.is_null key then None else Some key
  in
  let matches lrow =
    match key_of lrow with
    | None -> []
    | Some key ->
      List.filter_map
        (fun rrow ->
          let combined = Array.append lrow rrow in
          if residual_ok combined then Some combined else None)
        (probe key)
  in
  (* Semi and anti joins only ask whether a match exists: stop at the first
     one, and build no combined row when there is no residual to test. *)
  let has_match lrow =
    match key_of lrow with
    | None -> false
    | Some key -> (
      match residual with
      | None -> bucket key <> []
      | Some _ ->
        List.exists (fun rrow -> residual_ok (Array.append lrow rrow)) (bucket key))
  in
  match kind with
  | Inner -> List.concat_map matches left_rows
  | Left ->
    List.concat_map
      (fun lrow ->
        match matches lrow with
        | [] -> [ Array.append lrow (Array.make right_arity Value.Null) ]
        | ms -> ms)
      left_rows
  | Semi -> List.filter has_match left_rows
  | Anti -> List.filter (fun lrow -> not (has_match lrow)) left_rows

and eval_group ~env keys aggs input =
  let rows = run ~env input in
  let groups = Row_tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key =
        Array.of_list (List.map (fun (e, _) -> eval_expr ~env ~row e) keys)
      in
      match Row_tbl.find_opt groups key with
      | Some members -> members := row :: !members
      | None ->
        Row_tbl.add groups key (ref [ row ]);
        order := key :: !order)
    rows;
  let order = List.rev !order in
  let agg_value members = function
    | Count_star -> Value.Int (List.length members)
    | Count e ->
      Value.Int
        (List.length
           (List.filter
              (fun row -> not (Value.is_null (eval_expr ~env ~row e)))
              members))
    | Sum e -> fold_sum ~env members e
    | Min e -> fold_minmax ~env members e ~better:(fun a b -> Value.compare a b < 0)
    | Max e -> fold_minmax ~env members e ~better:(fun a b -> Value.compare a b > 0)
    | Avg e -> (
      let vals = non_null_floats ~env members e in
      match vals with
      | [] -> Value.Null
      | _ ->
        Value.Float
          (List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals)))
  in
  (* Empty input with no GROUP BY keys still yields one row (SQL aggregate
     over an empty relation). *)
  if order = [] && keys = [] then
    [ Array.of_list (List.map (fun (a, _) -> agg_value [] a) aggs) ]
  else
    List.map
      (fun key ->
        let members = List.rev !(Row_tbl.find groups key) in
        Array.append key (Array.of_list (List.map (fun (a, _) -> agg_value members a) aggs)))
      order

and non_null_floats ~env members e =
  List.filter_map
    (fun row ->
      match eval_expr ~env ~row e with
      | Value.Null -> None
      | v -> (
        match Value.as_float v with
        | Some f -> Some f
        | None -> type_error "aggregate over non-numeric value"))
    members

and fold_sum ~env members e =
  (* Ints fold in the int domain and only widen to float once a float input
     appears, so SUM over a FLOAT column stays a Float even when the total is
     integral (2.5 + 1.5 = 4.0, not 4) and pure-int sums keep exact precision
     beyond 2^53. *)
  let acc =
    List.fold_left
      (fun acc row ->
        match eval_expr ~env ~row e with
        | Value.Null -> acc
        | Value.Int i -> (
          match acc with
          | `Empty -> `Int i
          | `Int s -> `Int (s + i)
          | `Float s -> `Float (s +. float_of_int i))
        | Value.Float f -> (
          match acc with
          | `Empty -> `Float f
          | `Int s -> `Float (float_of_int s +. f)
          | `Float s -> `Float (s +. f))
        | Value.Str _ | Value.Bool _ ->
          type_error "aggregate over non-numeric value")
      `Empty members
  in
  match acc with
  | `Empty -> Value.Null
  | `Int s -> Value.Int s
  | `Float s -> Value.Float s

and fold_minmax ~env members e ~better =
  List.fold_left
    (fun best row ->
      match eval_expr ~env ~row e with
      | Value.Null -> best
      | v -> (
        match best with
        | Value.Null -> v
        | b -> if better v b then v else b))
    Value.Null members
