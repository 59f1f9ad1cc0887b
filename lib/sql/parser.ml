exception Parse_error of string * int

type state = { mutable toks : (Token.t * int) list; mutable n_params : int }

let err st msg =
  let pos = match st.toks with (_, p) :: _ -> p | [] -> -1 in
  raise (Parse_error (msg, pos))

let peek st = match st.toks with (t, _) :: _ -> t | [] -> Token.Eof

let peek2 st = match st.toks with _ :: (t, _) :: _ -> t | _ -> Token.Eof

let peek3 st = match st.toks with _ :: _ :: (t, _) :: _ -> t | _ -> Token.Eof

let advance st =
  match st.toks with (_ :: rest) -> st.toks <- rest | [] -> ()

let eat_kw st kw =
  match peek st with
  | Token.Kw k when k = kw -> advance st
  | t -> err st (Printf.sprintf "expected %s, found %s" kw (Token.to_string t))

let try_kw st kw =
  match peek st with
  | Token.Kw k when k = kw ->
    advance st;
    true
  | _ -> false

let eat_sym st sym =
  match peek st with
  | Token.Sym s when s = sym -> advance st
  | t -> err st (Printf.sprintf "expected '%s', found %s" sym (Token.to_string t))

let try_sym st sym =
  match peek st with
  | Token.Sym s when s = sym ->
    advance st;
    true
  | _ -> false

let ident st =
  match peek st with
  | Token.Ident name ->
    advance st;
    name
  | t -> err st (Printf.sprintf "expected identifier, found %s" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let agg_of_kw = function
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | "AVG" -> Some Ast.Avg
  | _ -> None

let rec parse_or st =
  let left = parse_and st in
  if try_kw st "OR" then Ast.Bin (Ast.Or, left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if try_kw st "AND" then Ast.Bin (Ast.And, left, parse_and st) else left

and parse_not st =
  if try_kw st "NOT" then Ast.Not (parse_not st) else parse_comparison st

and parse_comparison st =
  let left = parse_additive st in
  match peek st with
  | Token.Sym "=" ->
    advance st;
    Ast.Bin (Ast.Eq, left, parse_additive st)
  | Token.Sym "<>" ->
    advance st;
    Ast.Bin (Ast.Neq, left, parse_additive st)
  | Token.Sym "<" ->
    advance st;
    Ast.Bin (Ast.Lt, left, parse_additive st)
  | Token.Sym "<=" ->
    advance st;
    Ast.Bin (Ast.Leq, left, parse_additive st)
  | Token.Sym ">" ->
    advance st;
    Ast.Bin (Ast.Gt, left, parse_additive st)
  | Token.Sym ">=" ->
    advance st;
    Ast.Bin (Ast.Geq, left, parse_additive st)
  | Token.Kw "IS" ->
    advance st;
    let negated = try_kw st "NOT" in
    eat_kw st "NULL";
    Ast.Is_null (left, negated)
  | Token.Kw "NOT" when peek2 st = Token.Kw "IN" ->
    advance st;
    advance st;
    parse_in st left true
  | Token.Kw "IN" ->
    advance st;
    parse_in st left false
  | Token.Kw "NOT" when peek2 st = Token.Kw "BETWEEN" ->
    advance st;
    advance st;
    Ast.Not (parse_between st left)
  | Token.Kw "BETWEEN" ->
    advance st;
    parse_between st left
  | _ -> left

(* x BETWEEN lo AND hi desugars to x >= lo AND x <= hi (x is duplicated;
   expressions are pure). *)
and parse_between st left =
  let lo = parse_additive st in
  eat_kw st "AND";
  let hi = parse_additive st in
  Ast.Bin (Ast.And, Ast.Bin (Ast.Geq, left, lo), Ast.Bin (Ast.Leq, left, hi))

and parse_in st left negated =
  eat_sym st "(";
  match peek st with
  | Token.Kw "SELECT" | Token.Kw "WITH" ->
    let q = parse_full_query st in
    eat_sym st ")";
    Ast.In_query (left, q, negated)
  | _ ->
    let rec items acc =
      let e = parse_or st in
      if try_sym st "," then items (e :: acc) else List.rev (e :: acc)
    in
    let vs = items [] in
    eat_sym st ")";
    Ast.In_list (left, vs, negated)

and parse_additive st =
  let left = parse_multiplicative st in
  let rec loop left =
    match peek st with
    | Token.Sym "+" ->
      advance st;
      loop (Ast.Bin (Ast.Add, left, parse_multiplicative st))
    | Token.Sym "-" ->
      advance st;
      loop (Ast.Bin (Ast.Sub, left, parse_multiplicative st))
    | _ -> left
  in
  loop left

and parse_multiplicative st =
  let left = parse_unary st in
  let rec loop left =
    match peek st with
    | Token.Sym "*" ->
      advance st;
      loop (Ast.Bin (Ast.Mul, left, parse_unary st))
    | Token.Sym "/" ->
      advance st;
      loop (Ast.Bin (Ast.Div, left, parse_unary st))
    | Token.Sym "%" ->
      advance st;
      loop (Ast.Bin (Ast.Mod, left, parse_unary st))
    | _ -> left
  in
  loop left

and parse_unary st =
  if try_sym st "-" then Ast.Neg (parse_unary st) else parse_primary st

and parse_primary st =
  match peek st with
  | Token.Int_lit i ->
    advance st;
    Ast.Int_lit i
  | Token.Float_lit f ->
    advance st;
    Ast.Float_lit f
  | Token.Str_lit s ->
    advance st;
    Ast.Str_lit s
  | Token.Kw "NULL" ->
    advance st;
    Ast.Null_lit
  | Token.Kw "TRUE" ->
    advance st;
    Ast.Bool_lit true
  | Token.Kw "FALSE" ->
    advance st;
    Ast.Bool_lit false
  | Token.Kw "EXISTS" ->
    advance st;
    eat_sym st "(";
    let q = parse_full_query st in
    eat_sym st ")";
    Ast.Exists q
  | Token.Kw "CASE" ->
    advance st;
    let operand =
      match peek st with Token.Kw "WHEN" -> None | _ -> Some (parse_or st)
    in
    let rec arms acc =
      if try_kw st "WHEN" then begin
        let w = parse_or st in
        eat_kw st "THEN";
        let r = parse_or st in
        arms ((w, r) :: acc)
      end
      else List.rev acc
    in
    let arms = arms [] in
    if arms = [] then err st "CASE requires at least one WHEN arm";
    let default = if try_kw st "ELSE" then Some (parse_or st) else None in
    eat_kw st "END";
    Ast.Case (operand, arms, default)
  | Token.Kw kw when agg_of_kw kw <> None ->
    advance st;
    eat_sym st "(";
    let agg = Option.get (agg_of_kw kw) in
    if agg = Ast.Count && try_sym st "*" then begin
      eat_sym st ")";
      Ast.Agg_call (Ast.Count_star, None)
    end
    else begin
      let e = parse_or st in
      eat_sym st ")";
      Ast.Agg_call (agg, Some e)
    end
  | Token.Sym "?" ->
    advance st;
    let k = st.n_params in
    st.n_params <- st.n_params + 1;
    Ast.Placeholder k
  | Token.Sym "(" -> (
    advance st;
    match peek st with
    | Token.Kw "SELECT" | Token.Kw "WITH" ->
      err st "scalar subqueries are not supported (use EXISTS or IN)"
    | _ ->
      let e = parse_or st in
      eat_sym st ")";
      e)
  | Token.Ident name -> (
    advance st;
    if try_sym st "." then Ast.Ref (Some name, ident st) else Ast.Ref (None, name))
  | t -> err st (Printf.sprintf "unexpected token %s in expression" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

and parse_select_items st =
  let item () =
    match (peek st, peek2 st, peek3 st) with
    | Token.Sym "*", _, _ ->
      advance st;
      Ast.Star
    | Token.Ident rel, Token.Sym ".", Token.Sym "*" ->
      advance st;
      advance st;
      advance st;
      Ast.Rel_star rel
    | _ ->
      let e = parse_or st in
      let alias =
        if try_kw st "AS" then Some (ident st)
        else
          match peek st with
          | Token.Ident a ->
            advance st;
            Some a
          | _ -> None
      in
      Ast.Item (e, alias)
  in
  let rec loop acc =
    let i = item () in
    if try_sym st "," then loop (i :: acc) else List.rev (i :: acc)
  in
  loop []

and parse_from_primary st =
  match peek st with
  | Token.Sym "(" ->
    advance st;
    let q = parse_full_query st in
    eat_sym st ")";
    let alias =
      if try_kw st "AS" then ident st
      else
        match peek st with
        | Token.Ident a ->
          advance st;
          a
        | _ -> err st "subquery in FROM requires an alias"
    in
    Ast.From_sub (q, alias)
  | _ ->
    let name = ident st in
    let alias =
      if try_kw st "AS" then Some (ident st)
      else
        match peek st with
        | Token.Ident a ->
          advance st;
          Some a
        | _ -> None
    in
    Ast.From_table (name, alias)

and parse_from_item st =
  let left = parse_from_primary st in
  let rec joins left =
    match peek st with
    | Token.Kw "JOIN" ->
      advance st;
      let right = parse_from_primary st in
      let on = if try_kw st "ON" then Some (parse_or st) else None in
      joins (Ast.From_join (left, Ast.Jinner, right, on))
    | Token.Kw "INNER" ->
      advance st;
      eat_kw st "JOIN";
      let right = parse_from_primary st in
      let on = if try_kw st "ON" then Some (parse_or st) else None in
      joins (Ast.From_join (left, Ast.Jinner, right, on))
    | Token.Kw "LEFT" ->
      advance st;
      ignore (try_kw st "OUTER");
      eat_kw st "JOIN";
      let right = parse_from_primary st in
      let on = if try_kw st "ON" then Some (parse_or st) else None in
      joins (Ast.From_join (left, Ast.Jleft, right, on))
    | Token.Kw "CROSS" ->
      advance st;
      eat_kw st "JOIN";
      let right = parse_from_primary st in
      joins (Ast.From_join (left, Ast.Jinner, right, None))
    | _ -> left
  in
  joins left

and parse_select_body st =
  eat_kw st "SELECT";
  let distinct = try_kw st "DISTINCT" in
  let items = parse_select_items st in
  let from =
    if try_kw st "FROM" then begin
      let rec loop acc =
        let f = parse_from_item st in
        if try_sym st "," then loop (f :: acc) else List.rev (f :: acc)
      in
      loop []
    end
    else []
  in
  let where = if try_kw st "WHERE" then Some (parse_or st) else None in
  let group_by =
    if try_kw st "GROUP" then begin
      eat_kw st "BY";
      let rec loop acc =
        let e = parse_or st in
        if try_sym st "," then loop (e :: acc) else List.rev (e :: acc)
      in
      loop []
    end
    else []
  in
  let having = if try_kw st "HAVING" then Some (parse_or st) else None in
  { Ast.distinct; items; from; where; group_by; having }

(* A set-operation operand: a SELECT body or a parenthesized set query. *)
and parse_set_operand st =
  match peek st with
  | Token.Kw "SELECT" -> Ast.Select (parse_select_body st)
  | Token.Sym "(" ->
    advance st;
    let q = parse_set_query st in
    eat_sym st ")";
    q
  | t -> err st (Printf.sprintf "expected SELECT or '(', found %s" (Token.to_string t))

and parse_set_query st =
  let left = parse_set_operand st in
  let rec loop left =
    let op =
      match peek st with
      | Token.Kw "UNION" -> Some Ast.Union
      | Token.Kw "EXCEPT" -> Some Ast.Except
      | Token.Kw "INTERSECT" -> Some Ast.Intersect
      | _ -> None
    in
    match op with
    | None -> left
    | Some op ->
      advance st;
      let all = try_kw st "ALL" in
      let right = parse_set_operand st in
      loop (Ast.Set_op (op, all, left, right))
  in
  loop left

and parse_full_query st =
  let withs =
    if try_kw st "WITH" then begin
      let rec loop acc =
        let name = ident st in
        eat_kw st "AS";
        eat_sym st "(";
        let q = parse_full_query st in
        eat_sym st ")";
        let acc = (name, q) :: acc in
        if try_sym st "," then loop acc else List.rev acc
      in
      loop []
    end
    else []
  in
  let body = parse_set_query st in
  let order_by =
    if try_kw st "ORDER" then begin
      eat_kw st "BY";
      let rec loop acc =
        let e = parse_or st in
        let asc =
          if try_kw st "DESC" then false
          else begin
            ignore (try_kw st "ASC");
            true
          end
        in
        let acc = (e, asc) :: acc in
        if try_sym st "," then loop acc else List.rev acc
      in
      loop []
    end
    else []
  in
  let limit =
    if try_kw st "LIMIT" then begin
      match peek st with
      | Token.Int_lit n ->
        advance st;
        Some n
      | _ -> err st "expected integer after LIMIT"
    end
    else None
  in
  { Ast.withs; body; order_by; limit }

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let parse_ty st =
  match peek st with
  | Token.Kw ("INT" | "INTEGER") ->
    advance st;
    Ds_relal.Schema.Tint
  | Token.Kw ("FLOAT" | "REAL") ->
    advance st;
    Ds_relal.Schema.Tfloat
  | Token.Kw ("TEXT" | "VARCHAR") ->
    advance st;
    if try_sym st "(" then begin
      (match peek st with
      | Token.Int_lit _ -> advance st
      | _ -> err st "expected length");
      eat_sym st ")"
    end;
    Ds_relal.Schema.Tstr
  | Token.Kw ("BOOL" | "BOOLEAN") ->
    advance st;
    Ds_relal.Schema.Tbool
  | t -> err st (Printf.sprintf "expected a type, found %s" (Token.to_string t))

let parse_statement st =
  match peek st with
  | Token.Kw "SELECT" | Token.Kw "WITH" | Token.Sym "(" ->
    Ast.Select_stmt (parse_full_query st)
  | Token.Kw "EXPLAIN" ->
    advance st;
    let analyze = try_kw st "ANALYZE" in
    Ast.Explain { analyze; query = parse_full_query st }
  | Token.Kw "INSERT" ->
    advance st;
    eat_kw st "INTO";
    let table = ident st in
    let columns =
      if peek st = Token.Sym "(" then begin
        advance st;
        let rec loop acc =
          let c = ident st in
          if try_sym st "," then loop (c :: acc) else List.rev (c :: acc)
        in
        let cols = loop [] in
        eat_sym st ")";
        Some cols
      end
      else None
    in
    let source =
      if try_kw st "VALUES" then begin
        let tuple () =
          eat_sym st "(";
          let rec loop acc =
            let e = parse_or st in
            if try_sym st "," then loop (e :: acc) else List.rev (e :: acc)
          in
          let vs = loop [] in
          eat_sym st ")";
          vs
        in
        let rec tuples acc =
          let t = tuple () in
          if try_sym st "," then tuples (t :: acc) else List.rev (t :: acc)
        in
        `Values (tuples [])
      end
      else `Query (parse_full_query st)
    in
    Ast.Insert { table; columns; source }
  | Token.Kw "DELETE" ->
    advance st;
    eat_kw st "FROM";
    let table = ident st in
    let where = if try_kw st "WHERE" then Some (parse_or st) else None in
    Ast.Delete { table; where }
  | Token.Kw "UPDATE" ->
    advance st;
    let table = ident st in
    eat_kw st "SET";
    let rec sets acc =
      let col = ident st in
      eat_sym st "=";
      let e = parse_or st in
      let acc = (col, e) :: acc in
      if try_sym st "," then sets acc else List.rev acc
    in
    let sets = sets [] in
    let where = if try_kw st "WHERE" then Some (parse_or st) else None in
    Ast.Update { table; sets; where }
  | Token.Kw "CREATE" -> (
    advance st;
    match peek st with
    | Token.Kw "TABLE" ->
      advance st;
      let name = ident st in
      eat_sym st "(";
      let rec cols acc =
        let c = ident st in
        let ty = parse_ty st in
        let acc = (c, ty) :: acc in
        if try_sym st "," then cols acc else List.rev acc
      in
      let cols = cols [] in
      eat_sym st ")";
      Ast.Create_table { name; cols }
    | Token.Kw "INDEX" ->
      advance st;
      eat_kw st "ON";
      let table = ident st in
      eat_sym st "(";
      let rec cols acc =
        let c = ident st in
        if try_sym st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let cols = cols [] in
      eat_sym st ")";
      Ast.Create_index { table; cols }
    | t -> err st (Printf.sprintf "expected TABLE or INDEX, found %s" (Token.to_string t)))
  | Token.Kw "DROP" ->
    advance st;
    eat_kw st "TABLE";
    Ast.Drop_table (ident st)
  | t -> err st (Printf.sprintf "unexpected token %s at start of statement" (Token.to_string t))

let finish st what =
  ignore (try_sym st ";");
  match peek st with
  | Token.Eof -> ()
  | t ->
    err st (Printf.sprintf "trailing input after %s: %s" what (Token.to_string t))

let parse_stmt src =
  let st = { toks = Lexer.tokenize src; n_params = 0 } in
  let s = parse_statement st in
  finish st "statement";
  s

let parse_script src =
  let st = { toks = Lexer.tokenize src; n_params = 0 } in
  let rec loop acc =
    match peek st with
    | Token.Eof -> List.rev acc
    | Token.Sym ";" ->
      advance st;
      loop acc
    | _ ->
      let s = parse_statement st in
      (match peek st with
      | Token.Sym ";" | Token.Eof -> ()
      | t -> err st (Printf.sprintf "expected ';', found %s" (Token.to_string t)));
      loop (s :: acc)
  in
  loop []

let parse_query src =
  let st = { toks = Lexer.tokenize src; n_params = 0 } in
  let q = parse_full_query st in
  finish st "query";
  q
