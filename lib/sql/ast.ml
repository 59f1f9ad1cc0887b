type binop =
  | Eq | Neq | Lt | Leq | Gt | Geq
  | Add | Sub | Mul | Div | Mod
  | And | Or

type agg = Count_star | Count | Sum | Min | Max | Avg

type expr =
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Bool_lit of bool
  | Null_lit
  | Ref of string option * string
  | Placeholder of int
  | Bin of binop * expr * expr
  | Neg of expr
  | Not of expr
  | Is_null of expr * bool
  | Exists of full_query
  | In_list of expr * expr list * bool
  | In_query of expr * full_query * bool
  | Agg_call of agg * expr option
  | Case of expr option * (expr * expr) list * expr option

and select_item = Item of expr * string option | Star | Rel_star of string

and join_kind = Jinner | Jleft

and from_item =
  | From_table of string * string option
  | From_sub of full_query * string
  | From_join of from_item * join_kind * from_item * expr option

and select_body = {
  distinct : bool;
  items : select_item list;
  from : from_item list;
  where : expr option;
  group_by : expr list;
  having : expr option;
}

and set_op = Union | Except | Intersect

and query = Select of select_body | Set_op of set_op * bool * query * query

and order_key = expr * bool

and full_query = {
  withs : (string * full_query) list;
  body : query;
  order_by : order_key list;
  limit : int option;
}

type column_def = string * Ds_relal.Schema.ty

type stmt =
  | Select_stmt of full_query
  | Explain of { analyze : bool; query : full_query }
  | Insert of {
      table : string;
      columns : string list option;
      source : [ `Values of expr list list | `Query of full_query ];
    }
  | Delete of { table : string; where : expr option }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Create_table of { name : string; cols : column_def list }
  | Create_index of { table : string; cols : string list }
  | Drop_table of string

let binop_to_string = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Leq -> "<=" | Gt -> ">" | Geq -> ">="
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | And -> "AND" | Or -> "OR"

let rec pp_expr ppf = function
  | Int_lit i -> Format.pp_print_int ppf i
  | Float_lit f -> Format.fprintf ppf "%g" f
  | Str_lit s -> Format.fprintf ppf "'%s'" s
  | Bool_lit b -> Format.pp_print_string ppf (if b then "TRUE" else "FALSE")
  | Null_lit -> Format.pp_print_string ppf "NULL"
  | Placeholder k -> Format.fprintf ppf "?%d" k
  | Ref (None, n) -> Format.pp_print_string ppf n
  | Ref (Some q, n) -> Format.fprintf ppf "%s.%s" q n
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_to_string op) pp_expr b
  | Neg e -> Format.fprintf ppf "(-%a)" pp_expr e
  | Not e -> Format.fprintf ppf "(NOT %a)" pp_expr e
  | Is_null (e, false) -> Format.fprintf ppf "(%a IS NULL)" pp_expr e
  | Is_null (e, true) -> Format.fprintf ppf "(%a IS NOT NULL)" pp_expr e
  | Exists _ -> Format.pp_print_string ppf "EXISTS(...)"
  | In_list (e, _, neg) ->
    Format.fprintf ppf "(%a %sIN (...))" pp_expr e (if neg then "NOT " else "")
  | In_query (e, _, neg) ->
    Format.fprintf ppf "(%a %sIN (SELECT ...))" pp_expr e (if neg then "NOT " else "")
  | Case _ -> Format.pp_print_string ppf "CASE ... END"
  | Agg_call (Count_star, _) -> Format.pp_print_string ppf "COUNT(*)"
  | Agg_call (agg, e) ->
    let name =
      match agg with
      | Count -> "COUNT" | Sum -> "SUM" | Min -> "MIN" | Max -> "MAX"
      | Avg -> "AVG" | Count_star -> assert false
    in
    Format.fprintf ppf "%s(%a)" name
      (fun ppf -> function
        | Some e -> pp_expr ppf e
        | None -> Format.pp_print_string ppf "*")
      e
