type t =
  | Ident of string
  | Kw of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Sym of string
  | Eof

let keywords =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "ASC"; "DESC";
    "LIMIT"; "DISTINCT"; "AS"; "WITH"; "UNION"; "EXCEPT"; "INTERSECT"; "ALL";
    "AND"; "OR"; "NOT"; "IS"; "NULL"; "TRUE"; "FALSE"; "EXISTS"; "IN"; "BETWEEN";
    "JOIN"; "LEFT"; "INNER"; "OUTER"; "ON"; "CROSS";
    "INSERT"; "INTO"; "VALUES"; "DELETE"; "UPDATE"; "SET";
    "CREATE"; "DROP"; "TABLE"; "INDEX"; "EXPLAIN"; "ANALYZE";
    "COUNT"; "SUM"; "MIN"; "MAX"; "AVG";
    "CASE"; "WHEN"; "THEN"; "ELSE"; "END";
    "INT"; "INTEGER"; "FLOAT"; "REAL"; "TEXT"; "VARCHAR"; "BOOL"; "BOOLEAN";
  ]

let keyword_set =
  let tbl = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) keywords;
  tbl

let is_keyword s = Hashtbl.mem keyword_set (String.uppercase_ascii s)

let to_string = function
  | Ident s -> s
  | Kw s -> s
  | Int_lit i -> string_of_int i
  | Float_lit f -> Printf.sprintf "%g" f
  | Str_lit s -> "'" ^ s ^ "'"
  | Sym s -> s
  | Eof -> "<eof>"

let pp ppf t = Format.pp_print_string ppf (to_string t)
