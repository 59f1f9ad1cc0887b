(** SQL abstract syntax. The subset is dictated by what scheduling protocols
    need (the paper's Listing 1 plus DML for the scheduler's bookkeeping):
    SELECT with WITH/CTEs, joins, correlated (NOT) EXISTS, IN, set operations,
    grouping/aggregates, ORDER BY/LIMIT; INSERT / DELETE / UPDATE;
    CREATE/DROP TABLE. *)

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
  | Ref of string option * string  (** [qualifier.]name *)
  | Placeholder of int  (** [?], numbered left to right from 0 *)
  | Bin of binop * expr * expr
  | Neg of expr  (** unary minus *)
  | Not of expr
  | Is_null of expr * bool  (** [true] = IS NOT NULL *)
  | Exists of full_query
  | In_list of expr * expr list * bool  (** [true] = NOT IN *)
  | In_query of expr * full_query * bool
  | Agg_call of agg * expr option
  | Case of expr option * (expr * expr) list * expr option
      (** [CASE [e] WHEN w THEN r ... [ELSE d] END]; the operand form
          compares [e] against each [w] *)

and select_item =
  | Item of expr * string option  (** expr [AS alias] *)
  | Star  (** [*] *)
  | Rel_star of string  (** [alias.*] *)

and join_kind = Jinner | Jleft

and from_item =
  | From_table of string * string option  (** name [AS alias] *)
  | From_sub of full_query * string  (** (query) AS alias *)
  | From_join of from_item * join_kind * from_item * expr option  (** ON *)

and select_body = {
  distinct : bool;
  items : select_item list;
  from : from_item list;  (** comma-separated; empty = one-row dual *)
  where : expr option;
  group_by : expr list;
  having : expr option;
}

and set_op = Union | Except | Intersect

and query =
  | Select of select_body
  | Set_op of set_op * bool * query * query  (** op, ALL?, left, right *)

and order_key = expr * bool  (** expr, ascending? *)

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

val pp_expr : Format.formatter -> expr -> unit
