(** Recursive-descent SQL parser over {!Lexer} tokens.

    Notes on the accepted grammar:
    - set operations (UNION / EXCEPT / INTERSECT) associate left and share one
      precedence level; use parentheses to group (as the paper's Listing 1
      does);
    - ORDER BY accepts expressions or 1-based output column positions;
    - scalar subqueries are not supported (subqueries appear under EXISTS, IN
      and FROM). *)

exception Parse_error of string * int  (** message, byte offset *)

val parse_stmt : string -> Ast.stmt

(** Semicolon-separated script; empty statements ignored. *)
val parse_script : string -> Ast.stmt list

(** Convenience: parse a query (SELECT / WITH...) only. *)
val parse_query : string -> Ast.full_query
