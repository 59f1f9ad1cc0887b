(** SQL values. [Null] is a first-class value; three-valued logic over it is
    implemented by the expression evaluator ({!Ra}), while this module's
    [compare]/[equal] are *total* (Null first) so values can key indexes and
    sorts deterministically. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

val null : t
val int : int -> t
val float : float -> t
val str : string -> t
val bool : bool -> t

val is_null : t -> bool

(** Total order: Null < Bool < Int ~ Float (numeric) < Str. Ints and floats
    compare numerically so [Int 1 = Float 1.0] for grouping purposes. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Consistent with {!equal}. *)
val hash : t -> int

(** [exact_int v] is the int that [v] equals when [v] is a number below
    2^53 in magnitude with no fractional part ([Int 1] and [Float 1.] both
    give 1); [min_int] for any other value. In that range {!equal} on
    numbers is equality of these ints. *)
val exact_int : t -> int

(** The hash {!hash} gives [Int i] for [i] in {!exact_int}'s range; defined
    on every int. *)
val hash_int : int -> int

(** SQL-ish rendering: NULL, 42, 4.2, 'text', TRUE. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Coercions used by the expression evaluator; [None] when not coercible.
    [Null] maps to [None]. *)
val as_int : t -> int option

val as_float : t -> float option
