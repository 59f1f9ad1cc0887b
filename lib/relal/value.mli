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
    compare numerically so [Int 1 = Float 1.0] for grouping purposes, and
    exactly: an int past 2^53 is not rounded to a float first, so
    [Int (2^53 + 1)] is greater than [Float 2^53], and equality is
    transitive. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Consistent with {!equal}. *)
val hash : t -> int

(** [exact_int v] is the int that [v] equals when [v] is a number below
    2^53 in magnitude with no fractional part ([Int 1] and [Float 1.] both
    give 1); [min_int] for any other value. In that range {!equal} on
    numbers is equality of these ints. *)
val exact_int : t -> int

(** [pack_pair a b] is the pair as one int when both are {!exact_int}s
    that fit 31 bits, [-2^30 <= i < 2^30]; [min_int] otherwise (a NULL, a
    non-number, a wide or a non-integral number). With {!exact_int} for a
    single value, this is the one rule by which index keys ({!Table}) and
    join keys ({!View}) become ints: two keys pack to the same int exactly
    when they are {!equal}, and a key that packs equals no key that does
    not. The result is never [min_int] or [min_int + 1] for a key that
    packs. *)
val pack_pair : t -> t -> int

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
