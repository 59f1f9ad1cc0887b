(** Service-level classes. The paper motivates SLAs with "premium vs. free
    customers in Web applications" (§1); we model a three-tier scheme with a
    per-class scheduling weight. A protocol reads both from the [sla] and
    [weight] columns of the scheduler relations (e.g. [sla-ordered]'s
    [ORDER BY weight DESC]); queue-overflow shedding ranks by tier. *)

type tier = Premium | Standard | Free

type t = {
  tier : tier;
  weight : int;  (** relative scheduling weight, higher = more urgent *)
}

val premium : t
val standard : t
val free : t

(** The tier's class: {!premium}, {!standard} or {!free}. *)
val of_tier : tier -> t

val equal : t -> t -> bool

(** Orders by descending urgency: [Premium < Standard < Free]. *)
val compare_urgency : t -> t -> int

val tier_to_string : tier -> string
val tier_of_string : string -> tier option
val all_tiers : tier list
