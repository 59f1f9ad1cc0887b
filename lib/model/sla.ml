type tier = Premium | Standard | Free

type t = { tier : tier; weight : int }

let premium = { tier = Premium; weight = 100 }

let standard = { tier = Standard; weight = 10 }

let free = { tier = Free; weight = 1 }

let of_tier = function
  | Premium -> premium
  | Standard -> standard
  | Free -> free

let tier_rank = function Premium -> 0 | Standard -> 1 | Free -> 2

let equal a b = a.tier = b.tier && a.weight = b.weight

let compare_urgency a b = Int.compare (tier_rank a.tier) (tier_rank b.tier)

let tier_to_string = function
  | Premium -> "premium"
  | Standard -> "standard"
  | Free -> "free"

let tier_of_string = function
  | "premium" -> Some Premium
  | "standard" -> Some Standard
  | "free" -> Some Free
  | _ -> None

let all_tiers = [ Premium; Standard; Free ]
