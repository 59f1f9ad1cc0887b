type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

let null = Null

let int i = Int i

let float f = Float f

let str s = Str s

let bool b = Bool b

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

(* An int against a float, exactly: [float_of_int] rounds past 2^53, which
   would make [Int (2^53 + 1)] equal [Float 2^53] and that equal
   [Int 2^53], so equality would not be transitive. *)
let compare_int_float x y =
  if Float.is_integer y && y >= -0x1p62 && y < 0x1p62 then Int.compare x (int_of_float y)
  else if Float.is_integer y then if y > 0. then -1 else 1
  else Float.compare (float_of_int x) y

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Null | Int _ | Float _ | Str _ | Bool _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Below 2^53 in magnitude every int is exactly a float, so there [equal]
   on numbers is integer equality: an integral float equals exactly one such
   int, and no number outside the range equals one inside it. *)
let exact_int = function
  | Int i when i > -(1 lsl 53) && i < 1 lsl 53 -> i
  | Float f when Float.is_integer f && Float.abs f < 0x1p53 -> int_of_float f
  | Null | Int _ | Float _ | Str _ | Bool _ -> min_int

let half = 1 lsl 30

let pack_pair a b =
  let i = exact_int a and j = exact_int b in
  if i >= -half && i < half && j >= -half && j < half then (i lsl 31) lor (j + half)
  else min_int

let hash_int i =
  let h = i * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Equal values hash alike: numbers in [exact_int]'s range by that int, any
   other number through its float value. *)
let hash v =
  let i = exact_int v in
  if i <> min_int then hash_int i
  else
    match v with
    | Null -> 0
    | Int n -> Hashtbl.hash (float_of_int n)
    | Float f -> Hashtbl.hash f
    | Str s -> Hashtbl.hash s
    | Bool b -> if b then 3 else 5

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> "'" ^ s ^ "'"
  | Bool b -> if b then "TRUE" else "FALSE"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let as_int = function
  | Int i -> Some i
  | Float f -> if Float.is_finite f then Some (int_of_float f) else None
  | Null | Str _ | Bool _ -> None

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Str _ | Bool _ -> None
