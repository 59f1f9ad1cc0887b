type _ kind =
  | Rate : float kind
  | Seconds : float kind
  | Cycle : int option kind
  | Time : float option kind
  | Period : float option kind

type 'p row =
  | Row : {
      key : string;
      kind : 'a kind;
      get : 'p -> 'a;
      set : 'p -> 'a -> 'p;
      gate : 'p row option;
      doc : string;
    }
      -> 'p row

type 'p t = { what : string; none : 'p; rows : 'p row list }

let row ?gate kind key doc get set = Row { key; kind; get; set; gate; doc }

(* How a kind of value is read, written and checked. [ok] is written so
   that NaN fails it. *)
type 'a spec = {
  parse : string -> 'a option;
  print : 'a -> string;
  ok : 'a -> bool;
  on : 'a -> bool;  (** the knob changes what the plan does *)
  noun : string;  (** in "bad <noun>" parse errors *)
  name : string;  (** the value's name in help *)
  range : string;
}

let float name range ok =
  { parse = float_of_string_opt; print = Printf.sprintf "%g"; ok;
    on = (fun v -> v > 0.); noun = "number"; name; range }

let optional s =
  { s with
    parse = (fun v -> Option.map Option.some (s.parse v));
    print = Option.fold ~none:"" ~some:s.print;
    ok = Option.fold ~none:true ~some:s.ok;
    on = Option.is_some }

let spec : type a. a kind -> a spec = function
  | Rate -> float "RATE" "in [0,1]" (fun v -> v >= 0. && v <= 1.)
  | Seconds -> float "SECONDS" "non-negative" (fun v -> v >= 0.)
  | Cycle ->
    optional
      { parse = int_of_string_opt; print = string_of_int; ok = (fun c -> c > 0);
        on = Fun.const true; noun = "cycle"; name = "CYCLE";
        range = "positive" }
  | Time -> optional (float "TIME" "non-negative" (fun v -> v >= 0.))
  | Period -> optional (float "PERIOD" "positive" (fun v -> v > 0.))

let shown (Row r) p =
  match r.gate with
  | Some (Row g) -> (spec g.kind).on (g.get p)
  | None -> (spec r.kind).on (r.get p)

let is_none t p = List.for_all (fun row -> not (shown row p)) t.rows

let to_string t p =
  let field (Row r as row) =
    if shown row p then Some (r.key ^ "=" ^ (spec r.kind).print (r.get p))
    else None
  in
  match List.filter_map field t.rows with
  | [] -> "none"
  | parts -> String.concat "," parts

let pp t ppf p = Format.pp_print_string ppf (to_string t p)

let validate t p =
  match
    List.find_opt (fun (Row r) -> not ((spec r.kind).ok (r.get p))) t.rows
  with
  | Some (Row r) -> Error (r.key ^ " must be " ^ (spec r.kind).range)
  | None -> Ok ()

let set_field t p item =
  match String.split_on_char '=' (String.trim item) with
  (* an empty item, and the "none" that [to_string] writes for the empty
     plan, set nothing *)
  | [ "" ] | [ "none" ] -> Ok p
  | [ k; v ] -> (
    match List.find_opt (fun (Row r) -> r.key = k) t.rows with
    | None -> Error (Printf.sprintf "unknown %s key %S" t.what k)
    | Some (Row r) -> (
      let s = spec r.kind in
      match s.parse v with
      | Some x -> Ok (r.set p x)
      | None -> Error (Printf.sprintf "bad %s %S for %s" s.noun v k)))
  | _ -> Error (Printf.sprintf "expected key=value, got %S" item)

let of_string t str =
  let plan =
    List.fold_left
      (fun acc item -> Result.bind acc (fun p -> set_field t p item))
      (Ok t.none)
      (String.split_on_char ',' str)
  in
  Result.bind plan (fun p -> Result.map (fun () -> p) (validate t p))

let help t =
  let entry (Row r) =
    Printf.sprintf "%s=%s %s%s" r.key (spec r.kind).name r.doc
      (match r.gate with
      | Some (Row g) -> " (used with " ^ g.key ^ ")"
      | None -> "")
  in
  let range (Row r) = (spec r.kind).name ^ " " ^ (spec r.kind).range in
  Printf.sprintf "Keys: %s. Values: %s."
    (String.concat "; " (List.map entry t.rows))
    (String.concat ", " (List.sort_uniq compare (List.map range t.rows)))
