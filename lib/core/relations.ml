open Ds_model
open Ds_relal

type t = {
  catalog : Ds_sql.Catalog.t;
  requests : Table.t;
  history : Table.t;
  rte : Table.t;
  dead : Table.t;
}

let schema =
  Schema.of_list
    [
      Schema.column "id" Schema.Tint;
      Schema.column "ta" Schema.Tint;
      Schema.column "intrata" Schema.Tint;
      Schema.column "operation" Schema.Tstr;
      Schema.column "object" Schema.Tint;
      Schema.column "sla" Schema.Tstr;
      Schema.column "weight" Schema.Tint;
      Schema.column "arrival" Schema.Tfloat;
    ]

let create () =
  let requests = Table.create ~name:"requests" schema in
  let history = Table.create ~name:"history" schema in
  let rte = Table.create ~name:"rte" schema in
  let dead = Table.create ~name:"dead" schema in
  (* The protocol queries join on ta and on object; declare the hash indexes
     the optimizer ablation toggles. Range predicates (rationing's
     [object < T]) are tested on the rows a probe finds and need no
     index. *)
  List.iter
    (fun t ->
      Table.create_index t [ 1 ];
      (* ta *)
      Table.create_index t [ 4 ] (* object *))
    [ requests; history ];
  (* operation: lets prune find terminal rows by probe instead of scan *)
  Table.create_index history [ 3 ];
  let catalog = Ds_sql.Catalog.create () in
  List.iter (Ds_sql.Catalog.register catalog) [ requests; history; rte; dead ];
  { catalog; requests; history; rte; dead }

(* Rows share their operation, tier and small-integer values: values are
   immutable, so a row allocates only its id, ta, object and arrival
   (intrata and the tiers' weights stay below [small_ints]). *)
let small_ints = Array.init 256 (fun n -> Value.Int n)

let int_value n =
  if n >= 0 && n < Array.length small_ints then small_ints.(n) else Value.Int n

let op_value =
  let v op = Value.Str (String.make 1 (Op.to_char op)) in
  let r = v Op.Read and w = v Op.Write and a = v Op.Abort and c = v Op.Commit in
  function Op.Read -> r | Op.Write -> w | Op.Abort -> a | Op.Commit -> c

let tier_value =
  let v tier = Value.Str (Sla.tier_to_string tier) in
  let p = v Sla.Premium and s = v Sla.Standard and f = v Sla.Free in
  function Sla.Premium -> p | Sla.Standard -> s | Sla.Free -> f

let row_of_request (r : Request.t) =
  [|
    int_value r.Request.id;
    int_value r.Request.ta;
    int_value r.Request.intrata;
    op_value r.Request.op;
    (match r.Request.obj with Some o -> int_value o | None -> Value.Null);
    tier_value r.Request.sla.Sla.tier;
    int_value r.Request.sla.Sla.weight;
    Value.Float r.Request.arrival;
  |]

let request_of_row row =
  let fail msg = invalid_arg ("Relations.request_of_row: " ^ msg) in
  let int_at i =
    match row.(i) with Value.Int n -> n | _ -> fail "expected INT"
  in
  let op =
    match row.(3) with
    | Value.Str s when String.length s = 1 -> (
      match Op.of_char s.[0] with Some op -> op | None -> fail "bad operation")
    | _ -> fail "expected operation char"
  in
  let obj =
    match row.(4) with
    | Value.Null -> None
    | Value.Int o -> Some o
    | _ -> fail "expected object INT or NULL"
  in
  let sla =
    let default =
      match row.(5) with
      | Value.Str s -> (
        match Sla.tier_of_string s with
        | Some tier -> Sla.of_tier tier
        | None -> fail "bad sla tier")
      | _ -> fail "expected sla TEXT"
    in
    let weight = int_at 6 in
    if weight = default.Sla.weight then default
    else { default with Sla.weight }
  in
  let arrival =
    match row.(7) with
    | Value.Float f -> f
    | Value.Int i -> float_of_int i
    | _ -> fail "expected arrival FLOAT"
  in
  let intrata = int_at 2 in
  if intrata < 0 then begin
    (* Abort markers round-trip through history: id = -(seq+1). *)
    if op <> Op.Abort then fail "negative INTRATA on a non-abort row";
    Request.abort_marker ~arrival ~ta:(int_at 1) ~seq:(-int_at 0 - 1) ()
  end
  else
    Request.make ~sla ~arrival ~id:(int_at 0) ~ta:(int_at 1) ~intrata ~op ?obj
      ()

let check_not_marker r =
  if Request.is_abort_marker r then
    invalid_arg "Relations: abort markers belong in history, not requests"

let insert_pending t r =
  check_not_marker r;
  Table.insert t.requests (row_of_request r)

let insert_pending_batch t rs =
  List.iter check_not_marker rs;
  Table.insert_many t.requests (List.map row_of_request rs)

let pending t = List.map request_of_row (Table.rows t.requests)

let history_requests t = List.map request_of_row (Table.rows t.history)

let pending_count t = Table.row_count t.requests

let history_count t = Table.row_count t.history

(* Each key deletes its pending row through the ta index; a key listed
   again finds the row gone, so every request moves once, at its first
   position — the execution order the protocol decided on. *)
let move_to_history t keys =
  let moved = ref [] in
  ignore
    (Table.delete_by_keys t.requests [ 1 ]
       (List.map
          (fun (ta, intrata) ->
            let first = ref true in
            ( [ int_value ta ],
              fun row ->
                match row.(2) with
                | Value.Int i when i = intrata ->
                  if !first then moved := row :: !moved;
                  first := false;
                  true
                | _ -> false ))
          keys));
  let rows = List.rev !moved in
  Table.insert_many t.history rows;
  Table.insert_many t.rte rows;
  List.map request_of_row rows

(* Transactions with a terminal row in history, off the operation index
   (catching every insertion path — scheduler, journal restore, direct test
   inserts). *)
let finished_tas t =
  let finished = Hashtbl.create 64 in
  List.iter
    (fun op ->
      List.iter
        (fun row ->
          match row.(1) with
          | Value.Int ta -> Hashtbl.replace finished ta ()
          | _ -> ())
        (Table.probe t.history [ 3 ] [ Value.Str op ]))
    [ "a"; "c" ];
  finished

let blocker_lookup t =
  let finished = finished_tas t in
  fun (r : Request.t) ->
    match r.Request.obj with
    | None -> None
    | Some o ->
      List.find_map
        (fun row ->
          let h = request_of_row row in
          if Request.conflicts r h && not (Hashtbl.mem finished h.Request.ta)
          then Some h.Request.ta
          else None)
        (Table.probe t.history [ 4 ] [ Value.Int o ])

(* Terminal rows come straight off the operation index, and every finished
   transaction is deleted through the ta index in one batch: O(batch), no
   full scan. *)
let prune_history t =
  Table.delete_by_keys t.history [ 1 ]
    (Hashtbl.fold
       (fun ta () keys -> ([ Value.Int ta ], fun _ -> true) :: keys)
       (finished_tas t) [])

let rte_requests t = List.map request_of_row (Table.rows t.rte)

let insert_history t r = Table.insert t.history (row_of_request r)

let insert_rte t rs =
  Table.insert_many t.rte (List.map row_of_request rs)

let insert_dead t r = Table.insert t.dead (row_of_request r)

let dead_requests t = List.map request_of_row (Table.rows t.dead)

let dead_count t = Table.row_count t.dead

let clear t =
  Table.clear t.requests;
  Table.clear t.history;
  Table.clear t.rte;
  Table.clear t.dead
