open Ds_model

exception Malformed of string * int

let fail lineno fmt =
  Format.kasprintf (fun s -> raise (Malformed (s, lineno))) fmt

let header = "id,ta,intrata,operation,object,sla,arrival"

let line_of_request (r : Request.t) =
  Printf.sprintf "%d,%d,%d,%c,%s,%s,%.6f" r.Request.id r.Request.ta
    r.Request.intrata
    (Op.to_char r.Request.op)
    (match r.Request.obj with Some o -> string_of_int o | None -> "")
    (Sla.tier_to_string r.Request.sla.Sla.tier)
    r.Request.arrival

let request_of_line ~lineno line =
  match String.split_on_char ',' (String.trim line) with
  | [ id; ta; intrata; op; obj; sla; arrival ] ->
    let int_field name v =
      match int_of_string_opt v with
      | Some n -> n
      | None -> fail lineno "field %s: expected integer, got %S" name v
    in
    let op =
      if String.length op = 1 then
        match Op.of_char op.[0] with
        | Some op -> op
        | None -> fail lineno "unknown operation %S" op
      else fail lineno "operation must be one character, got %S" op
    in
    let obj =
      match String.trim obj with
      | "" -> None
      | v -> Some (int_field "object" v)
    in
    let sla =
      match Sla.tier_of_string (String.trim sla) with
      | Some tier -> Sla.of_tier tier
      | None -> Sla.standard
    in
    let arrival =
      match float_of_string_opt arrival with
      | Some f -> f
      | None -> fail lineno "field arrival: expected float, got %S" arrival
    in
    (try
       Request.make ~sla ~arrival ~id:(int_field "id" id)
         ~ta:(int_field "ta" ta)
         ~intrata:(int_field "intrata" intrata)
         ~op ?obj ()
     with Invalid_argument msg -> fail lineno "%s" msg)
  | _ -> fail lineno "expected 7 comma-separated fields"

let to_channel oc requests =
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun r ->
      output_string oc (line_of_request r);
      output_char oc '\n')
    requests

let of_channel ic =
  let requests = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let trimmed = String.trim line in
       if trimmed = "" || (!lineno = 1 && trimmed = header) then ()
       else requests := request_of_line ~lineno:!lineno trimmed :: !requests
     done
   with End_of_file -> ());
  List.rev !requests

let save path requests =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> to_channel oc requests)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_channel ic)
