open Ds_model

type event = { pos : int; ta : int; op : Op.t; obj : int option }

let events_of_schedule entries =
  List.mapi
    (fun i (e : Ds_server.Schedule.entry) ->
      {
        pos = i;
        ta = e.Ds_server.Schedule.ta;
        op = e.Ds_server.Schedule.op;
        obj =
          (if Op.is_data e.Ds_server.Schedule.op then
             Some e.Ds_server.Schedule.obj
           else None);
      })
    entries

let events_of_requests reqs =
  List.mapi
    (fun i (r : Request.t) ->
      {
        pos = i;
        ta = r.Request.ta;
        op = r.Request.op;
        obj = (if Op.is_data r.Request.op then r.Request.obj else None);
      })
    reqs

let committed_projection events =
  let committed = Hashtbl.create 64 in
  List.iter
    (fun e -> if Op.equal e.op Op.Commit then Hashtbl.replace committed e.ta ())
    events;
  List.filter (fun e -> Hashtbl.mem committed e.ta) events

let terminal_positions events =
  let terminals = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if Op.is_terminal e.op && not (Hashtbl.mem terminals e.ta) then
        Hashtbl.add terminals e.ta e.pos)
    events;
  terminals

type conflict = Ww | Wr | Rw

type edge = {
  src : int;
  dst : int;
  kind : conflict;
  obj : int;
  src_pos : int;
  dst_pos : int;
}

type t = {
  node_list : int list;
  edge_tbl : (int * int, edge) Hashtbl.t;  (** (src, dst) -> earliest edge *)
  succ : (int, (int, unit) Hashtbl.t) Hashtbl.t;
}

let conflict_kind a b =
  match (a, b) with
  | Op.Write, Op.Write -> Some Ww
  | Op.Write, Op.Read -> Some Wr
  | Op.Read, Op.Write -> Some Rw
  | _ -> None

let build events =
  let nodes = Hashtbl.create 64 in
  let by_obj : (int, event list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace nodes e.ta ();
      match e.obj with
      | Some o when Op.is_data e.op -> (
        match Hashtbl.find_opt by_obj o with
        | Some l -> l := e :: !l
        | None -> Hashtbl.add by_obj o (ref [ e ]))
      | _ -> ())
    events;
  let edge_tbl = Hashtbl.create 256 in
  let succ = Hashtbl.create 64 in
  let add_edge e =
    let key = (e.src, e.dst) in
    (match Hashtbl.find_opt edge_tbl key with
    | Some prev when prev.dst_pos <= e.dst_pos -> ()
    | Some _ | None -> Hashtbl.replace edge_tbl key e);
    let s =
      match Hashtbl.find_opt succ e.src with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.add succ e.src s;
        s
    in
    Hashtbl.replace s e.dst ()
  in
  (* Every ordered conflicting pair on each object contributes an edge (not
     just adjacent pairs): the commit-order predicate needs transitive ww
     edges like w1 w2 w3 -> 1->3 as well. Object op lists are short, so the
     quadratic pass is fine for a checker. *)
  Hashtbl.iter
    (fun obj l ->
      let ops = Array.of_list (List.rev !l) in
      let n = Array.length ops in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if ops.(i).ta <> ops.(j).ta then
            match conflict_kind ops.(i).op ops.(j).op with
            | Some kind ->
              add_edge
                {
                  src = ops.(i).ta;
                  dst = ops.(j).ta;
                  kind;
                  obj;
                  src_pos = ops.(i).pos;
                  dst_pos = ops.(j).pos;
                }
            | None -> ()
        done
      done)
    by_obj;
  let node_list =
    Hashtbl.fold (fun ta () acc -> ta :: acc) nodes [] |> List.sort Int.compare
  in
  { node_list; edge_tbl; succ }

let nodes t = t.node_list

let edges t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.edge_tbl []
  |> List.sort (fun a b ->
         match Int.compare a.src b.src with
         | 0 -> Int.compare a.dst b.dst
         | c -> c)

let successors t ta =
  match Hashtbl.find_opt t.succ ta with
  | None -> []
  | Some s -> Hashtbl.fold (fun v () acc -> v :: acc) s [] |> List.sort Int.compare

let edge_count t = Hashtbl.length t.edge_tbl

(* Iterative DFS with an explicit path stack so the witness cycle can be cut
   out of the path when a back edge is found. *)
let find_cycle t =
  let color = Hashtbl.create 64 in
  (* 1 = on path, 2 = done *)
  let witness = ref None in
  let rec dfs path v =
    Hashtbl.replace color v 1;
    List.iter
      (fun w ->
        if !witness = None then
          match Hashtbl.find_opt color w with
          | Some 1 ->
            (* Back edge: the cycle is w ... v along the current path. *)
            let rec cut = function
              | [] -> []
              | x :: rest -> if x = w then [ x ] else x :: cut rest
            in
            witness := Some (List.rev (cut (v :: path)))
          | Some _ -> ()
          | None -> dfs (v :: path) w)
      (successors t v);
    Hashtbl.replace color v 2
  in
  List.iter
    (fun v -> if !witness = None && not (Hashtbl.mem color v) then dfs [] v)
    t.node_list;
  !witness

let conflict_to_string = function Ww -> "ww" | Wr -> "wr" | Rw -> "rw"

let pp_event ppf (e : event) =
  match e.obj with
  | Some o ->
    Format.fprintf ppf "%c%d[x%d]@@%d" (Op.to_char e.op) e.ta o e.pos
  | None -> Format.fprintf ppf "%c%d@@%d" (Op.to_char e.op) e.ta e.pos
