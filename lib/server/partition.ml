open Ds_model

type cls = { id : int; requests : Request.t list }

let size c = List.length c.requests

(* Union-find over batch positions, with the smaller root winning so a
   class's representative is always its first request in batch order. *)
let find parent i =
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let r = root i in
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then if ri < rj then parent.(rj) <- ri else parent.(ri) <- rj

let partition requests =
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let parent = Array.init n Fun.id in
  (* Rule 1: requests of the same transaction stay together — a worker must
     see a transaction's operations in program order, and its terminal must
     not overtake its data statements. *)
  let seen_ta = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (r : Request.t) ->
      match Hashtbl.find_opt seen_ta r.Request.ta with
      | Some j -> union parent i j
      | None -> Hashtbl.add seen_ta r.Request.ta i)
    reqs;
  (* Rule 2: item conflicts. Per object, a read conflicts only with a write,
     and any write conflicts with everything — so an object group with at
     least one write is one connected component, and a read-only group adds
     no edges (concurrent reads commute). *)
  let by_obj : (int, int list * bool) Hashtbl.t = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i (r : Request.t) ->
      match r.Request.obj with
      | None -> ()
      | Some o ->
        let members, written =
          Option.value ~default:([], false) (Hashtbl.find_opt by_obj o)
        in
        Hashtbl.replace by_obj o
          (i :: members, written || Op.equal r.Request.op Op.Write))
    reqs;
  Hashtbl.iter
    (fun _obj (members, written) ->
      if written then
        match members with
        | [] | [ _ ] -> ()
        | first :: rest -> List.iter (fun i -> union parent i first) rest)
    by_obj;
  (* Collect components in order of first appearance, requests in batch
     order, class ids 0.. — all deterministic in the batch order alone. *)
  let cls_of_root = Hashtbl.create 16 in
  let acc : (int, Request.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let next_id = ref 0 in
  Array.iteri
    (fun i r ->
      let root = find parent i in
      let id =
        match Hashtbl.find_opt cls_of_root root with
        | Some id -> id
        | None ->
          let id = !next_id in
          incr next_id;
          Hashtbl.add cls_of_root root id;
          Hashtbl.add acc id (ref []);
          order := id :: !order;
          id
      in
      let members = Hashtbl.find acc id in
      members := r :: !members)
    reqs;
  List.rev_map
    (fun id -> { id; requests = List.rev !(Hashtbl.find acc id) })
    !order
