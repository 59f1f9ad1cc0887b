open Ds_model
module Vec = Ds_util.Vec

type entry = { ta : int; op : Op.t; obj : int; value : int }

type t = entry Vec.t

let create () = Vec.create ()

let append t e = Vec.push t e

let length = Vec.length

let entries t = Vec.to_list t

let filter t p =
  Vec.fold_left (fun acc e -> if p e.ta then e :: acc else acc) [] t |> List.rev
