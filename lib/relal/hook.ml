(* The section-observer plumbing lives below Table so that both Table (index
   maintenance) and Profile (query sections) can report through the same
   channel; Profile re-exports the setter as its public API. *)

let observer : (string -> float -> unit) option ref = ref None

let set obs = observer := obs

let enabled () = !observer <> None

let note label dt = match !observer with Some f -> f label dt | None -> ()

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
