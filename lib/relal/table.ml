module Vec = Ds_util.Vec

module Key = struct
  type t = Value.t list

  let equal = List.equal Value.equal

  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end

module Key_tbl = Hashtbl.Make (Key)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Value.hash_int
end)

(* Hash index: key -> posting list of row slots, ascending. A key that packs
   into an int (Value.pack_pair's rule: one int-valued column, or two that
   fit 31 bits) is filed under that int in [ints]; any other key (a NULL, a
   text, a wide or non-integral number, three or more columns) under its
   values in [others]. Postings are kept exact under insert/update (slots
   move between postings); deletions are lazy — dead slots stay in the
   posting and are filtered on probe, and get swept out when the table
   compacts. *)
type postings = { ints : int Vec.t Int_tbl.t; others : int Vec.t Key_tbl.t }

type ix = { cols : int list; pack : Value.t array -> int; mutable map : postings option }

type t = {
  name : string;
  schema : Schema.t;
  rows : Value.t array Vec.t;  (* slots; dead slots linger until compaction *)
  mutable live : Bytes.t;  (* parallel to [rows]: '\001' live, '\000' dead *)
  mutable n_dead : int;
  mutable indexes : ix list;
}

(* ------------------------------------------------------------------ *)
(* maintenance accounting                                             *)
(* ------------------------------------------------------------------ *)

let maintenance_clock = ref 0.

let maintenance_time () = !maintenance_clock

(* Time the index work of one mutation/build. Callers only wrap the
   index-maintenance part, never the base row work, so the counter isolates
   what incremental maintenance is supposed to shrink. *)
let timed_maintenance f =
  let t0 = Hook.now () in
  let r = f () in
  let dt = Hook.now () -. t0 in
  maintenance_clock := !maintenance_clock +. dt;
  Hook.note "index-maintenance" dt;
  r

(* ------------------------------------------------------------------ *)
(* basics                                                             *)
(* ------------------------------------------------------------------ *)

let create ~name schema =
  {
    name;
    schema;
    rows = Vec.create ();
    live = Bytes.create 0;
    n_dead = 0;
    indexes = [];
  }

let name t = t.name

let schema t = t.schema

let row_count t = Vec.length t.rows - t.n_dead

let is_live t pos = Bytes.unsafe_get t.live pos = '\001'

let invalidate t = List.iter (fun ix -> ix.map <- None) t.indexes

let has_built_index t = List.exists (fun ix -> ix.map <> None) t.indexes

let key_of_row cols row = List.map (fun c -> row.(c)) cols

(* A key's int under the packing rule, [min_int] when it does not pack. *)
let packer = function
  | [ c ] -> fun row -> Value.exact_int row.(c)
  | [ c; d ] -> fun row -> Value.pack_pair row.(c) row.(d)
  | _ -> fun _ -> min_int

let pack_values = function
  | [| v |] -> Value.exact_int v
  | [| a; b |] -> Value.pack_pair a b
  | _ -> min_int

(* The posting of [row]'s key in [ix], if any. *)
let posting_of ix map row =
  let k = ix.pack row in
  if k <> min_int then Int_tbl.find_opt map.ints k
  else Key_tbl.find_opt map.others (key_of_row ix.cols row)

let no_posting : int Vec.t = Vec.create ()

(* The posting of [key] (one value per index column), [no_posting] when
   there is none: neither an option nor an exception, so a probe of an int
   key allocates nothing. *)
let posting_of_key map key =
  let k = pack_values key in
  if k <> min_int then if Int_tbl.mem map.ints k then Int_tbl.find map.ints k else no_posting
  else Option.value ~default:no_posting (Key_tbl.find_opt map.others (Array.to_list key))

(* Append slot [pos] to the posting of [row]'s key, creating it if needed. *)
let file ix map pos row =
  let k = ix.pack row in
  if k <> min_int then
    match Int_tbl.find_opt map.ints k with
    | Some posting -> Vec.push posting pos
    | None -> Int_tbl.add map.ints k (Vec.make 1 pos)
  else
    let key = key_of_row ix.cols row in
    match Key_tbl.find_opt map.others key with
    | Some posting -> Vec.push posting pos
    | None -> Key_tbl.add map.others key (Vec.make 1 pos)

let unfile ix map row =
  let k = ix.pack row in
  if k <> min_int then Int_tbl.remove map.ints k
  else Key_tbl.remove map.others (key_of_row ix.cols row)

let ensure_live_capacity t =
  let len = Vec.length t.rows in
  if Bytes.length t.live < len then begin
    let grown = Bytes.make (max 16 (2 * len)) '\000' in
    Bytes.blit t.live 0 grown 0 (Bytes.length t.live);
    t.live <- grown
  end

(* ------------------------------------------------------------------ *)
(* insert                                                             *)
(* ------------------------------------------------------------------ *)

(* Add slot [pos] holding [row] to every *built* index; unbuilt indexes are
   populated wholesale on their next probe. O(#indexes · log) per row. *)
let index_insert t pos row =
  List.iter (fun ix -> match ix.map with None -> () | Some map -> file ix map pos row) t.indexes

let push_row t row =
  let pos = Vec.length t.rows in
  Vec.push t.rows row;
  ensure_live_capacity t;
  Bytes.unsafe_set t.live pos '\001';
  pos

let check_arity t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): arity %d, schema wants %d" t.name
         (Array.length row) (Schema.arity t.schema))

let insert t row =
  check_arity t row;
  let pos = push_row t row in
  if has_built_index t then
    timed_maintenance (fun () -> index_insert t pos row)

let insert_many t rows =
  match rows with
  | [] -> ()
  | _ ->
    let first = ref (-1) in
    List.iter
      (fun row ->
        check_arity t row;
        let pos = push_row t row in
        if !first < 0 then first := pos)
      rows;
    if has_built_index t then
      timed_maintenance (fun () ->
          for pos = !first to Vec.length t.rows - 1 do
            index_insert t pos (Vec.get t.rows pos)
          done)

(* ------------------------------------------------------------------ *)
(* compaction                                                         *)
(* ------------------------------------------------------------------ *)

(* Squeeze dead slots out of the rows vector in place (single write-pointer
   pass) and patch every built index through the slot remap instead of
   rebuilding it: postings are filtered/rewritten in place. Triggered when at
   least half the slots are dead, so the cost amortizes to O(1) per deleted
   row. *)
let compact t =
  let n = Vec.length t.rows in
  let remap = Array.make n (-1) in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if is_live t i then begin
      if !w < i then Vec.set t.rows !w (Vec.get t.rows i);
      remap.(i) <- !w;
      incr w
    end
  done;
  Vec.truncate t.rows !w;
  Bytes.fill t.live 0 (Bytes.length t.live) '\000';
  Bytes.fill t.live 0 !w '\001';
  t.n_dead <- 0;
  List.iter
    (fun ix ->
      match ix.map with
      | None -> ()
      | Some map ->
        let patch _key posting =
          ignore
            (Vec.filter_map_in_place
               (fun pos -> if remap.(pos) >= 0 then Some remap.(pos) else None)
               posting);
          if Vec.is_empty posting then None else Some posting
        in
        Int_tbl.filter_map_inplace patch map.ints;
        Key_tbl.filter_map_inplace patch map.others)
    t.indexes

let maybe_compact t =
  if t.n_dead > 64 && 2 * t.n_dead > Vec.length t.rows then
    if has_built_index t then timed_maintenance (fun () -> compact t)
    else compact t

(* ------------------------------------------------------------------ *)
(* delete / update / clear                                            *)
(* ------------------------------------------------------------------ *)

let finish_delete t removed =
  if removed > 0 then begin
    t.n_dead <- t.n_dead + removed;
    maybe_compact t
  end;
  removed

let delete_where t p =
  let removed = ref 0 in
  for pos = 0 to Vec.length t.rows - 1 do
    if is_live t pos && p (Vec.get t.rows pos) then begin
      Bytes.unsafe_set t.live pos '\000';
      incr removed
    end
  done;
  finish_delete t !removed

(* Move slot [pos] from the hash-index postings of its [old] row to those of
   [row]. Postings must stay ascending so probes return rows in insertion
   order; the slot is re-inserted at its sorted position. *)
let reindex_hash t pos ~old row =
  List.iter
    (fun ix ->
      match ix.map with
      | None -> ()
      | Some map ->
        let same =
          let k = ix.pack old in
          if k <> min_int then k = ix.pack row
          else Key.equal (key_of_row ix.cols old) (key_of_row ix.cols row)
        in
        if not same then begin
          (match posting_of ix map old with
          | Some posting ->
            ignore (Vec.filter_in_place (fun p -> p <> pos) posting);
            if Vec.is_empty posting then unfile ix map old
          | None -> ());
          match posting_of ix map row with
          | Some posting ->
            (* Sorted insert: usually appends (pos is the newest slot with
               this key); bounded by the posting length otherwise. *)
            Vec.push posting pos;
            let i = ref (Vec.length posting - 1) in
            while !i > 0 && Vec.get posting (!i - 1) > pos do
              Vec.set posting !i (Vec.get posting (!i - 1));
              decr i
            done;
            Vec.set posting !i pos
          | None -> file ix map pos row
        end)
    t.indexes

(* A row never changes once it is in the table: [f] updates a copy, which
   takes the row's slot, so rows handed out earlier stay as they were. *)
let update_where t p f =
  let touched = ref 0 in
  for pos = 0 to Vec.length t.rows - 1 do
    if is_live t pos then begin
      let row = Vec.get t.rows pos in
      if p row then begin
        let updated = Array.copy row in
        f updated;
        Vec.set t.rows pos updated;
        if has_built_index t then
          timed_maintenance (fun () -> reindex_hash t pos ~old:row updated);
        incr touched
      end
    end
  done;
  !touched

(* ------------------------------------------------------------------ *)
(* scans                                                              *)
(* ------------------------------------------------------------------ *)

let rows t =
  let out = ref [] in
  for pos = Vec.length t.rows - 1 downto 0 do
    if is_live t pos then out := Vec.get t.rows pos :: !out
  done;
  !out

let iter f t =
  for pos = 0 to Vec.length t.rows - 1 do
    if is_live t pos then f (Vec.get t.rows pos)
  done

let clear t =
  Vec.clear t.rows;
  Bytes.fill t.live 0 (Bytes.length t.live) '\000';
  t.n_dead <- 0;
  invalidate t

(* ------------------------------------------------------------------ *)
(* hash indexes                                                       *)
(* ------------------------------------------------------------------ *)

let same_cols = List.equal Int.equal

let create_index t cols =
  List.iter
    (fun c ->
      if c < 0 || c >= Schema.arity t.schema then
        invalid_arg "Table.create_index: column out of range")
    cols;
  if not (List.exists (fun ix -> same_cols ix.cols cols) t.indexes) then
    t.indexes <- { cols; pack = packer cols; map = None } :: t.indexes

let has_index t cols = List.exists (fun ix -> same_cols ix.cols cols) t.indexes

let build ix t =
  timed_maintenance (fun () ->
      let n = max 16 (row_count t) in
      let map = { ints = Int_tbl.create n; others = Key_tbl.create 16 } in
      for pos = 0 to Vec.length t.rows - 1 do
        if is_live t pos then file ix map pos (Vec.get t.rows pos)
      done;
      ix.map <- Some map;
      map)

let build_indexes t =
  List.iter (fun ix -> if ix.map = None then ignore (build ix t)) t.indexes

let index_map t cols what =
  match List.find_opt (fun ix -> same_cols ix.cols cols) t.indexes with
  | None -> invalid_arg (Printf.sprintf "Table.%s(%s): no such index" what t.name)
  | Some ix -> ( match ix.map with Some m -> m | None -> build ix t)

(* Postings are ascending slots = insertion order; dead slots are skipped
   here and swept out by compaction. *)
let probe t cols key =
  let posting = posting_of_key (index_map t cols "probe") (Array.of_list key) in
  let out = ref [] in
  for i = Vec.length posting - 1 downto 0 do
    let pos = Vec.get posting i in
    if is_live t pos then out := Vec.get t.rows pos :: !out
  done;
  !out

(* Probe the hash index on [cols] for each key and tombstone every matching
   live row its test accepts; returns how many were removed. The batched
   delete of the scheduler's history pruning: O(postings) instead of a full
   scan. *)
let delete_by_keys t cols keys =
  let map = index_map t cols "delete_by_keys" in
  let killed = ref 0 in
  List.iter
    (fun (key, p) ->
      Vec.iter
        (fun pos ->
          if is_live t pos && p (Vec.get t.rows pos) then begin
            Bytes.unsafe_set t.live pos '\000';
            incr killed
          end)
        (posting_of_key map (Array.of_list key)))
    keys;
  finish_delete t !killed

(* ------------------------------------------------------------------ *)
(* posting walks                                                      *)
(* ------------------------------------------------------------------ *)

type index = { table : t; ix : ix }

let index t cols =
  Option.map (fun ix -> { table = t; ix })
    (List.find_opt (fun ix -> same_cols ix.cols cols) t.indexes)

let index_cols t = List.map (fun ix -> ix.cols) t.indexes

let map_of { table; ix } = match ix.map with Some m -> m | None -> build ix table

let posting x key = posting_of_key (map_of x) key

let posting_length x key = Vec.length (posting x key)

let key_count x =
  let map = map_of x in
  Int_tbl.length map.ints + Key_tbl.length map.others

let walk ({ table; _ } as x) key f a =
  let p = posting x key in
  let n = Vec.length p and i = ref 0 and hit = ref false in
  while (not !hit) && !i < n do
    let pos = Vec.get p !i in
    if is_live table pos && f a (Vec.get table.rows pos) then hit := true;
    incr i
  done;
  !hit

(* Distinct keys have disjoint postings: merge them by slot, the order of a
   scan. *)
let walk_keys ({ table; _ } as x) keys f a =
  let ps = Array.of_list (List.map (posting x) keys) in
  let cur = Array.make (Array.length ps) 0 and hit = ref false and more = ref true in
  while (not !hit) && !more do
    (* The posting whose next slot comes first. *)
    let best = ref (-1) in
    for i = 0 to Array.length ps - 1 do
      if cur.(i) < Vec.length ps.(i)
         && (!best < 0 || Vec.get ps.(i) cur.(i) < Vec.get ps.(!best) cur.(!best))
      then best := i
    done;
    if !best < 0 then more := false
    else begin
      let pos = Vec.get ps.(!best) cur.(!best) in
      cur.(!best) <- cur.(!best) + 1;
      if is_live table pos && f a (Vec.get table.rows pos) then hit := true
    end
  done;
  !hit
