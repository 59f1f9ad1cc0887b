open Ds_model

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected).  Hand-rolled table-driven version:  *)
(* the toolchain ships no checksum library and the journal must not    *)
(* grow dependencies.  Fits in a native int on 64-bit.                 *)
(* ------------------------------------------------------------------ *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* [crc_feed c s] continues a running (pre-inversion) CRC over [s], so a
   record assembled from pieces is checksummed without concatenating it. *)
let crc_feed c s =
  let c = ref c in
  for i = 0 to String.length s - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c

let crc_init = 0xFFFFFFFF
let crc_finish c = c lxor 0xFFFFFFFF
let crc32 s = crc_finish (crc_feed crc_init s)

(* ------------------------------------------------------------------ *)
(* Replay state: the logical content of a journal.  The writer keeps a *)
(* live mirror of it so [checkpoint] can serialize a snapshot without  *)
(* re-reading the file.  Every request in it carries its serialized    *)
(* line (the Trace format), made once when the request entered the     *)
(* mirror: checkpoints and state hashes reuse it instead of            *)
(* re-formatting, and it is dropped with its entry.                    *)
(* ------------------------------------------------------------------ *)

(* A history entry. [live] turns false when a prune drops the entry; the
   entry then waits in [hist] until the next compaction. *)
type hist_entry = { req : Request.t; line : string; mutable live : bool }

type replay_state = {
  submitted : (int * int, int * Request.t * string) Hashtbl.t;
      (* live (submitted, not yet qualified, aborted or dead-lettered)
         requests by key, each with the sequence number of the submission
         that made it live; a key submitted again while live keeps its number
         and takes the newer request *)
  mutable submissions : int;
  mutable hist : hist_entry list;  (* reversed, pruned entries included *)
  mutable hist_len : int;  (* entries in [hist] *)
  mutable hist_dead : int;  (* pruned entries in [hist] *)
  hist_by_ta : (int, hist_entry list) Hashtbl.t;
      (* live history entries per transaction: a prune touches only the
         transactions that finished since the previous one *)
  mutable finished : int list;
      (* transactions with a terminal op entered into history since the last
         prune *)
  stamps : (int * int, int) Hashtbl.t;
      (* global admission sequence per qualified key; only sharded journal
         segments write stamps, so this is empty for unsharded journals *)
  mutable aborts : int list;  (* reversed *)
  mutable dead_ : (Request.t * string) list;  (* reversed *)
  mutable epoch : int;
      (* promotion epoch ('E' records); 0 until a failover ever happened *)
}

let fresh_state () =
  {
    submitted = Hashtbl.create 64;
    submissions = 0;
    hist = [];
    hist_len = 0;
    hist_dead = 0;
    hist_by_ta = Hashtbl.create 64;
    finished = [];
    stamps = Hashtbl.create 64;
    aborts = [];
    dead_ = [];
    epoch = 0;
  }

let st_submit st r line =
  let key = Request.key r in
  let seq =
    match Hashtbl.find_opt st.submitted key with
    | Some (seq, _, _) -> seq
    | None ->
      st.submissions <- st.submissions + 1;
      st.submissions
  in
  Hashtbl.replace st.submitted key (seq, r, line)

let st_add_hist st (r : Request.t) line =
  let e = { req = r; line; live = true } in
  let ta = r.Request.ta in
  st.hist <- e :: st.hist;
  st.hist_len <- st.hist_len + 1;
  Hashtbl.replace st.hist_by_ta ta
    (e :: Option.value (Hashtbl.find_opt st.hist_by_ta ta) ~default:[]);
  match r.Request.op with
  | Op.Commit | Op.Abort -> st.finished <- ta :: st.finished
  | _ -> ()

let st_qualify ?gseq st key =
  match Hashtbl.find_opt st.submitted key with
  | Some (_, r, line) ->
    Hashtbl.remove st.submitted key;
    st_add_hist st r line;
    Option.iter (fun g -> Hashtbl.replace st.stamps key g) gseq;
    true
  | None -> false

let st_abort st ta =
  Hashtbl.filter_map_inplace
    (fun _ ((_, (r : Request.t), _) as live) ->
      if r.Request.ta = ta then None else Some live)
    st.submitted;
  st.aborts <- ta :: st.aborts

let st_dead st r line =
  Hashtbl.remove st.submitted (Request.key r);
  st.dead_ <- (r, line) :: st.dead_

(* Live requests with their lines, in submission order: the cost is the live
   set, not every key the journal has seen. *)
let pending_of_state st =
  Hashtbl.fold (fun _ live acc -> live :: acc) st.submitted []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  |> List.map (fun (_, r, line) -> (r, line))

(* Live history entries in qualification order. *)
let hist_of_state st =
  List.fold_left (fun acc e -> if e.live then e :: acc else acc) [] st.hist

(* Mirrors [Relations.prune_history]: transactions with a terminal op in
   history (abort markers included) are dropped from the state mirror, so a
   checkpoint snapshots the live relation state — bounded by the number of
   active transactions — rather than the full log. The work is the entries
   of the transactions that finished since the previous prune; the list
   itself is compacted once pruned entries make up half of it. Replay of
   the 'P' record itself stays a no-op: a full (checkpoint-free) replay
   keeps the complete history so the restored [rte] log spans the whole
   run. *)
let prune_mirror st =
  let drop ta =
    match Hashtbl.find_opt st.hist_by_ta ta with
    | None -> ()
    | Some entries ->
      Hashtbl.remove st.hist_by_ta ta;
      List.iter
        (fun e ->
          e.live <- false;
          st.hist_dead <- st.hist_dead + 1)
        entries
  in
  List.iter drop st.finished;
  List.iter drop st.aborts;
  st.finished <- [];
  st.aborts <- [];
  if 2 * st.hist_dead > st.hist_len then begin
    st.hist <- List.filter (fun e -> e.live) st.hist;
    st.hist_len <- st.hist_len - st.hist_dead;
    st.hist_dead <- 0
  end

let stamp_of st r = Hashtbl.find_opt st.stamps (Request.key r)

(* Canonical serialization of the writer mirror, folded through CRC32 piece
   by piece.  The traversal order is fully determined by the record order
   (no hashtable iteration), so a standby that applied the same record
   stream computes the same hash — any difference is replay divergence. *)
let state_hash_parts st ~pending ~hist =
  let c = ref (crc_feed crc_init ("E" ^ string_of_int st.epoch ^ "\n")) in
  let feed s = c := crc_feed !c s in
  List.iter
    (fun (_, line) ->
      feed "P ";
      feed line;
      feed "\n")
    pending;
  List.iter
    (fun e ->
      feed "H ";
      feed
        (match stamp_of st e.req with Some g -> string_of_int g | None -> "-");
      feed " ";
      feed e.line;
      feed "\n")
    hist;
  List.iter
    (fun ta ->
      feed "A ";
      feed (string_of_int ta);
      feed "\n")
    (List.rev st.aborts);
  List.iter
    (fun (_, line) ->
      feed "D ";
      feed line;
      feed "\n")
    (List.rev st.dead_);
  crc_finish !c

let state_hash_of st =
  state_hash_parts st ~pending:(pending_of_state st) ~hist:(hist_of_state st)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  oc : out_channel;
  path : string;
  sync : bool;
  mutable flushed_pos : int;  (* bytes known durable (after last [flush]) *)
  state : replay_state;  (* mirror of the journal's logical content *)
  frame : Bytes.t;  (* the "!xxxxxxxx " frame prefix, rewritten per record *)
  mutable n_checkpoints : int;
  mutable n_lines : int;
      (* lines in the file so far; embedded in each C BEGIN so recovery can
         report how many prefix lines the checkpoint let it skip without
         ever reading the prefix *)
  mutable sink : (string -> unit) option;
      (* replication tap: called with the payload of every streamed record
         written through this handle — the primary side of a replication
         session *)
  mutable hash_checkpoints : bool;
      (* when set, every checkpoint block is followed by an 'H' record
         carrying the writer-mirror state hash (divergence detection) *)
  mutable block_due : int;
      (* channel position from which the next checkpoint block is due: the
         end of the last block (its 'H' record included) plus that block's
         size; 0 until this handle writes one *)
}

let hex_digits = "0123456789abcdef"

(* Every record is framed as [!crc32-hex payload]; recovery verifies the
   checksum before trusting the payload.  [output_record t prefix body]
   writes the record whose payload is [prefix ^ body] without building
   it. *)
let output_record t prefix body =
  t.n_lines <- t.n_lines + 1;
  let crc = crc_finish (crc_feed (crc_feed crc_init prefix) body) in
  for i = 0 to 7 do
    Bytes.unsafe_set t.frame (8 - i)
      hex_digits.[(crc lsr (4 * i)) land 0xf]
  done;
  output_bytes t.oc t.frame;
  output_string t.oc prefix;
  output_string t.oc body;
  output_char t.oc '\n'

(* A record of the log: written, then handed to the replication tap. *)
let write_line t payload =
  output_record t "" payload;
  match t.sink with None -> () | Some f -> f payload

let set_sink t f = t.sink <- Some f
let set_hash_checkpoints t b = t.hash_checkpoints <- b

let log_submit t r =
  let line = Ds_workload.Trace.line_of_request r in
  st_submit t.state r line;
  write_line t ("S " ^ line)

let log_qualified t keys =
  List.iter
    (fun ((ta, intrata) as key) ->
      ignore (st_qualify t.state key);
      write_line t (Printf.sprintf "Q %d %d" ta intrata))
    keys

(* Sharded variant: each qualification carries its global admission sequence
   number (gseq), the merge key that lets {!recover} reassemble one
   continuous rte across per-shard segments. Unsharded journals keep the
   2-field Q record byte-for-byte. *)
let log_qualified_stamped t entries =
  List.iter
    (fun (((ta, intrata) as key), gseq) ->
      ignore (st_qualify ~gseq t.state key);
      write_line t (Printf.sprintf "Q %d %d %d" ta intrata gseq))
    entries

let log_abort t ta =
  st_abort t.state ta;
  write_line t (Printf.sprintf "A %d" ta)

let log_dead t r =
  let line = Ds_workload.Trace.line_of_request r in
  st_dead t.state r line;
  write_line t ("D " ^ line)

let log_prune t =
  prune_mirror t.state;
  write_line t "P"

let state_hash t = state_hash_of t.state

(* [log_epoch t e] stamps a promotion epoch into the journal.  All records
   after it belong to epoch [e]; replaying an 'E' record with a {e lower}
   epoch than the state's current one is fenced (stale-primary write). *)
let log_epoch t e =
  t.state.epoch <- e;
  write_line t (Printf.sprintf "E %d" e)

let writer_epoch t = t.state.epoch

(* Writes the snapshot block and returns its C BEGIN payload.  Only the
   BEGIN record (and the 'H' record after the block) reaches the replication
   tap: a standby rebuilds the entries and the END record from its own
   mirror ([append_checkpoint]). *)
let write_checkpoint t ~cycle =
  let start = pos_out t.oc in
  let st = t.state in
  let pending = pending_of_state st in
  let hist = hist_of_state st in
  let entries =
    List.length pending + List.length hist + List.length st.aborts
    + List.length st.dead_
    + if st.epoch > 0 then 1 else 0
  in
  let begin_ = Printf.sprintf "C BEGIN %d %d" cycle t.n_lines in
  write_line t begin_;
  (* The promotion epoch is part of the snapshot: checkpoint-suffix recovery
     never reads past records, so without this a recovered post-failover
     journal would fall back to epoch 0 and stop fencing stale-primary
     writes. Epoch-0 journals write no entry — their bytes are unchanged. *)
  if st.epoch > 0 then output_record t "c E " (string_of_int st.epoch);
  List.iter (fun (_, line) -> output_record t "c P " line) pending;
  (* History entries carry their admission stamp when one was recorded
     ('c G gseq request'), so a sharded segment's checkpoint preserves the
     cross-segment merge order; unstamped entries keep the 'c H' form. *)
  List.iter
    (fun e ->
      match stamp_of st e.req with
      | Some g -> output_record t ("c G " ^ string_of_int g ^ " ") e.line
      | None -> output_record t "c H " e.line)
    hist;
  List.iter
    (fun ta -> output_record t "c A " (string_of_int ta))
    (List.rev st.aborts);
  List.iter (fun (_, line) -> output_record t "c D " line) (List.rev st.dead_);
  output_record t "C END " (string_of_int entries);
  (* Replicated journals stamp each checkpoint with the writer-mirror state
     hash so a standby can compare its own replayed mirror ('H' replay is a
     no-op, so unreplicated journals and their recovery are untouched). *)
  if t.hash_checkpoints then
    write_line t
      (Printf.sprintf "H %d %08x" cycle (state_hash_parts st ~pending ~hist));
  let end_ = pos_out t.oc in
  t.block_due <- end_ + (end_ - start);
  t.n_checkpoints <- t.n_checkpoints + 1;
  begin_

(* A block is due once the records written since the last one are at least
   its size: checkpoint bytes never outgrow record bytes by more than one
   block, and the suffix a recovery replays stays about one block long. *)
let checkpoint_due t = pos_out t.oc >= t.block_due

let checkpoint t ~cycle = ignore (write_checkpoint t ~cycle)

let append_checkpoint t ~cycle begin_ =
  String.equal (write_checkpoint t ~cycle) begin_

let checkpoints_written t = t.n_checkpoints

let flush t =
  Stdlib.flush t.oc;
  if t.sync then Unix.fsync (Unix.descr_of_out_channel t.oc);
  t.flushed_pos <- out_channel_length t.oc

let size t = t.flushed_pos

let close t = close_out t.oc

let crash t =
  (* close_out writes the channel buffer through, which a real crash would
     not; truncating back to the last flushed position restores the honest
     on-disk state. *)
  (try close_out t.oc with Sys_error _ -> ());
  Unix.truncate t.path t.flushed_pos

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovered = {
  pending : Request.t list;
  history : Request.t list;
  history_stamped : (Request.t * int option) list;
      (* [history] paired with each entry's global admission sequence, when
         the journal recorded one (sharded segments only); the merge key
         {!recover} sorts by *)
  aborted : int list;
  dead : Request.t list;
  replayed : int;
  checkpoint_cycle : int option;
  skipped : int;
  corrupt_dropped : int;
  valid_bytes : int;
  valid_lines : int;
  epoch : int;
}

(* State machine over journal payload lines.  [writer] selects writer-mirror
   semantics for 'P' records (prune the mirror, as [log_prune] does) instead
   of the replay no-op — the standby side of a replication session applies
   the primary's record stream with writer semantics so its mirror (and
   state hash) tracks the primary's. *)
let apply_record ~writer st lineno line =
  let fail msg = failwith (Printf.sprintf "journal line %d: %s" lineno msg) in
  if String.length line < 1 then fail "empty line"
  else
    match
      ( line.[0],
        if String.length line > 2 then
          String.sub line 2 (String.length line - 2)
        else "" )
    with
    | 'S', rest ->
      st_submit st (Ds_workload.Trace.request_of_line ~lineno rest) rest
    | 'Q', rest -> (
      (* 2-field: "Q ta intrata" (unsharded); 3-field adds the global
         admission sequence: "Q ta intrata gseq" (sharded segments). *)
      let qualify ?gseq ta intrata =
        match (int_of_string_opt ta, int_of_string_opt intrata) with
        | Some ta, Some intrata ->
          if not (st_qualify ?gseq st (ta, intrata)) then
            fail "qualified a request that was never submitted"
        | _ -> fail "malformed Q entry"
      in
      match String.split_on_char ' ' (String.trim rest) with
      | [ ta; intrata ] -> qualify ta intrata
      | [ ta; intrata; gseq ] -> (
        match int_of_string_opt gseq with
        | Some g -> qualify ~gseq:g ta intrata
        | None -> fail "malformed Q entry")
      | _ -> fail "malformed Q entry")
    | 'A', rest -> (
      match int_of_string_opt (String.trim rest) with
      | Some ta -> st_abort st ta
      | None -> fail "malformed A entry")
    | 'D', rest ->
      st_dead st (Ds_workload.Trace.request_of_line ~lineno rest) rest
    | 'P', _ ->
      (* pruning is an optimization; replay keeps full history so the
         restored rte spans the whole run, while the writer-semantics
         standby mirror prunes exactly like the primary's writer did *)
      if writer then prune_mirror st
    | 'E', rest -> (
      (* promotion epoch: monotonic.  A lower epoch than the state already
         carries is a stale-primary write from a fenced old incarnation. *)
      match int_of_string_opt (String.trim rest) with
      | Some e ->
        if e < st.epoch then
          fail
            (Printf.sprintf
               "stale epoch %d fenced (journal already at epoch %d)" e
               st.epoch)
        else st.epoch <- e
      | None -> fail "malformed E entry")
    | 'H', _ -> () (* state-hash stamp: checked by the replica layer *)
    | 'C', _ | 'c', _ ->
      () (* checkpoint blocks are snapshots, not transitions *)
    | _ -> fail "unknown entry kind"

let apply st lineno line = apply_record ~writer:false st lineno line

(* Standby-side append: applies [payload] to the writer mirror with writer
   semantics (the mirror keeps the payload's request line as it is), then
   writes the identical framed record — the standby journal file stays a
   byte-prefix of the primary's.
   @raise Failure on a malformed record or a fenced stale epoch. *)
let append_raw t payload =
  apply_record ~writer:true t.state (t.n_lines + 1) payload;
  write_line t payload

(* Raw lines with their byte offset in the file.  [base] is the absolute
   file offset [content] starts at, so a tail read still yields absolute
   offsets. *)
let split_lines ?(base = 0) content =
  let n = String.length content in
  let acc = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if content.[i] = '\n' then begin
      acc := (base + !start, String.sub content !start (i - !start)) :: !acc;
      start := i + 1
    end
  done;
  if !start < n then
    acc := (base + !start, String.sub content !start (n - !start)) :: !acc;
  Array.of_list (List.rev !acc)

type classified =
  | Empty
  | Framed of string  (* checksum verified; payload is exactly as written *)
  | Corrupt  (* unframed, or a checksum that does not match *)

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let classify raw =
  let line = String.trim raw in
  if line = "" then Empty
  else if
    String.length line >= 10
    && line.[0] = '!'
    && line.[9] = ' '
    && (let ok = ref true in
        for i = 1 to 8 do
          if not (is_hex line.[i]) then ok := false
        done;
        !ok)
  then begin
    let payload = String.sub line 10 (String.length line - 10) in
    let crc = int_of_string ("0x" ^ String.sub line 1 8) in
    if crc32 payload = crc then Framed payload else Corrupt
  end
  else Corrupt

(* Only checksum-valid records of the continuous log count: checkpoint-block
   copies are ['c ']-prefixed, so they never match a ['Q'] payload. *)
let qualified_tas path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun raw ->
         match classify raw with
         | Framed payload -> (
           match String.split_on_char ' ' payload with
           | "Q" :: ta :: _ -> int_of_string_opt ta
           | _ -> None)
         | Empty | Corrupt -> None)
  |> List.sort_uniq compare

(* Recovery loads the last checkpoint block that validates and replays the
   records after it. The block is located by a backward chunked byte scan
   for its markers, and only the file from its BEGIN line on is read: the
   prefix is never read, parsed or checksummed, so recovery cost tracks live
   state plus the suffix, not journal length. The BEGIN record embeds how
   many lines precede it, which becomes [skipped]. A block that fails to
   load (torn or corrupt) sends the scan back to the bytes before its BEGIN
   line; when no block loads, the whole file replays from its first line.
   The markers are anchored on their uppercase 'C': kind characters are the
   only place the journal grammar produces one, and a false positive just
   fails to load. *)
let recover_file ?(repair = false) path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let file_len = in_channel_length ic in
  let pread ~pos ~len =
    seek_in ic pos;
    really_input_string ic len
  in
  let chunk = 65536 in
  (* absolute start offset of the last occurrence of [pat] beginning
     strictly before byte [before] *)
  let find_last pat ~before =
    let plen = String.length pat in
    let rec go hi =
      if hi <= 0 then None
      else begin
        let lo = max 0 (hi - chunk) in
        (* overlap so a straddling match is seen by the lower window *)
        let stop = min file_len (hi + plen - 1) in
        let s = pread ~pos:lo ~len:(stop - lo) in
        let matches i =
          i >= 0
          && i + plen <= String.length s
          && (let ok = ref true in
              for j = 0 to plen - 1 do
                if s.[i + j] <> pat.[j] then ok := false
              done;
              !ok)
        in
        let rec scan i =
          if i < 0 then None
          else
            match String.rindex_from_opt s i 'C' with
            | None -> None
            | Some j ->
              let st = j - 1 in
              (* pattern is " C ...": the match starts one byte before *)
              if matches st && lo + st < before then Some (lo + st)
              else if j = 0 then None
              else scan (j - 1)
        in
        match scan (String.length s - 1) with
        | Some abs -> Some abs
        | None -> go lo
      end
    in
    go before
  in
  (* absolute start of the line containing byte [pos] *)
  let rec line_start pos =
    if pos <= 0 then 0
    else begin
      let lo = max 0 (pos - 256) in
      let s = pread ~pos:lo ~len:(pos - lo) in
      match String.rindex_opt s '\n' with
      | Some i -> lo + i + 1
      | None -> if lo = 0 then 0 else line_start lo
    end
  in
  (* Loads the checkpoint block starting at [lines.(0)], forward from its
     BEGIN through its entries to an END whose count matches. Returns the
     snapshot, the block's cycle, the line count its BEGIN records and the
     index of its END line.
     @raise Failure or [Trace.Malformed] when the block does not load. *)
  let load_block lines =
    let bad () = failwith "bad checkpoint block" in
    let cycle, pre_lines =
      match classify (snd lines.(0)) with
      | Framed p -> (
        match String.split_on_char ' ' p with
        | [ "C"; "BEGIN"; c; k ] -> (int_of_string c, int_of_string k)
        | _ -> bad ())
      | _ -> bad ()
    in
    let st = fresh_state () in
    let entry i p =
      let rest = String.sub p 4 (String.length p - 4) in
      let request = Ds_workload.Trace.request_of_line ~lineno:(i + 1) in
      match p.[2] with
      | 'P' -> st_submit st (request rest) rest
      | 'H' -> st_add_hist st (request rest) rest
      | 'G' -> (
        (* stamped history entry: "c G gseq request-line" *)
        match String.index_opt rest ' ' with
        | None -> bad ()
        | Some sp ->
          let gseq = int_of_string (String.sub rest 0 sp) in
          let line = String.sub rest (sp + 1) (String.length rest - sp - 1) in
          let r = request line in
          Hashtbl.replace st.stamps (Request.key r) gseq;
          st_add_hist st r line)
      | 'A' -> st.aborts <- int_of_string (String.trim rest) :: st.aborts
      | 'D' -> st.dead_ <- (request rest, rest) :: st.dead_
      | 'E' -> st.epoch <- int_of_string (String.trim rest)
      | _ -> bad ()
    in
    let rec scan i entries =
      if i >= Array.length lines then bad ();
      match classify (snd lines.(i)) with
      | Empty -> scan (i + 1) entries
      | Framed p when String.length p >= 4 && p.[0] = 'c' ->
        entry i p;
        scan (i + 1) (entries + 1)
      | Framed p -> (
        match String.split_on_char ' ' p with
        | [ "C"; "END"; c ] when int_of_string_opt c = Some entries -> i
        | _ -> bad ())
      | Corrupt -> bad ()
    in
    let end_ = scan 1 0 in
    (st, cycle, pre_lines, end_)
  in
  let rec locate before =
    match find_last " C END " ~before with
    | None -> None
    | Some end_pos -> (
      match find_last " C BEGIN " ~before:end_pos with
      | None -> None
      | Some begin_pos -> (
        let bol = line_start begin_pos in
        let lines =
          split_lines ~base:bol (pread ~pos:bol ~len:(file_len - bol))
        in
        match load_block lines with
        | block -> Some (lines, block)
        | exception (Failure _ | Ds_workload.Trace.Malformed _) -> locate bol))
  in
  let lines, st, checkpoint_cycle, pre_lines, start =
    match locate file_len with
    | Some (lines, (st, cycle, pre_lines, end_)) ->
      (lines, st, Some cycle, pre_lines, end_ + 1)
    | None ->
      (split_lines (pread ~pos:0 ~len:file_len), fresh_state (), None, 0, 0)
  in
  let n = Array.length lines in
  let replayed = ref 0 in
  let corrupt_dropped = ref 0 in
  let valid_bytes = ref file_len in
  let count_nonempty_from i =
    let c = ref 0 in
    for j = i to n - 1 do
      if String.trim (snd lines.(j)) <> "" then incr c
    done;
    !c
  in
  let any_framed_after i =
    let found = ref false in
    for j = i + 1 to n - 1 do
      if not !found then
        match classify (snd lines.(j)) with Framed _ -> found := true | _ -> ()
    done;
    !found
  in
  (try
     for i = start to n - 1 do
       match classify (snd lines.(i)) with
       | Empty -> ()
       | Framed payload ->
         (* Checksum matched, so the payload is byte-exact; a parse failure
            here is structural corruption, torn or not. *)
         (match apply st (i + 1) payload with
         | () -> incr replayed
         | exception Ds_workload.Trace.Malformed (m, l) ->
           failwith (Printf.sprintf "line %d: %s" l m))
       | Corrupt ->
         (* A bad frame followed only by more garbage is a torn tail:
            truncate to the last valid prefix.  A bad frame with valid
            records after it means the middle of the file rotted — refuse
            to load a journal with a hole in it. *)
         if any_framed_after i then
           failwith
             (Printf.sprintf
                "journal line %d: checksum mismatch before valid records"
                (i + 1))
         else begin
           valid_bytes := fst lines.(i);
           corrupt_dropped := count_nonempty_from i;
           raise Exit
         end
     done
   with Exit -> ());
  if repair && !valid_bytes < file_len then Unix.truncate path !valid_bytes;
  (* Newline-terminated lines of the trusted prefix: those before the view
     plus every view line whose newline lies before [valid_bytes]. *)
  let valid_lines =
    Array.fold_left
      (fun acc (off, s) ->
        if off + String.length s < !valid_bytes then acc + 1 else acc)
      pre_lines lines
  in
  let history = List.map (fun e -> e.req) (hist_of_state st) in
  {
    pending = List.map fst (pending_of_state st);
    history;
    history_stamped = List.map (fun r -> (r, stamp_of st r)) history;
    aborted = List.rev st.aborts;
    dead = List.rev_map fst st.dead_;
    replayed = !replayed;
    checkpoint_cycle;
    skipped = pre_lines;
    corrupt_dropped = !corrupt_dropped;
    valid_bytes = !valid_bytes;
    valid_lines;
    epoch = st.epoch;
  }

let open_ ?(sync = false) ?state path =
  let oc =
    match state with
    | None -> open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path
    | Some _ -> open_out_gen [ Open_append; Open_creat ] 0o644 path
  in
  let st = fresh_state () in
  (match state with
  | None -> ()
  | Some r ->
    (* the one place a request line is formatted for a request the journal
       did not just write *)
    let line = Ds_workload.Trace.line_of_request in
    List.iter (fun req -> st_submit st req (line req)) r.pending;
    List.iter (fun req -> st_add_hist st req (line req)) r.history;
    List.iter
      (fun (req, g) ->
        Option.iter (fun g -> Hashtbl.replace st.stamps (Request.key req) g) g)
      r.history_stamped;
    st.aborts <- List.rev r.aborted;
    st.dead_ <- List.rev_map (fun req -> (req, line req)) r.dead;
    st.epoch <- r.epoch);
  {
    oc;
    path;
    sync;
    flushed_pos = out_channel_length oc;
    state = st;
    frame = Bytes.of_string "!00000000 ";
    n_checkpoints = 0;
    n_lines = (match state with None -> 0 | Some r -> r.valid_lines);
    sink = None;
    hash_checkpoints = false;
    block_due = 0;
  }

let resume ?sync path =
  let recovered = recover_file ~repair:true path in
  (recovered, open_ ?sync ~state:recovered path)

let promote ~after path =
  let recovered, t = resume path in
  log_epoch t (max after recovered.epoch + 1);
  flush t;
  (recovered, t)

(* A segment directory holds dir/MANIFEST ("dsched-journal-segments 1",
   then "shards S"), dir/shard-<i>.journal with lane i's records for i in
   0..S-1, and dir/global.journal with the global lane's. *)

let manifest_magic = "dsched-journal-segments 1"
let manifest_path dir = Filename.concat dir "MANIFEST"

let is_segment_dir path =
  Sys.file_exists path
  && Sys.is_directory path
  && Sys.file_exists (manifest_path path)

(* Lane-ordered segment file paths: shard 0..S-1, then the global lane. *)
let segment_paths_of ~shards dir =
  List.init shards (fun i ->
      Filename.concat dir (Printf.sprintf "shard-%d.journal" i))
  @ [ Filename.concat dir "global.journal" ]

let read_manifest dir =
  let ic = open_in_bin (manifest_path dir) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let magic = try input_line ic with End_of_file -> "" in
  if String.trim magic <> manifest_magic then
    failwith (Printf.sprintf "%s: not a journal segment manifest" dir);
  let shards_line = try input_line ic with End_of_file -> "" in
  match String.split_on_char ' ' (String.trim shards_line) with
  | [ "shards"; n ] -> (
    match int_of_string_opt n with
    | Some s when s > 1 -> s
    | _ -> failwith (Printf.sprintf "%s: bad shard count in manifest" dir))
  | _ -> failwith (Printf.sprintf "%s: bad shard count in manifest" dir)

let segment_paths dir = segment_paths_of ~shards:(read_manifest dir) dir

let lane_paths path ~shards =
  if shards < 1 then invalid_arg "Journal.lane_paths: shards must be >= 1";
  if shards = 1 then [ path ]
  else begin
    if not (Sys.file_exists path) then Unix.mkdir path 0o755
    else if not (Sys.is_directory path) then
      failwith (Printf.sprintf "%s: exists and is not a directory" path);
    let oc = open_out_bin (manifest_path path) in
    output_string oc (Printf.sprintf "%s\nshards %d\n" manifest_magic shards);
    close_out oc;
    segment_paths_of ~shards path
  end

(* [temp_file] both reserves and creates the name; the directory layout
   drops the file so [lane_paths] can make the directory. *)
let temp_path ~shards prefix =
  let p =
    Filename.temp_file prefix (if shards > 1 then ".journal.d" else ".journal")
  in
  if shards > 1 then Sys.remove p;
  p

let remove path =
  let rm p = try Sys.remove p with Sys_error _ -> () in
  if is_segment_dir path then begin
    (try List.iter rm (segment_paths path) with Failure _ -> ());
    rm (manifest_path path);
    try Sys.rmdir path with Sys_error _ -> ()
  end
  else rm path

let empty_recovered =
  {
    pending = [];
    history = [];
    history_stamped = [];
    aborted = [];
    dead = [];
    replayed = 0;
    checkpoint_cycle = None;
    skipped = 0;
    corrupt_dropped = 0;
    valid_bytes = 0;
    valid_lines = 0;
    epoch = 0;
  }

let merge_segments segs =
  (* Merge: histories interleave by gseq (the admission order each segment
     persisted); everything else concatenates in lane order.  Entries
     without a stamp (legacy records in a segment) sort after all stamped
     ones, preserving their relative order — stable sort. *)
  let stamped = List.concat_map (fun s -> s.history_stamped) segs in
  let merged =
    List.stable_sort
      (fun (_, a) (_, b) ->
        compare
          (Option.value a ~default:max_int)
          (Option.value b ~default:max_int))
      stamped
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 segs in
  {
    pending = List.concat_map (fun s -> s.pending) segs;
    history = List.map fst merged;
    history_stamped = merged;
    aborted = List.concat_map (fun s -> s.aborted) segs;
    dead = List.concat_map (fun s -> s.dead) segs;
    replayed = sum (fun s -> s.replayed);
    checkpoint_cycle =
      List.fold_left
        (fun acc s ->
          match (acc, s.checkpoint_cycle) with
          | None, c | c, None -> c
          | Some a, Some b -> Some (max a b))
        None segs;
    skipped = sum (fun s -> s.skipped);
    corrupt_dropped = sum (fun s -> s.corrupt_dropped);
    valid_bytes = sum (fun s -> s.valid_bytes);
    valid_lines = sum (fun s -> s.valid_lines);
    epoch = List.fold_left (fun acc s -> max acc s.epoch) 0 segs;
  }

(* Per-segment recovery: each segment repairs (or refuses) independently, so
   a torn tail in one lane never blocks recovery of its siblings, and a
   mid-file corruption error names the segment it came from. A journal file
   is its own one segment. *)
let recover_segments ?(repair = false) path =
  if not (is_segment_dir path) then
    let r = recover_file ~repair path in
    ([ (Filename.basename path, r) ], r)
  else
    let segs =
      List.map
        (fun p ->
          let name = Filename.basename p in
          let r =
            if Sys.file_exists p then
              try recover_file ~repair p
              with Failure m -> failwith (Printf.sprintf "%s: %s" name m)
            else empty_recovered
          in
          (name, r))
        (segment_paths path)
    in
    (segs, merge_segments (List.map snd segs))

let recover ?repair path = snd (recover_segments ?repair path)

let restore ?(rte = false) recovered rels =
  Relations.clear rels;
  List.iter (Relations.insert_history rels) recovered.history;
  (* Abort markers release the logical locks of middleware-aborted txns. The
     seq offset keeps restored markers distinct from the ones a scheduler
     mints afterwards (its abort_seq restarts at 1). *)
  List.iteri
    (fun i ta ->
      Relations.insert_history rels
        (Request.abort_marker ~ta ~seq:(1_000_000_000 + i) ()))
    recovered.aborted;
  if rte then Relations.insert_rte rels recovered.history;
  List.iter (Relations.insert_dead rels) recovered.dead;
  Relations.insert_pending_batch rels recovered.pending
