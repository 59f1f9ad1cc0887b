open Ds_model

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected).  Hand-rolled table-driven version:  *)
(* the toolchain ships no checksum library and the journal must not    *)
(* grow dependencies.  Fits in a native int on 64-bit.                 *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Replay state: the logical content of a journal.  The writer keeps a *)
(* live mirror of it so [checkpoint] can serialize a snapshot without  *)
(* re-reading the file.                                                *)
(* ------------------------------------------------------------------ *)

type replay_state = {
  submitted : (int * int, int * Request.t) Hashtbl.t;
      (* live (submitted, not yet qualified, aborted or dead-lettered)
         requests by key, each with the sequence number of the submission
         that made it live; a key submitted again while live keeps its number
         and takes the newer request *)
  mutable submissions : int;
  mutable hist : Request.t list;  (* reversed *)
  stamps : (int * int, int) Hashtbl.t;
      (* global admission sequence per qualified key; only sharded journal
         segments write stamps, so this is empty for unsharded journals *)
  mutable aborts : int list;  (* reversed *)
  mutable dead_ : Request.t list;  (* reversed *)
  mutable epoch : int;
      (* promotion epoch ('E' records); 0 until a failover ever happened *)
}

let fresh_state () =
  {
    submitted = Hashtbl.create 64;
    submissions = 0;
    hist = [];
    stamps = Hashtbl.create 64;
    aborts = [];
    dead_ = [];
    epoch = 0;
  }

let st_submit st r =
  let key = Request.key r in
  let seq =
    match Hashtbl.find_opt st.submitted key with
    | Some (seq, _) -> seq
    | None ->
      st.submissions <- st.submissions + 1;
      st.submissions
  in
  Hashtbl.replace st.submitted key (seq, r)

let st_qualify ?gseq st key =
  match Hashtbl.find_opt st.submitted key with
  | Some (_, r) ->
    Hashtbl.remove st.submitted key;
    st.hist <- r :: st.hist;
    Option.iter (fun g -> Hashtbl.replace st.stamps key g) gseq;
    true
  | None -> false

let st_abort st ta =
  Hashtbl.filter_map_inplace
    (fun _ ((_, (r : Request.t)) as live) ->
      if r.Request.ta = ta then None else Some live)
    st.submitted;
  st.aborts <- ta :: st.aborts

let st_dead st r =
  Hashtbl.remove st.submitted (Request.key r);
  st.dead_ <- r :: st.dead_

(* Live requests in submission order: the cost is the live set, not every
   key the journal has seen. *)
let pending_of_state st =
  Hashtbl.fold (fun _ live acc -> live :: acc) st.submitted []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  oc : out_channel;
  path : string;
  sync : bool;
  mutable flushed_pos : int;  (* bytes known durable (after last [flush]) *)
  state : replay_state;  (* mirror of the journal's logical content *)
  mutable n_checkpoints : int;
  mutable n_lines : int;
      (* lines in the file so far; embedded in each C BEGIN so recovery can
         report how many prefix lines the checkpoint let it skip without
         ever reading the prefix *)
  mutable sink : (int -> string -> unit) option;
      (* replication tap: called with (lsn, payload) for every record written
         through this handle — the primary side of a replication session *)
  mutable hash_checkpoints : bool;
      (* when set, every checkpoint block is followed by an 'H' record
         carrying the writer-mirror state hash (divergence detection) *)
}

(* Every record is framed as [!crc32-hex payload]; recovery verifies the
   checksum before trusting the payload.  Unframed (legacy) lines are still
   readable. *)
let write_line t payload =
  t.n_lines <- t.n_lines + 1;
  output_string t.oc (Printf.sprintf "!%08x %s\n" (crc32 payload) payload);
  match t.sink with None -> () | Some f -> f t.n_lines payload

let set_sink t f = t.sink <- Some f
let clear_sink t = t.sink <- None
let set_hash_checkpoints t b = t.hash_checkpoints <- b
let lines_written t = t.n_lines

let log_submit t r =
  st_submit t.state r;
  write_line t ("S " ^ Ds_workload.Trace.line_of_request r)

let log_qualified t keys =
  List.iter
    (fun ((ta, intrata) as key) ->
      ignore (st_qualify t.state key);
      write_line t (Printf.sprintf "Q %d %d" ta intrata))
    keys

(* Sharded variant: each qualification carries its global admission sequence
   number (gseq), the merge key that lets {!recover_dir} reassemble one
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
  st_dead t.state r;
  write_line t ("D " ^ Ds_workload.Trace.line_of_request r)

(* Mirrors [Relations.prune_history]: transactions with a terminal op in
   history (abort markers included) are dropped from the state mirror, so a
   checkpoint snapshots the live relation state — bounded by the number of
   active transactions — rather than the full log. Replay of the 'P' record
   itself stays a no-op: a full (checkpoint-free) replay keeps the complete
   history so the restored [rte] log spans the whole run. *)
let prune_mirror st =
  let terminal = Hashtbl.create 16 in
  List.iter
    (fun (r : Request.t) ->
      match r.Request.op with
      | Op.Commit | Op.Abort -> Hashtbl.replace terminal r.Request.ta ()
      | _ -> ())
    st.hist;
  List.iter (fun ta -> Hashtbl.replace terminal ta ()) st.aborts;
  st.hist <-
    List.filter
      (fun (r : Request.t) -> not (Hashtbl.mem terminal r.Request.ta))
      st.hist;
  st.aborts <- []

let log_prune t =
  prune_mirror t.state;
  write_line t "P"

(* Canonical serialization of the writer mirror, folded through CRC32.  The
   traversal order is fully determined by the record order (no hashtable
   iteration), so a standby that applied the same record stream computes the
   same hash — any difference is replay divergence. *)
let state_hash_of st =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "E%d\n" st.epoch);
  List.iter
    (fun r ->
      Buffer.add_string buf ("P " ^ Ds_workload.Trace.line_of_request r ^ "\n"))
    (pending_of_state st);
  List.iter
    (fun r ->
      let stamp =
        match Hashtbl.find_opt st.stamps (Request.key r) with
        | Some g -> string_of_int g
        | None -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "H %s %s\n" stamp (Ds_workload.Trace.line_of_request r)))
    (List.rev st.hist);
  List.iter
    (fun ta -> Buffer.add_string buf (Printf.sprintf "A %d\n" ta))
    (List.rev st.aborts);
  List.iter
    (fun r ->
      Buffer.add_string buf ("D " ^ Ds_workload.Trace.line_of_request r ^ "\n"))
    (List.rev st.dead_);
  crc32 (Buffer.contents buf)

let state_hash t = state_hash_of t.state

(* [log_epoch t e] stamps a promotion epoch into the journal.  All records
   after it belong to epoch [e]; replaying an 'E' record with a {e lower}
   epoch than the state's current one is fenced (stale-primary write). *)
let log_epoch t e =
  t.state.epoch <- e;
  write_line t (Printf.sprintf "E %d" e)

let writer_epoch t = t.state.epoch

let checkpoint t ~cycle =
  let pending = pending_of_state t.state in
  let hist = List.rev t.state.hist in
  let aborts = List.rev t.state.aborts in
  let dead = List.rev t.state.dead_ in
  let entries =
    List.length pending + List.length hist + List.length aborts
    + List.length dead
    + if t.state.epoch > 0 then 1 else 0
  in
  write_line t (Printf.sprintf "C BEGIN %d %d" cycle t.n_lines);
  (* The promotion epoch is part of the snapshot: checkpoint-suffix recovery
     never reads past records, so without this a recovered post-failover
     journal would fall back to epoch 0 and stop fencing stale-primary
     writes. Epoch-0 journals write no entry — their bytes are unchanged. *)
  if t.state.epoch > 0 then
    write_line t (Printf.sprintf "c E %d" t.state.epoch);
  List.iter
    (fun r -> write_line t ("c P " ^ Ds_workload.Trace.line_of_request r))
    pending;
  (* History entries carry their admission stamp when one was recorded
     ('c G gseq request'), so a sharded segment's checkpoint preserves the
     cross-segment merge order; unstamped entries keep the 'c H' form. *)
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.state.stamps (Request.key r) with
      | Some g ->
        write_line t
          (Printf.sprintf "c G %d %s" g (Ds_workload.Trace.line_of_request r))
      | None -> write_line t ("c H " ^ Ds_workload.Trace.line_of_request r))
    hist;
  List.iter (fun ta -> write_line t (Printf.sprintf "c A %d" ta)) aborts;
  List.iter
    (fun r -> write_line t ("c D " ^ Ds_workload.Trace.line_of_request r))
    dead;
  write_line t (Printf.sprintf "C END %d" entries);
  (* Replicated journals stamp each checkpoint with the writer-mirror state
     hash so a standby can compare its own replayed mirror ('H' replay is a
     no-op, so unreplicated journals and their recovery are untouched). *)
  if t.hash_checkpoints then
    write_line t (Printf.sprintf "H %d %08x" cycle (state_hash_of t.state));
  t.n_checkpoints <- t.n_checkpoints + 1

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
         {!recover_dir} sorts by *)
  aborted : int list;
  dead : Request.t list;
  replayed : int;
  checkpoint_cycle : int option;
  skipped : int;
  corrupt_dropped : int;
  valid_bytes : int;
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
      st_submit st (Ds_workload.Trace.request_of_line ~lineno rest)
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
    | 'D', rest -> st_dead st (Ds_workload.Trace.request_of_line ~lineno rest)
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
   semantics, then writes the identical framed record — the standby journal
   file stays a byte-prefix of the primary's.
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
  | Legacy of string  (* pre-CRC record: trusted as far as it parses *)
  | Corrupt  (* framed record whose checksum does not match *)

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let classify raw =
  let line = String.trim raw in
  if line = "" then Empty
  else if line.[0] = '!' then
    if
      String.length line >= 10
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
  else Legacy line

(* Only checksum-valid records of the continuous log count: checkpoint-block
   copies are ['c ']-prefixed, so they never match a ['Q'] payload. *)
let qualified_tas path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun raw ->
         match classify raw with
         | Framed payload | Legacy payload -> (
           match String.split_on_char ' ' payload with
           | "Q" :: ta :: _ -> int_of_string_opt ta
           | _ -> None)
         | Empty | Corrupt -> None)
  |> List.sort_uniq compare

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let recover ?(repair = false) path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let file_len = in_channel_length ic in
  let pread ~pos ~len =
    seek_in ic pos;
    really_input_string ic len
  in
  (* [replay_view lines] runs recovery over a line view of the file.
     [pre_lines] is how many lines the view omits (they precede the
     checkpoint candidate the view starts at); [strict] makes the absence
     of a valid checkpoint an error instead of a full replay, so a fast
     tail view whose candidate block turns out torn falls back to the
     whole file. *)
  let replay_view lines ~pre_lines ~strict =
  let n = Array.length lines in
  let cls = Array.make n None in
  let classify_at i =
    match cls.(i) with
    | Some c -> c
    | None ->
      let c = classify (snd lines.(i)) in
      cls.(i) <- Some c;
      c
  in
  (* Fast path: scan backwards for the last complete, checksum-valid
     checkpoint block.  Lines before it are superseded by the snapshot and
     are neither parsed nor checksummed — recovery work is proportional to
     the checkpoint plus the suffix, not the journal length. *)
  let load_block i_begin i_end =
    let st = fresh_state () in
    let cycle =
      match classify_at i_begin with
      | Framed p -> (
        (* "C BEGIN cycle [lines-before]"; the optional count is for the
           tail-reading fast path and ignored here *)
        match String.split_on_char ' ' p with
        | "C" :: "BEGIN" :: c :: ([] | [ _ ]) -> int_of_string c
        | _ -> failwith "bad C BEGIN")
      | _ -> failwith "bad C BEGIN"
    in
    let entries = ref 0 in
    for i = i_begin + 1 to i_end - 1 do
      match classify_at i with
      | Framed p when String.length p >= 4 && p.[0] = 'c' ->
        incr entries;
        let rest = String.sub p 4 (String.length p - 4) in
        (match p.[2] with
        | 'P' ->
          st_submit st (Ds_workload.Trace.request_of_line ~lineno:(i + 1) rest)
        | 'H' ->
          st.hist <-
            Ds_workload.Trace.request_of_line ~lineno:(i + 1) rest :: st.hist
        | 'G' -> (
          (* stamped history entry: "c G gseq request-line" *)
          match String.index_opt rest ' ' with
          | None -> failwith "bad checkpoint entry"
          | Some sp ->
            let gseq = int_of_string (String.sub rest 0 sp) in
            let r =
              Ds_workload.Trace.request_of_line ~lineno:(i + 1)
                (String.sub rest (sp + 1) (String.length rest - sp - 1))
            in
            Hashtbl.replace st.stamps (Request.key r) gseq;
            st.hist <- r :: st.hist)
        | 'A' -> st.aborts <- int_of_string (String.trim rest) :: st.aborts
        | 'D' ->
          st.dead_ <-
            Ds_workload.Trace.request_of_line ~lineno:(i + 1) rest :: st.dead_
        | 'E' -> st.epoch <- int_of_string (String.trim rest)
        | _ -> failwith "bad checkpoint entry")
      | Empty -> ()
      | _ -> failwith "bad checkpoint entry"
    done;
    (match classify_at i_end with
    | Framed p -> (
      match String.split_on_char ' ' p with
      | [ "C"; "END"; c ] when int_of_string c = !entries -> ()
      | _ -> failwith "checkpoint entry count mismatch")
    | _ -> failwith "bad C END");
    (st, cycle)
  in
  let find_checkpoint () =
    let rec from_end i =
      if i < 0 then None
      else
        match classify_at i with
        | Framed p when starts_with "C END" p -> (
          (* Walk up to the matching BEGIN; any invalid line voids the
             candidate and we keep looking further back. *)
          let rec find_begin j =
            if j < 0 then None
            else
              match classify_at j with
              | Framed p when starts_with "C BEGIN" p -> Some j
              | Framed p when String.length p >= 1 && p.[0] = 'c' ->
                find_begin (j - 1)
              | Empty -> find_begin (j - 1)
              | _ -> None
          in
          match find_begin (i - 1) with
          | Some b -> (
            match load_block b i with
            | st, cycle -> Some (st, cycle, b, i)
            | exception _ -> from_end (i - 1))
          | None -> from_end (i - 1))
        | _ -> from_end (i - 1)
    in
    from_end (n - 1)
  in
  let st, checkpoint_cycle, skipped, start =
    match find_checkpoint () with
    | Some (st, cycle, b, e) -> (st, Some cycle, pre_lines + b, e + 1)
    | None ->
      if strict then raise Not_found;
      (fresh_state (), None, 0, 0)
  in
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
  let rest_all_empty i =
    let ok = ref true in
    for j = i + 1 to n - 1 do
      if String.trim (snd lines.(j)) <> "" then ok := false
    done;
    !ok
  in
  let any_framed_after i =
    let found = ref false in
    for j = i + 1 to n - 1 do
      if not !found then
        match classify_at j with Framed _ -> found := true | _ -> ()
    done;
    !found
  in
  let corruption_message e i =
    match e with
    | Failure m -> m
    | Ds_workload.Trace.Malformed (m, l) -> Printf.sprintf "line %d: %s" l m
    | _ -> Printf.sprintf "journal line %d: corruption" (i + 1)
  in
  (try
     for i = start to n - 1 do
       match classify_at i with
       | Empty -> ()
       | Framed payload ->
         (* Checksum matched, so the payload is byte-exact; a parse failure
            here is structural corruption, torn or not. *)
         (match apply st (i + 1) payload with
         | () -> incr replayed
         | exception ((Failure _ | Ds_workload.Trace.Malformed _) as e) ->
           failwith (corruption_message e i))
       | Legacy payload -> (
         match apply st (i + 1) payload with
         | () -> incr replayed
         | exception ((Failure _ | Ds_workload.Trace.Malformed _) as e) ->
           (* A torn final line is expected after a crash; garbage earlier
              in the file is corruption. *)
           if rest_all_empty i then begin
             valid_bytes := fst lines.(i);
             corrupt_dropped := 1;
             raise Exit
           end
           else failwith (corruption_message e i))
       | Corrupt ->
         (* A bad checksum followed only by more garbage is a torn tail:
            truncate to the last valid prefix.  A bad checksum with valid
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
  let history = List.rev st.hist in
  {
    pending = pending_of_state st;
    history;
    history_stamped =
      List.map
        (fun r -> (r, Hashtbl.find_opt st.stamps (Request.key r)))
        history;
    aborted = List.rev st.aborts;
    dead = List.rev st.dead_;
    replayed = !replayed;
    checkpoint_cycle;
    skipped;
    corrupt_dropped = !corrupt_dropped;
    valid_bytes = !valid_bytes;
    epoch = st.epoch;
  }
  in
  (* Fast path: locate the last checkpoint block by a backward chunked byte
     scan and read only the file from its BEGIN line on — the prefix is
     never read, parsed or checksummed, so recovery cost tracks live state
     plus the suffix, not journal length.  The BEGIN record embeds how many
     lines precede it, which becomes [skipped].  Any doubt about the
     candidate block (torn, corrupt, legacy format) falls back to the full
     view, whose backward scan finds an earlier intact block or replays
     from scratch.  The markers are anchored on their uppercase 'C': kind
     characters are the only place the journal grammar produces one, and a
     false positive just fails validation and falls back. *)
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
  let fast =
    if file_len = 0 then None
    else
      match find_last " C END " ~before:file_len with
      | None -> None
      | Some end_pos -> (
        match find_last " C BEGIN " ~before:end_pos with
        | None -> None
        | Some begin_pos -> (
          let begin_bol = line_start begin_pos in
          let tail = pread ~pos:begin_bol ~len:(file_len - begin_bol) in
          let pre_lines =
            let first_line =
              match String.index_opt tail '\n' with
              | Some i -> String.sub tail 0 i
              | None -> tail
            in
            match classify first_line with
            | Framed p -> (
              match String.split_on_char ' ' p with
              | [ "C"; "BEGIN"; _; k ] -> int_of_string_opt k
              | _ -> None)
            | _ -> None
          in
          match pre_lines with
          | None -> None
          | Some pre_lines -> (
            match
              replay_view (split_lines ~base:begin_bol tail) ~pre_lines
                ~strict:true
            with
            | r -> Some r
            | exception Not_found -> None)))
  in
  match fast with
  | Some r -> r
  | None ->
    replay_view (split_lines (pread ~pos:0 ~len:file_len)) ~pre_lines:0
      ~strict:false

(* Newline count of an existing file, read in chunks (the journal can be
   much larger than memory pressure should be). *)
let count_file_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let buf = Bytes.create 65536 in
        let n = ref 0 in
        let rec loop () =
          let read = input ic buf 0 (Bytes.length buf) in
          if read > 0 then begin
            for i = 0 to read - 1 do
              if Bytes.get buf i = '\n' then incr n
            done;
            loop ()
          end
        in
        loop ();
        !n)

let open_ ?(sync = false) ?state path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let st = fresh_state () in
  (match state with
  | None -> ()
  | Some r ->
    List.iter (st_submit st) r.pending;
    st.hist <- List.rev r.history;
    List.iter
      (fun (req, g) ->
        Option.iter (fun g -> Hashtbl.replace st.stamps (Request.key req) g) g)
      r.history_stamped;
    st.aborts <- List.rev r.aborted;
    st.dead_ <- List.rev r.dead;
    st.epoch <- r.epoch);
  {
    oc;
    path;
    sync;
    flushed_pos = out_channel_length oc;
    state = st;
    n_checkpoints = 0;
    n_lines = count_file_lines path;
    sink = None;
    hash_checkpoints = false;
  }

(* ------------------------------------------------------------------ *)
(* Segment directories (sharded journals)                              *)
(*                                                                     *)
(* A sharded run journals into a directory of per-lane segment files   *)
(* instead of one flat file:                                           *)
(*                                                                     *)
(*   dir/MANIFEST          "dsched-journal-segments 1\nshards S\n"     *)
(*   dir/shard-<i>.journal i in 0..S-1, lane i's records               *)
(*   dir/global.journal    the cross-shard (global) lane's records     *)
(*                                                                     *)
(* Each segment is an ordinary journal; its Q records carry the global *)
(* admission sequence (gseq), which [recover_dir] uses to merge the    *)
(* per-segment histories back into one continuous rte.                 *)
(* ------------------------------------------------------------------ *)

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

let init_segment_dir dir ~shards =
  if shards < 2 then
    invalid_arg "Journal.init_segment_dir: needs at least 2 shards";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "%s: exists and is not a directory" dir);
  let oc = open_out_bin (manifest_path dir) in
  output_string oc (Printf.sprintf "%s\nshards %d\n" manifest_magic shards);
  close_out oc;
  segment_paths_of ~shards dir

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
    epoch = 0;
  }

(* Per-segment recovery: each segment repairs (or refuses) independently, so
   a torn tail in one lane never blocks recovery of its siblings, and a
   mid-file corruption error names the segment it came from. *)
let recover_segments ?(repair = false) dir =
  let paths = segment_paths dir in
  List.map
    (fun p ->
      let name = Filename.basename p in
      let r =
        if Sys.file_exists p then
          try recover ~repair p
          with Failure m -> failwith (Printf.sprintf "%s: %s" name m)
        else empty_recovered
      in
      (name, r))
    paths

let recover_dir ?(repair = false) dir =
  let segs = List.map snd (recover_segments ~repair dir) in
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
    epoch = List.fold_left (fun acc s -> max acc s.epoch) 0 segs;
  }

let restore ?(rte = false) recovered rels =
  Relations.clear rels;
  List.iter
    (fun r ->
      Ds_relal.Table.insert rels.Relations.history
        (Relations.row_of_request ~extended:rels.Relations.extended r))
    recovered.history;
  (* Abort markers release the logical locks of middleware-aborted txns. The
     seq offset keeps restored markers distinct from the ones a scheduler
     mints afterwards (its abort_seq restarts at 1). *)
  List.iteri
    (fun i ta ->
      let marker = Request.abort_marker ~ta ~seq:(1_000_000_000 + i) () in
      Ds_relal.Table.insert rels.Relations.history
        (Relations.row_of_request ~extended:rels.Relations.extended marker))
    recovered.aborted;
  if rte then Relations.insert_rte rels recovered.history;
  List.iter (Relations.insert_dead rels) recovered.dead;
  Relations.insert_pending_batch rels recovered.pending
