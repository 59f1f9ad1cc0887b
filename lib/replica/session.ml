open Ds_core

type mode = Async | Sync

let mode_to_string = function Async -> "async" | Sync -> "sync"

let mode_of_string = function
  | "async" -> Some Async
  | "sync" -> Some Sync
  | _ -> None

(* Retransmission timeout: a record the standby lacks is re-sent on the next
   pump once its last send is older than this.  Well above the link's
   default base delay, well below a scheduler cycle's worth of traffic. *)
let rto = 0.02

type t = {
  mode : mode;
  link : Link.t;
  dir : string;
  standby_path : string;
  mutable standby : Journal.t option;  (* [None] once promoted *)
  mutable clock : unit -> float;
  trace : Ds_obs.Trace.t option;
  mutable epoch : int;  (* current promotion epoch; 0 until a failover *)
  mutable primary_lsn : int;
      (* last record streamed off the primary. The session numbers streamed
         records itself: checkpoint entries never travel, so LSNs are not
         journal line numbers *)
  mutable watermark : int;  (* highest contiguous LSN applied + acked *)
  outbox : (int, string) Hashtbl.t;
      (* primary-side retention of unacked records: lsn -> payload (the
         retransmission source for dropped records) *)
  sends : (int * float) Queue.t;
      (* (lsn, last send time) of outbox records in send order, so the
         oldest send is at the front; acked entries are dropped lazily *)
  reorder : (int, string) Hashtbl.t;
      (* standby-side buffer of records that arrived ahead of a gap *)
  ta_lsn : (int, int) Hashtbl.t;
      (* per-transaction high-water LSN of its Q records: the sync-mode
         commit gate ([synced]) compares it against the watermark *)
  mutable promoted : bool;
  mutable n_fenced : int;
  mutable n_divergences : int;
  mutable n_retransmits : int;
  mutable n_stale : int;  (* duplicate deliveries at or below the watermark *)
  mutable n_hash_checks : int;
}

let manifest_magic = "dsched-repl 1"
let manifest_path dir = Filename.concat dir "REPL"
let standby_path_of dir = Filename.concat dir "standby.journal"

let is_repl_dir dir =
  Sys.file_exists dir
  && Sys.is_directory dir
  && Sys.file_exists (manifest_path dir)

let mode_of_dir dir =
  let ic = open_in_bin (manifest_path dir) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let magic = try input_line ic with End_of_file -> "" in
  if String.trim magic <> manifest_magic then
    failwith (Printf.sprintf "%s: not a replication session directory" dir);
  let mode_line = try input_line ic with End_of_file -> "" in
  match String.split_on_char ' ' (String.trim mode_line) with
  | [ "mode"; m ] -> (
    match mode_of_string m with
    | Some m -> m
    | None -> failwith (Printf.sprintf "%s: bad mode in REPL manifest" dir))
  | _ -> failwith (Printf.sprintf "%s: bad mode in REPL manifest" dir)

let create ~mode ~plan ~seed ?trace ~dir () =
  (match Link.validate plan with
  | Ok () -> ()
  | Error m -> invalid_arg ("Session.create: link faults: " ^ m));
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "%s: exists and is not a directory" dir);
  let oc = open_out_bin (manifest_path dir) in
  output_string oc
    (Printf.sprintf "%s\nmode %s\n" manifest_magic (mode_to_string mode));
  close_out oc;
  (* [Journal.open_] starts the standby file afresh: a stale one from a
     previous session would not be a prefix of this primary's stream *)
  let standby_path = standby_path_of dir in
  {
    mode;
    link = Link.create plan (Ds_sim.Rng.create seed);
    dir;
    standby_path;
    standby = Some (Journal.open_ standby_path);
    clock = (fun () -> 0.);
    trace;
    epoch = 0;
    primary_lsn = 0;
    watermark = 0;
    outbox = Hashtbl.create 256;
    sends = Queue.create ();
    reorder = Hashtbl.create 64;
    ta_lsn = Hashtbl.create 256;
    promoted = false;
    n_fenced = 0;
    n_divergences = 0;
    n_retransmits = 0;
    n_stale = 0;
    n_hash_checks = 0;
  }

let set_clock t f = t.clock <- f

(* Q records are the logical execution facts; a transaction is sync-safe
   once every Q record it produced is at or below the standby's watermark. *)
let note_record t lsn payload =
  if String.length payload >= 2 && payload.[0] = 'Q' then
    match String.split_on_char ' ' payload with
    | "Q" :: ta :: _ -> (
      match int_of_string_opt ta with
      | Some ta -> Hashtbl.replace t.ta_lsn ta lsn
      | None -> ())
    | _ -> ()

let on_record t payload =
  if not t.promoted then begin
    let now = t.clock () in
    let lsn = t.primary_lsn + 1 in
    t.primary_lsn <- lsn;
    Hashtbl.replace t.outbox lsn payload;
    Queue.push (lsn, now) t.sends;
    note_record t lsn payload;
    Link.send t.link ~now ~epoch:t.epoch ~lsn ~payload
  end

let attach t journal =
  Journal.set_hash_checkpoints journal true;
  Journal.set_sink journal (on_record t)

let diverged t ~cycle =
  t.n_divergences <- t.n_divergences + 1;
  Ds_obs.Trace.emit t.trace Ds_obs.Trace.Repl_divergence ~ta:(-1) ~seq:(-1)
    ~arg:cycle ()

(* The cycle of a streamed "C BEGIN cycle lines" record. *)
let checkpoint_cycle payload =
  if String.length payload > 8 && payload.[0] = 'C' then
    match String.split_on_char ' ' payload with
    | [ "C"; "BEGIN"; cycle; _ ] -> int_of_string_opt cycle
    | _ -> None
  else None

(* Apply the contiguous prefix sitting in the reorder buffer.  A checkpoint
   travels as its C BEGIN record alone: the standby writes its own block
   from its replayed mirror and checks that its BEGIN line is the streamed
   one.  'H' records carry the primary's state hash for the checkpoint just
   written; comparing it against the standby mirror's own hash is the
   divergence detector. *)
let drain t =
  match t.standby with
  | None -> ()
  | Some j ->
    let continue_ = ref true in
    while !continue_ do
      match Hashtbl.find_opt t.reorder (t.watermark + 1) with
      | None -> continue_ := false
      | Some payload ->
        Hashtbl.remove t.reorder (t.watermark + 1);
        (match checkpoint_cycle payload with
        | Some cycle ->
          if not (Journal.append_checkpoint j ~cycle payload) then
            diverged t ~cycle
        | None -> Journal.append_raw j payload);
        t.watermark <- t.watermark + 1;
        Hashtbl.remove t.outbox t.watermark;
        if String.length payload >= 2 && payload.[0] = 'H' then begin
          match String.split_on_char ' ' payload with
          | [ "H"; cycle; hash ] -> (
            match
              (int_of_string_opt cycle, int_of_string_opt ("0x" ^ hash))
            with
            | Some cycle, Some h ->
              t.n_hash_checks <- t.n_hash_checks + 1;
              if Journal.state_hash j <> h then diverged t ~cycle
            | _ -> ())
          | _ -> ()
        end
    done

let pump t ~now =
  List.iter
    (fun (m : Link.message) ->
      if t.promoted || m.Link.m_epoch < t.epoch then begin
        (* a record from a fenced incarnation of the primary (typically held
           across a partition that outlived it): refused, never applied *)
        t.n_fenced <- t.n_fenced + 1;
        Ds_obs.Trace.emit t.trace Ds_obs.Trace.Repl_fence ~ta:(-1) ~seq:(-1)
          ~arg:m.Link.m_epoch ()
      end
      else if m.Link.m_lsn <= t.watermark then t.n_stale <- t.n_stale + 1
      else Hashtbl.replace t.reorder m.Link.m_lsn m.Link.m_payload)
    (Link.deliver t.link ~now);
  drain t;
  (* Selective retransmission: resend, past the RTO, only the records the
     standby lacks — neither at or below its watermark (cumulative ack) nor
     held in its reorder buffer (selective ack). The send queue is in send
     order, so the walk stops at the first record sent within the RTO;
     acked entries met on the way are dropped, and a resent record goes to
     the back. Duplicates stay harmless: the watermark filter ignores
     them. *)
  let continue_ = ref (not t.promoted) in
  while !continue_ && not (Queue.is_empty t.sends) do
    let lsn, sent_at = Queue.peek t.sends in
    if lsn <= t.watermark || Hashtbl.mem t.reorder lsn then
      ignore (Queue.pop t.sends)
    else if now -. sent_at > rto then begin
      ignore (Queue.pop t.sends);
      Queue.push (lsn, now) t.sends;
      t.n_retransmits <- t.n_retransmits + 1;
      Link.send t.link ~now ~epoch:t.epoch ~lsn
        ~payload:(Hashtbl.find t.outbox lsn)
    end
    else continue_ := false
  done

let synced t ~ta =
  match Hashtbl.find_opt t.ta_lsn ta with
  | None -> true (* nothing journalled for it: nothing to lose *)
  | Some lsn -> lsn <= t.watermark

let promote t =
  if t.promoted then invalid_arg "Session.promote: already promoted";
  t.promoted <- true;
  (match t.standby with
  | Some j ->
    Journal.flush j;
    Journal.close j;
    t.standby <- None
  | None -> ());
  (* Everything above the watermark is gone with the primary; retransmission
     state is meaningless now. *)
  Hashtbl.reset t.outbox;
  Queue.clear t.sends;
  Hashtbl.reset t.reorder;
  let recovered, j = Journal.promote ~after:t.epoch t.standby_path in
  t.epoch <- Journal.writer_epoch j;
  { Middleware.rp_recovered = recovered; rp_journal = j }

let finish t =
  match t.standby with
  | Some j -> Journal.flush j
  | None -> ()

let close t =
  match t.standby with
  | Some j ->
    Journal.flush j;
    Journal.close j;
    t.standby <- None
  | None -> ()

let dir t = t.dir
let standby_path t = t.standby_path
let mode t = t.mode
let epoch t = t.epoch
let primary_lsn t = t.primary_lsn
let watermark t = t.watermark
let lag t = t.primary_lsn - t.watermark
let fenced t = t.n_fenced
let divergences t = t.n_divergences
let retransmits t = t.n_retransmits
let stale_deliveries t = t.n_stale
let hash_checks t = t.n_hash_checks
let promoted t = t.promoted
let link t = t.link

let ta_lsns t =
  Hashtbl.fold (fun ta lsn acc -> (ta, lsn) :: acc) t.ta_lsn []
  |> List.sort compare

(* The middleware-facing closure record: [Middleware] drives the session
   through these without depending on this library. *)
let hooks t : Middleware.repl_hooks =
  {
    Middleware.repl_attach = attach t;
    repl_set_clock = set_clock t;
    repl_pump = (fun ~now -> pump t ~now);
    repl_synced = (fun ~ta -> synced t ~ta);
    repl_promote = (fun () -> promote t);
    repl_status =
      (fun () ->
        {
          Middleware.rs_epoch = t.epoch;
          rs_watermark = t.watermark;
          rs_primary_lsn = t.primary_lsn;
          rs_lag = t.primary_lsn - t.watermark;
          rs_fenced = t.n_fenced;
          rs_divergences = t.n_divergences;
          rs_sync = t.mode = Sync;
        });
  }
