(* Repository benchmark: three workloads of the paper's traffic, driven only
   through the middleware's public entry points. Client-visible outcomes are
   read on the virtual clock (exact per seed, because scheduler host time is
   not charged to it); host cost is measured around the calls into each
   layer. README.md in this directory holds the metric dictionary.

     bash benchmark/run.sh --workload listing1-200 --seed 42 --seconds 10 --trace 0
     dune exec benchmark/main.exe -- sweep --reps 3 --json a.json
     dune exec benchmark/main.exe -- compare a.json b.json

   Every measured run is a fresh child process (this executable re-run with
   [child]), so heap state and peak RSS never leak from one run into the
   next. *)

open Ds_core
open Ds_workload
module Json = Ds_obs.Json
module Trace = Ds_obs.Trace
module Vec = Ds_util.Vec
module Session = Ds_replica.Session

let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank, so a p95 over 200 samples leaves exactly 10 beyond it. *)
let percentile q a =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
    (sorted a).(max 0 (min (n - 1) (k - 1)))

(* Middle value, or the mean of the two middle values, as Python's
   [statistics.median]: the summary of repeated host-time samples. *)
let median a =
  let a = sorted a and n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by Python's [statistics.quantiles(n=4)] ("exclusive" method),
   so the spreads reported here are the ones a script computes from the
   same samples. *)
let quartiles a =
  let a = sorted a and n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  duration : float;  (** virtual seconds *)
  warmup : float;  (** virtual seconds excluded from steady-state rates *)
  inputs : int;
      (** input sets (seeds derived from --seed) one measurement pools, to
          narrow the spread of client outcomes from one seed to the next *)
  min_commits : int;  (** per run; the pooled p95 then has ten samples beyond it *)
  durable : bool;  (** fsynced journal plus a sync hot standby *)
  config : Middleware.config;
}

let lossy_link =
  { Ds_replica.Link.none with drop_rate = 0.05; dup_rate = 0.02; reorder_rate = 0.1 }

(* All closed loop (no think time) over the paper's transactions: 20 SELECT
   + 20 UPDATE over 100k objects, uniform unless noted.
   [charge_scheduler_time = false] keeps every client-side outcome a
   function of (seed, code) alone; the scheduler's real cost shows in the
   host-time metrics instead. Client
   counts and durations keep one run at 1 to 6 host seconds, so a
   measurement holds several runs to take medians of. --quick keeps every
   code path at a tenth of the clients, a third of the run and one input
   set. *)
let workloads ~quick =
  let clients n = if quick then n / 10 else n in
  let span d w = if quick then (d /. 3., w /. 3.) else (d, w) in
  let base =
    {
      Middleware.default_config with
      n_clients = clients 200;
      spec = Spec.paper_default;
      protocol = Builtin.ss2pl_sql;
      trigger = Trigger.Hybrid (0.01, 50);
      workers = 4;
      prune_history = true;
      charge_scheduler_time = false;
    }
  in
  let make name (duration, warmup) ~inputs ?(durable = false) config =
    {
      name;
      duration;
      warmup;
      inputs = (if quick then 1 else inputs);
      min_commits = (if quick then 1 else 200);
      durable;
      config = { config with Middleware.duration };
    }
  in
  [
    make "listing1-200" (span 2.4 0.8) ~inputs:2 base;
    make "durable-sync-200" (span 3.0 1.0) ~inputs:2 ~durable:true
      {
        base with
        protocol = Builtin.ss2pl_ocaml;
        sync_journal = true;
        checkpoint_interval = Some 10;
      };
    (* Commit rate and latency here follow the cross-shard barrier and vary
       by 5 to 10 % from one input set to the next, so this workload pools
       eight short ones. *)
    make "sharded-200" (span 16.0 4.0) ~inputs:8
      {
        base with
        protocol = Builtin.ss2pl_ocaml;
        shards = 4;
        spec = { Spec.paper_default with access = Spec.Partitioned (8, 0.001) };
      };
  ]

(* ------------------------------------------------------------------ *)
(* Instrumentation: timed wrappers around public closures             *)
(* ------------------------------------------------------------------ *)

type probe = {
  sink : Trace.t;  (** [config.trace]; [Trace.now] reads the virtual clock *)
  steady_from : float;  (** the workload's warm-up, in virtual seconds *)
  mutable on_query : unit -> unit;
  mutable prepare_s : float;
  mutable keys : int;
  query_s : float Vec.t;  (** host seconds of each protocol-query call *)
  marks : (float * float) Vec.t;  (** (virtual, host) seconds after each call *)
  mutable warm : (int * Gc.stat) option;  (** calls and GC state at warm-up end *)
  mutable index_s : float;
  mutable pump_s : float;
  mutable pump_calls : int;
  mutable synced_s : float;
}

let probe ~traced wl =
  {
    sink = Trace.create ~enabled:traced ();
    steady_from = wl.warmup;
    on_query = ignore;
    prepare_s = 0.;
    keys = 0;
    query_s = Vec.create ();
    marks = Vec.create ();
    warm = None;
    index_s = 0.;
    pump_s = 0.;
    pump_calls = 0;
    synced_s = 0.;
  }

let instrument pr (p : Protocol.t) =
  {
    p with
    Protocol.prepare =
      (fun rels ->
        let t0 = clock () in
        let qualify = p.Protocol.prepare rels in
        pr.prepare_s <- pr.prepare_s +. (clock () -. t0);
        fun () ->
          pr.on_query ();
          let t0 = clock () in
          let keys = qualify () in
          let t1 = clock () in
          Vec.push pr.query_s (t1 -. t0);
          pr.keys <- pr.keys + List.length keys;
          let vs = Trace.now pr.sink in
          Vec.push pr.marks (vs, t1);
          if pr.warm = None && vs >= pr.steady_from then
            pr.warm <- Some (Vec.length pr.query_s, Gc.quick_stat ());
          keys);
  }

let instrument_repl pr (h : Middleware.repl_hooks) =
  {
    h with
    Middleware.repl_pump =
      (fun ~now ->
        let t0 = clock () in
        h.Middleware.repl_pump ~now;
        pr.pump_s <- pr.pump_s +. (clock () -. t0);
        pr.pump_calls <- pr.pump_calls + 1);
    repl_synced =
      (fun ~ta ->
        let t0 = clock () in
        let synced = h.Middleware.repl_synced ~ta in
        pr.synced_s <- pr.synced_s +. (clock () -. t0);
        synced);
  }

(* Scratch files live under the working directory: the benchmark reads and
   writes nothing outside the checkout it runs in. *)
let tmp_root = ".bench_tmp"

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  let dir = Filename.temp_dir ~temp_dir:tmp_root "run" "" in
  Fun.protect
    ~finally:(fun () ->
      remove dir;
      try Sys.rmdir tmp_root with Sys_error _ -> ())
    (fun () -> f dir)

let prepare ~dir ~seed ~traced pr wl =
  let session, journal_path, repl =
    if wl.durable then
      let s =
        Session.create ~mode:Session.Sync ~plan:lossy_link ~seed ~trace:pr.sink
          ~dir:(Filename.concat dir "standby") ()
      in
      ( Some s,
        Some (Filename.concat dir "primary.journal"),
        Some (instrument_repl pr (Session.hooks s)) )
    else (None, None, None)
  in
  ( {
      wl.config with
      Middleware.seed;
      trace = Some pr.sink;
      metrics = (if traced then Some (Ds_obs.Metrics.create ()) else None);
      protocol = instrument pr wl.config.Middleware.protocol;
      journal_path;
      repl;
    },
    session )

exception First_query

(* One set-up: scratch directory, standby session and config, up to the
   first protocol-query call, where the run is cut short. *)
let setup_seconds ~seed wl =
  let t0 = clock () in
  with_tmp_dir (fun dir ->
      let pr = probe ~traced:false wl in
      pr.on_query <- (fun () -> raise First_query);
      let config, session = prepare ~dir ~seed ~traced:false pr wl in
      (try ignore (Middleware.run_sharded config) with First_query -> ());
      let dt = clock () -. t0 in
      Option.iter Session.close session;
      dt)

(* ------------------------------------------------------------------ *)
(* One run (child process)                                            *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> go ())
      in
      go ())

(* Host seconds per virtual second after warm-up: from the first query call
   at or past the warm-up to the run's end. A whole-span mean, not a median
   over short windows: on the sharded workload host cost per window is
   bimodal (barrier phases, major GC slices), and a window median jumps
   between the modes from one input to the next. *)
let host_s_per_vs pr ~duration ~stop =
  let marks = Vec.to_array pr.marks in
  let v0, h0 =
    match Array.find_opt (fun (v, _) -> v >= pr.steady_from) marks with
    | Some m -> m
    | None -> (duration, stop)
  in
  ratio (stop -. h0) (duration -. v0)

let int n = Json.Num (float_of_int n)
let metric (name, unit_, v) = (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ])

let count_lines path =
  In_channel.with_open_bin path (fun ic ->
      let n = ref 0 in
      String.iter (fun c -> if c = '\n' then incr n) (In_channel.input_all ic);
      !n)

(* Journal.recover of the primary journal must give back the lane's live
   pending set (plus what still sat in the incoming queue) and a history
   that is the tail of the lane's rte. *)
let recovery_failures path sched =
  let r = Journal.recover path in
  let keys l =
    List.filter_map
      (fun q ->
        if Ds_model.Request.is_abort_marker q then None
        else Some (Ds_model.Request.key q))
      l
  in
  let rels = Scheduler.relations sched in
  let live = List.sort compare (keys (Relations.pending rels)) in
  let got = List.sort compare (keys r.Journal.pending) in
  let rec subsequence a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> if x = y then subsequence a' b' else subsequence a b'
  in
  let rte = keys (Relations.rte_requests rels) and hist = keys r.Journal.history in
  let last l = List.nth_opt (List.rev l) 0 in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      (r.Journal.corrupt_dropped = 0, "recovery dropped a torn journal tail");
      ( subsequence live got
        && List.length got = List.length live + Scheduler.queue_length sched,
        "recovered pending set differs from the live pending set" );
      ( hist <> [] && subsequence hist rte && last hist = last rte,
        "recovered history is not the tail of the rte" );
    ]

let op_label label =
  match String.index_opt label '(' with
  | Some i -> String.lowercase_ascii (String.sub label 0 i)
  | None -> String.lowercase_ascii label

(* Operators with the most self time in Listing 1's plan (ANTI join over
   history, then the lock-table join, DISTINCT and projections). Fixed so
   every run emits the same names; an operator absent from the plan reads 0. *)
let sql_ops = [ "antijoin"; "leftjoin"; "innerjoin"; "distinct"; "project" ]

(* Listing 1 prepared against lane 0's final catalog, then run 5 times under
   Profile: plan time, median self time per operator kind, and rows
   consumed per row produced. *)
let zeros = List.map (fun (n, u) -> (n, u, 0.))

let sql_layers (p : Protocol.t) sched =
  if p.Protocol.language <> `Sql then
    zeros
      (("sql.plan_ms", "ms") :: ("sql.rows_examined_per_row_out", "ratio")
      :: List.map (fun op -> (Printf.sprintf "sql.op.%s_ms" op, "ms")) sql_ops)
  else begin
    let catalog = (Scheduler.relations sched).Relations.catalog in
    let t0 = clock () in
    let plan = Ds_sql.Exec.prepare catalog Queries.ss2pl in
    let plan_ms = 1000. *. (clock () -. t0) in
    let runs = List.init 5 (fun _ -> snd (Ds_relal.Profile.run plan)) in
    let rec nodes (s : Ds_relal.Profile.node_stats) =
      s :: List.concat_map nodes s.Ds_relal.Profile.children
    in
    let self_ms op (root : Ds_relal.Profile.node_stats) =
      List.fold_left
        (fun acc (s : Ds_relal.Profile.node_stats) ->
          if op_label s.Ds_relal.Profile.label = op then
            acc +. (1000. *. s.Ds_relal.Profile.time)
          else acc)
        0. (nodes root)
    in
    let root = List.hd runs in
    let examined =
      List.fold_left
        (fun acc (s : Ds_relal.Profile.node_stats) -> acc + s.Ds_relal.Profile.rows)
        0 (List.tl (nodes root))
    in
    [
      ("sql.plan_ms", "ms", plan_ms);
      ( "sql.rows_examined_per_row_out",
        "ratio",
        float_of_int examined /. float_of_int (max 1 root.Ds_relal.Profile.rows) );
    ]
    @ List.map
        (fun op ->
          ( Printf.sprintf "sql.op.%s_ms" op,
            "ms",
            median (Array.of_list (List.map (self_ms op) runs)) ))
        sql_ops
  end

type req_times = {
  mutable enqueued : float;
  mutable drained : float;
  mutable admitted : float;
  mutable dispatched : float;
  mutable started : float;
  mutable finished : float;
}

(* Virtual waits and exact commit latencies from the program's own trace.
   A transaction's latency runs from its first event to its commit, as
   [Ds_obs.Span] defines it; commits after the run's end are not counted,
   as in the middleware's own statistics. *)
let trace_layers events ~duration ~(stats : Middleware.stats) =
  let reqs = Hashtbl.create 65536 and first = Hashtbl.create 8192 in
  let commit_done = Hashtbl.create 8192 in
  let latencies = Vec.create () and acks = Vec.create () in
  let defers = ref 0 and admits = ref 0 and execs = ref 0 in
  let first_time get set r at = if Float.is_nan (get r) then set r at in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ta >= 0 && not (Hashtbl.mem first e.Trace.ta) then
        Hashtbl.add first e.Trace.ta e.Trace.at;
      if e.Trace.seq >= 0 then begin
        let key = (e.Trace.ta, e.Trace.seq) in
        let r =
          match Hashtbl.find_opt reqs key with
          | Some r -> r
          | None ->
            let r =
              {
                enqueued = nan;
                drained = nan;
                admitted = nan;
                dispatched = nan;
                started = nan;
                finished = nan;
              }
            in
            Hashtbl.add reqs key r;
            r
        in
        let at = e.Trace.at in
        match e.Trace.kind with
        | Trace.Enqueued -> first_time (fun r -> r.enqueued) (fun r v -> r.enqueued <- v) r at
        | Trace.Drained -> first_time (fun r -> r.drained) (fun r v -> r.drained <- v) r at
        | Trace.Sched_admit ->
          incr admits;
          first_time (fun r -> r.admitted) (fun r v -> r.admitted <- v) r at
        | Trace.Sched_defer -> incr defers
        | Trace.Dispatched ->
          first_time (fun r -> r.dispatched) (fun r v -> r.dispatched <- v) r at
        | Trace.Exec_start -> first_time (fun r -> r.started) (fun r v -> r.started <- v) r at
        | Trace.Exec_done ->
          incr execs;
          first_time (fun r -> r.finished) (fun r v -> r.finished <- v) r at;
          if e.Trace.op = 'c' then Hashtbl.replace commit_done e.Trace.ta at
        | _ -> ()
      end
      else if e.Trace.kind = Trace.Commit && e.Trace.at <= duration then begin
        Vec.push latencies (e.Trace.at -. Hashtbl.find first e.Trace.ta);
        Option.iter
          (fun t -> Vec.push acks (e.Trace.at -. t))
          (Hashtbl.find_opt commit_done e.Trace.ta)
      end)
    events;
  let waits f =
    Array.of_list
      (Hashtbl.fold
         (fun _ r acc ->
           let w = f r in
           if Float.is_nan w then acc else (1000. *. w) :: acc)
         reqs [])
  in
  let queue = waits (fun r -> r.drained -. r.enqueued)
  and sched = waits (fun r -> r.admitted -. r.drained)
  and server = waits (fun r -> r.started -. r.dispatched)
  and exec = waits (fun r -> r.finished -. r.started)
  and acks = Array.map (fun s -> 1000. *. s) (Vec.to_array acks) in
  let latencies = Vec.to_array latencies in
  ( latencies,
    [
      ("wait.queue_ms_p50", "vms", percentile 0.5 queue);
      ("wait.queue_ms_p95", "vms", percentile 0.95 queue);
      ("wait.sched_ms_p50", "vms", percentile 0.5 sched);
      ("wait.sched_ms_p95", "vms", percentile 0.95 sched);
      ("wait.server_ms_p50", "vms", percentile 0.5 server);
      ("exec.ms_p50", "vms", percentile 0.5 exec);
      ("wait.ack_ms_p50", "vms", percentile 0.5 acks);
      ("wait.ack_ms_p95", "vms", percentile 0.95 acks);
      ("sched.defers_per_admit", "ratio", ratio (float_of_int !defers) (float_of_int !admits));
      ( "work.useful_ratio",
        "ratio",
        ratio (float_of_int stats.Middleware.committed_stmts) (float_of_int !execs) );
      ( "trace.events_per_commit",
        "count",
        ratio (float_of_int (List.length events)) (float_of_int stats.Middleware.committed_txns) );
    ] )

(* The correctness gate of one run, and the host time of its
   serializability check. *)
let gate wl (config : Middleware.config) session (stats : Middleware.stats)
    (h : Middleware.handle) =
  let failures = ref [] in
  let fail msg = failures := (wl.name ^ ": " ^ msg) :: !failures in
  let rte = h.Middleware.merged_rte in
  let t0 = clock () in
  let report =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_requests rte)
  in
  let check_ms = 1000. *. (clock () -. t0) in
  if not (Ds_check.Serializability.is_clean report) then
    fail
      (Printf.sprintf "merged rte not serializable (%d violations)"
         (List.length report.Ds_check.Serializability.violations));
  let shards = config.Middleware.shards in
  if shards > 1 then begin
    let by_key = Hashtbl.create (2 * List.length rte) in
    List.iter (fun r -> Hashtbl.replace by_key (Ds_model.Request.key r) r) rte;
    let candidate =
      List.filter_map (Hashtbl.find_opt by_key) h.Middleware.merged_execution_order
    in
    let equiv =
      Ds_check.Equivalence.check_sharded ~shards ~shard_of:h.Middleware.shard_of
        ~reference:rte ~candidate ()
    in
    if not (Ds_check.Equivalence.is_equivalent equiv) then
      fail "merged delivery order is not conflict-equivalent to the rte"
  end;
  if stats.Middleware.committed_txns < wl.min_commits then
    fail
      (Printf.sprintf "%d commits, fewer than the %d the p95 needs"
         stats.Middleware.committed_txns wl.min_commits);
  (match (session, config.Middleware.journal_path) with
  | Some s, Some path ->
    if Session.divergences s <> 0 then fail "standby diverged from the primary";
    if Session.hash_checks s = 0 then fail "no standby checkpoint hash was compared";
    List.iter fail (recovery_failures path h.Middleware.lane_schedulers.(0))
  | _ -> ());
  (List.rev !failures, check_ms)

(* Host cost per layer, from an untraced run. *)
let host_layers pr wl (config : Middleware.config) session (stats : Middleware.stats)
    (h : Middleware.handle) ~wall ~gc_end ~check_ms =
  let lanes = h.Middleware.lane_schedulers in
  let cycles = Array.fold_left (fun acc l -> acc + Scheduler.cycles_run l) 0 lanes in
  let phase f =
    Array.fold_left (fun acc l -> acc +. f (Scheduler.cumulative_times l)) 0. lanes
  in
  let per_cycle s = 1000. *. s /. float_of_int (max 1 cycles) in
  let sched_share = phase Scheduler.total_time /. wall in
  let replica_share = (pr.pump_s +. pr.synced_s) /. wall in
  let shard_queries =
    Array.sub lanes 0 (min config.Middleware.shards (Array.length lanes))
    |> Array.map (fun l -> (Scheduler.cumulative_times l).Scheduler.query)
  in
  let warm_calls, warm_gc =
    match pr.warm with Some w -> w | None -> (Vec.length pr.query_s, gc_end)
  in
  let steady_cycles = float_of_int (max 1 (Vec.length pr.query_s - warm_calls)) in
  let query_ms = Array.map (fun s -> 1000. *. s) (Vec.to_array pr.query_s) in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  let durable =
    match (session, config.Middleware.journal_path) with
    | Some s, Some path ->
      let recoveries =
        List.init 3 (fun _ ->
            let t = clock () in
            let r = Journal.recover path in
            (1000. *. (clock () -. t), r.Journal.replayed))
      in
      [
        ( "journal.bytes_per_commit",
          "bytes",
          ratio
            (float_of_int (Unix.stat path).Unix.st_size)
            (float_of_int stats.Middleware.committed_txns) );
        ( "journal.lines_per_cycle",
          "count",
          ratio (float_of_int (count_lines path)) (float_of_int cycles) );
        ("journal.recover_ms", "ms", median (Array.of_list (List.map fst recoveries)));
        ("journal.recover_replayed", "count", float_of_int (snd (List.hd recoveries)));
        ("replica.pump_ms_per_vs", "ms/vs", 1000. *. pr.pump_s /. wl.duration);
        ("replica.pump_calls", "count", float_of_int pr.pump_calls);
        ("replica.share", "ratio", replica_share);
        ("replica.retransmits", "count", float_of_int (Session.retransmits s));
        ("replica.final_lag", "count", float_of_int (Session.lag s));
      ]
    | _ ->
      zeros
        [
          ("journal.bytes_per_commit", "bytes"); ("journal.lines_per_cycle", "count");
          ("journal.recover_ms", "ms"); ("journal.recover_replayed", "count");
          ("replica.pump_ms_per_vs", "ms/vs"); ("replica.pump_calls", "count");
          ("replica.share", "ratio"); ("replica.retransmits", "count");
          ("replica.final_lag", "count");
        ]
  in
  [
    ( "scheduler.drain_insert_ms_per_cycle",
      "ms",
      per_cycle (phase (fun p -> p.Scheduler.drain_insert)) );
    ("scheduler.query_ms_per_cycle", "ms", per_cycle (phase (fun p -> p.Scheduler.query)));
    ("scheduler.move_ms_per_cycle", "ms", per_cycle (phase (fun p -> p.Scheduler.move)));
    ("scheduler.share", "ratio", sched_share);
    ("protocol.query_ms_p50", "ms", percentile 0.5 query_ms);
    ("protocol.query_ms_p99", "ms", percentile 0.99 query_ms);
    ( "protocol.keys_per_call",
      "count",
      ratio (float_of_int pr.keys) (float_of_int (Array.length query_ms)) );
    ("setup.protocol_prepare_ms", "ms", 1000. *. pr.prepare_s);
    ("relal.index_ms_per_cycle", "ms", per_cycle pr.index_s);
    ("middleware.other_share", "ratio", 1. -. sched_share -. replica_share);
    ("shard.global_lane_txns", "count", float_of_int stats.Middleware.global_lane_txns);
    ("shard.deferrals", "count", float_of_int stats.Middleware.shard_deferrals);
    ( "shard.lane_query_imbalance",
      "ratio",
      ratio
        (Array.fold_left Float.max 0. shard_queries)
        (Array.fold_left ( +. ) 0. shard_queries
        /. float_of_int (Array.length shard_queries)) );
    ( "gc.minor_words_per_cycle",
      "words",
      (gc_end.Gc.minor_words -. warm_gc.Gc.minor_words) /. steady_cycles );
    ( "gc.major_words_per_cycle",
      "words",
      (gc_end.Gc.major_words -. warm_gc.Gc.major_words) /. steady_cycles );
    ("gc.top_heap_mb", "MB", mb gc_end.Gc.top_heap_words);
    ( "gc.heap_growth",
      "ratio",
      ratio (float_of_int gc_end.Gc.top_heap_words) (float_of_int warm_gc.Gc.top_heap_words)
    );
    ("check.serializability_ms", "ms", check_ms);
  ]
  @ durable
  @ sql_layers wl.config.Middleware.protocol lanes.(0)

(* The traced run must tell the same story as the middleware's counters. *)
let trace_failures wl events (config : Middleware.config) (stats : Middleware.stats)
    latencies =
  let mean =
    ratio (Array.fold_left ( +. ) 0. latencies) (float_of_int (Array.length latencies))
  in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some (wl.name ^ ": " ^ msg))
    [
      (Ds_obs.Span.validate events = Ok (), "trace failed span validation");
      ( (match config.Middleware.metrics with
        | Some m -> List.length (Ds_obs.Metrics.cycles m) = stats.Middleware.cycles
        | None -> true),
        "metrics sink saw a different number of cycles" );
      ( Array.length latencies = stats.Middleware.committed_txns,
        "trace commits differ from the middleware's commit count" );
      ( Float.abs (mean -. stats.Middleware.mean_txn_latency) <= 1e-9,
        "trace commit latencies differ from the middleware's mean" );
    ]

(* One run in this process: the untraced kind reports host cost per layer,
   the traced kind the program trace's virtual waits and exact commit
   latencies. Both report the virtual counters and the gate. *)
let run_unit ~seed ~traced wl =
  with_tmp_dir @@ fun dir ->
  let pr = probe ~traced wl in
  Ds_relal.Profile.set_section_observer
    (Some
       (fun label dt ->
         if label = "index-maintenance" then pr.index_s <- pr.index_s +. dt));
  let config, session = prepare ~dir ~seed ~traced pr wl in
  let t0 = clock () in
  let stats, h = Middleware.run_sharded config in
  let stop = clock () in
  let gc_end = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  Ds_relal.Profile.set_section_observer None;
  Option.iter Session.close session;
  let wall = stop -. t0 in
  let failures, check_ms = gate wl config session stats h in
  let latencies, layers, failures =
    if traced then begin
      let events = Trace.events pr.sink in
      let latencies, layers = trace_layers events ~duration:wl.duration ~stats in
      (latencies, layers, failures @ trace_failures wl events config stats latencies)
    end
    else
      ( [||],
        host_layers pr wl config session stats h ~wall ~gc_end ~check_ms,
        failures )
  in
  let cycles = Array.fold_left (fun acc l -> acc + Scheduler.cycles_run l) 0 h.Middleware.lane_schedulers in
  let sched_s =
    Array.fold_left
      (fun acc l -> acc +. Scheduler.total_time (Scheduler.cumulative_times l))
      0. h.Middleware.lane_schedulers
  in
  Json.Obj
    [
      ("wall_s", Json.Num wall);
      ("host_s_per_vs", Json.Num (host_s_per_vs pr ~duration:wl.duration ~stop));
      ("cycle_ms_mean", Json.Num (1000. *. sched_s /. float_of_int (max 1 cycles)));
      ("peak_rss_mb", Json.Num rss);
      ( "virtual",
        Json.Obj
          [
            ("committed_txns", int stats.Middleware.committed_txns);
            ("committed_stmts", int stats.Middleware.committed_stmts);
            ("aborted_txns", int stats.Middleware.aborted_txns);
            ( "given_up",
              int
                (stats.Middleware.dead_lettered + stats.Middleware.shed_txns
               + stats.Middleware.disconnects) );
            ("cycles", int stats.Middleware.cycles);
            ("mean_txn_latency", Json.Num stats.Middleware.mean_txn_latency);
            ("global_lane_txns", int stats.Middleware.global_lane_txns);
            ("shard_deferrals", int stats.Middleware.shard_deferrals);
            ("batches_dispatched", int stats.Middleware.batches_dispatched);
            ("checkpoints", int stats.Middleware.checkpoints);
            ("repl_watermark", int stats.Middleware.repl_watermark);
            ("rte_len", int (List.length h.Middleware.merged_rte));
          ] );
      ("latencies", Json.List (Array.to_list (Array.map (fun l -> Json.Num l) latencies)));
      ("layers", Json.Obj (List.map metric layers));
      ("failures", Json.List (List.map (fun s -> Json.Str s) failures));
    ]

(* ------------------------------------------------------------------ *)
(* One measurement: set-ups, traced and untraced runs                *)
(* ------------------------------------------------------------------ *)

let spawn ~quick ~seed ~traced wl =
  let exe = Sys.executable_name in
  let args =
    [ exe; "child"; "--workload"; wl.name; "--seed"; string_of_int seed ]
    @ (if traced then [ "--traced" ] else [])
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Json.of_string (String.trim out)
  | _ ->
    failwith
      (Printf.sprintf "%s: the %s run failed" wl.name
         (if traced then "traced" else "untraced"))

let num field j =
  match Option.bind (Json.mem field j) Json.num with
  | Some v -> v
  | None -> failwith ("child output lacks " ^ field)

let fields j =
  match j with Some (Json.Obj fs) -> fs | _ -> []

type measurement = {
  metrics : (string * string * float) list;  (** name, unit, value *)
  failures : string list;
  attempted : int;
  failed : int;
}

let setup_trials = 15

(* Input set [i] of seed [s] is middleware and link seed [100 s + i]. *)
let input_seeds ~seed wl = List.init wl.inputs (fun i -> (100 * seed) + i)

(* Median over runs of each per-layer metric the first run reports. *)
let layer_medians runs =
  let layers j =
    List.map
      (fun (name, m) ->
        (name, Option.value ~default:"" (Option.bind (Json.mem "unit" m) Json.str), num "value" m))
      (fields (Json.mem "layers" j))
  in
  List.map
    (fun (name, unit_, _) ->
      let value j =
        let _, _, v = List.find (fun (n, _, _) -> n = name) (layers j) in
        v
      in
      (name, unit_, median (Array.of_list (List.map value runs))))
    (layers (List.hd runs))

(* One traced run per input set supplies the exact latency quantiles and
   the virtual waits; client outcomes are pooled over the input sets.
   Untraced runs go round the input sets, each at least once, and go on
   until [seconds] have passed; host metrics are their medians. Every run
   of one input set must report the same virtual counters bit for bit. *)
let measure ~quick ~seed ~seconds wl =
  let seeds = input_seeds ~seed wl in
  let setup =
    median (Array.init setup_trials (fun _ -> setup_seconds ~seed:(List.hd seeds) wl))
  in
  let traced = List.map (fun s -> (s, spawn ~quick ~seed:s ~traced:true wl)) seeds in
  let t0 = clock () in
  let rec untraced k acc =
    let s = List.nth seeds (k mod wl.inputs) in
    let acc = (s, spawn ~quick ~seed:s ~traced:false wl) :: acc in
    if k + 1 < wl.inputs || clock () -. t0 < seconds then untraced (k + 1) acc
    else List.rev acc
  in
  let untraced = untraced 0 [] in
  let all = traced @ untraced in
  let virtual_ j = Json.to_string (Option.get (Json.mem "virtual" j)) in
  let identity =
    List.filter_map
      (fun (s, t) ->
        if List.for_all (fun (s', j) -> s' <> s || virtual_ j = virtual_ t) untraced then None
        else Some (Printf.sprintf "%s: virtual counters differ between runs of seed %d" wl.name s))
      traced
  in
  let failures =
    identity
    @ List.concat_map
        (fun (_, j) ->
          match Json.mem "failures" j with
          | Some (Json.List l) -> List.filter_map Json.str l
          | _ -> [])
        all
  in
  let traced = List.map snd traced and untraced = List.map snd untraced in
  let med runs field = median (Array.of_list (List.map (num field) runs)) in
  let total field =
    List.fold_left (fun acc j -> acc +. num field (Option.get (Json.mem "virtual" j))) 0. traced
  in
  let committed = total "committed_txns" and aborted = total "aborted_txns" in
  let latencies =
    Array.concat
      (List.map
         (fun j ->
           match Json.mem "latencies" j with
           | Some (Json.List l) -> Array.of_list (List.filter_map Json.num l)
           | _ -> [||])
         traced)
  in
  let end_to_end =
    [
      ("setup_s", "s", setup);
      ("host_s_per_vs", "s/vs", med untraced "host_s_per_vs");
      ("cycle_ms_mean", "ms", med untraced "cycle_ms_mean");
      ("peak_rss_mb", "MB", med untraced "peak_rss_mb");
      ("commit_tps", "txn/vs", committed /. (wl.duration *. float_of_int wl.inputs));
      ("commit_p50_s", "vs", percentile 0.5 latencies);
      ("commit_p95_s", "vs", percentile 0.95 latencies);
      ("abort_ratio", "fraction", ratio aborted (committed +. aborted));
    ]
  in
  {
    metrics =
      end_to_end @ layer_medians untraced @ layer_medians traced
      @ [ ("trace.overhead", "ratio", med traced "wall_s" /. med untraced "wall_s") ];
    failures;
    attempted = int_of_float (committed +. aborted);
    failed = int_of_float (total "given_up");
  }

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                     *)
(* ------------------------------------------------------------------ *)

type declared = { d_name : string; d_unit : string; better : string; bound : float }

let load_declared path =
  let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let group key =
    match Json.mem key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          let s k = Option.value ~default:"" (Option.bind (Json.mem k m) Json.str) in
          {
            d_name = s "name";
            d_unit = s "unit";
            better = s "better";
            bound = Option.value ~default:0. (Option.bind (Json.mem "bound" m) Json.num);
          })
        l
    | _ -> []
  in
  (group "end_to_end", group "per_layer")

(* Every declared metric must be emitted with its declared unit. *)
let declared_failures ~bench wl_name metrics =
  match bench with
  | None -> []
  | Some (e2e, per_layer) ->
    List.filter_map
      (fun d ->
        match List.find_opt (fun (n, _, _) -> n = d.d_name) metrics with
        | Some (_, u, _) when u = d.d_unit -> None
        | Some (_, u, _) ->
          Some (Printf.sprintf "%s: %s has unit %s, BENCHMARK.json says %s" wl_name d.d_name u d.d_unit)
        | None -> Some (Printf.sprintf "%s: %s is not emitted" wl_name d.d_name))
      (e2e @ per_layer)

let load_bench path = if Sys.file_exists path then Some (load_declared path) else None

(* ------------------------------------------------------------------ *)
(* Commands                                                           *)
(* ------------------------------------------------------------------ *)

let print_metrics metrics =
  List.iter (fun (n, u, v) -> Printf.printf "%-38s %14.6g %s\n" n v u) metrics

(* {workload: {metric: {unit, samples, median, q1, q3, n}}} *)
let summary_json samples =
  Json.Obj
    (List.map
       (fun (wl, metrics) ->
         ( wl,
           Json.Obj
             (List.map
                (fun (name, unit_, values) ->
                  let a = Array.of_list values in
                  let q1, m, q3 = quartiles a in
                  ( name,
                    Json.Obj
                      [
                        ("unit", Json.Str unit_);
                        ("samples", Json.List (List.map (fun v -> Json.Num v) values));
                        ("median", Json.Num m);
                        ("q1", Json.Num q1);
                        ("q3", Json.Num q3);
                        ("n", int (Array.length a));
                      ] ))
                metrics) ))
       samples)

let write_json ~path ~seed ~config payload =
  let stamped = Ds_dst.Stamp.add ~seed ~config payload in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string stamped);
      output_char oc '\n')

(* The driver's entry point: one workload, one seed. The last stdout line
   is the result object; --trace selects the end-to-end (0) or per-layer
   (1) metrics for it. *)
let run_one ~quick ~seed ~seconds ~trace ~json ~bench wl =
  let m = measure ~quick ~seed ~seconds wl in
  let failures = m.failures @ declared_failures ~bench wl.name m.metrics in
  List.iter prerr_endline failures;
  print_metrics m.metrics;
  Option.iter
    (fun path ->
      write_json ~path ~seed
        ~config:[ ("workload", Json.Str wl.name); ("quick", Json.Bool quick) ]
        (Json.Obj
           [
             ( "workloads",
               summary_json [ (wl.name, List.map (fun (n, u, v) -> (n, u, [ v ])) m.metrics) ] );
           ]))
    json;
  let selected =
    match bench with
    | Some (e2e, per_layer) ->
      let names = List.map (fun d -> d.d_name) (if trace then per_layer else e2e) in
      List.filter (fun (n, _, _) -> List.mem n names) m.metrics
    | None -> m.metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", int m.attempted);
            ("failed", int m.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, u, v) ->
                     (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   selected) );
          ]));
  if failures <> [] then exit 1

(* Round-robin: every workload once per repetition, interleaved, so host
   drift spreads over all workloads instead of landing on one. *)
let sweep ~quick ~seed ~seconds ~reps ~json ~bench wls =
  let samples = Hashtbl.create 64 and order = ref [] and failures = ref [] in
  for rep = 1 to reps do
    List.iter
      (fun wl ->
        Printf.eprintf "rep %d/%d %s\n%!" rep reps wl.name;
        let m = measure ~quick ~seed ~seconds wl in
        failures :=
          !failures @ m.failures @ declared_failures ~bench wl.name m.metrics;
        List.iter
          (fun (n, u, v) ->
            let key = (wl.name, n) in
            match Hashtbl.find_opt samples key with
            | Some (_, vs) -> Hashtbl.replace samples key (u, v :: vs)
            | None ->
              order := key :: !order;
              Hashtbl.add samples key (u, [ v ]))
          m.metrics)
      wls
  done;
  let per_workload =
    List.map
      (fun wl ->
        ( wl.name,
          List.filter_map
            (fun ((w, n) as key) ->
              if w <> wl.name then None
              else
                let u, vs = Hashtbl.find samples key in
                Some (n, u, List.rev vs))
            (List.rev !order) ))
      wls
  in
  List.iter
    (fun (w, metrics) ->
      Printf.printf "\n%s\n%-38s %14s %9s %3s %s\n" w "metric" "median" "IQR/med" "n" "unit";
      List.iter
        (fun (n, u, vs) ->
          let q1, m, q3 = quartiles (Array.of_list vs) in
          Printf.printf "%-38s %14.6g %8.1f%% %3d %s\n" n m
            (100. *. ratio (q3 -. q1) (Float.abs m))
            (List.length vs) u)
        metrics)
    per_workload;
  Option.iter
    (fun path ->
      write_json ~path ~seed
        ~config:
          [ ("reps", int reps); ("seconds", Json.Num seconds); ("quick", Json.Bool quick) ]
        (Json.Obj [ ("workloads", summary_json per_workload) ]))
    json;
  List.iter prerr_endline !failures;
  Printf.printf "\ncorrectness gate: %s\n" (if !failures = [] then "pass" else "FAIL");
  if !failures <> [] then exit 1

(* Verdict per workload and end-to-end metric: worse or better when the
   medians differ by more than the metric's bound, unresolved when either
   side's IQR is wider than the bound, unchanged otherwise. *)
let compare_files ~bench a b =
  let e2e = match bench with Some (e2e, _) -> e2e | None -> failwith "compare needs BENCHMARK.json" in
  let load path =
    let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
    fields (Json.mem "workloads" j)
  in
  let wa = load a and wb = load b in
  let worse = ref false in
  Printf.printf "%-18s %-16s %12s %12s %8s %s\n" "workload" "metric" "A median" "B median" "change" "verdict";
  List.iter
    (fun (w, ma) ->
      match List.assoc_opt w wb with
      | None -> ()
      | Some mb ->
        List.iter
          (fun d ->
            let stat side key =
              Option.bind (Json.mem d.d_name side) (Json.mem key) |> Fun.flip Option.bind Json.num
            in
            match (stat ma "median", stat mb "median") with
            | Some a_med, Some b_med ->
              let spread side =
                match (stat side "q1", stat side "q3") with
                | Some q1, Some q3 -> ratio (q3 -. q1) (Float.abs (stat side "median" |> Option.get))
                | _ -> 0.
              in
              let change = ratio (b_med -. a_med) (Float.abs a_med) in
              let worse_by = if d.better = "lower" then change else -.change in
              let verdict =
                if spread ma > d.bound || spread mb > d.bound then "unresolved"
                else if worse_by > d.bound then (worse := true; "worse")
                else if worse_by < -.d.bound then "better"
                else "unchanged"
              in
              Printf.printf "%-18s %-16s %12.6g %12.6g %+7.1f%% %s\n" w d.d_name a_med b_med
                (100. *. change) verdict
            | _ -> ())
          e2e)
    wa;
  if !worse then exit 1

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
   main.exe sweep [--workload NAME]... [--reps R] [--seed N] [--json FILE]\n\
   main.exe compare A.json B.json\n\
   options:"

let () =
  let argv = Sys.argv in
  let cmd, args =
    if Array.length argv > 1 && List.mem argv.(1) [ "child"; "sweep"; "compare" ] then
      (argv.(1), Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)))
    else ("run", argv)
  in
  let names = ref [] and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  let reps = ref 3 and quick = ref false and traced = ref false and json = ref None in
  let bench_path = ref "BENCHMARK.json" and files = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun w -> names := !names @ [ w ]), "NAME workload (repeatable in sweep)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42; holdout 7)");
      ("--seconds", Arg.Set_float seconds, "S time budget for repeating the untraced run");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--reps", Arg.Set_int reps, "R sweep repetitions (default 3)");
      ("--quick", Arg.Set quick, " tiny runs: a tenth of the clients, a third of the time");
      ("--traced", Arg.Set traced, " (child) run with the program's trace on");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write stamped results");
      ("--bench-json", Arg.Set_string bench_path, "FILE metric declarations (default BENCHMARK.json)");
    ]
  in
  (try Arg.parse_argv ~current:(ref 0) args spec (fun f -> files := !files @ [ f ]) usage with
  | Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2);
  let all = workloads ~quick:!quick in
  let find name =
    match List.find_opt (fun wl -> wl.name = name) all with
    | Some wl -> wl
    | None ->
      Printf.eprintf "unknown workload %s (known: %s)\n" name
        (String.concat ", " (List.map (fun wl -> wl.name) all));
      exit 2
  in
  let bench = load_bench !bench_path in
  match (cmd, !names, !files) with
  | "child", [ name ], [] ->
    print_endline (Json.to_string (run_unit ~seed:!seed ~traced:!traced (find name)))
  | "sweep", names, [] ->
    let wls = if names = [] then all else List.map find names in
    sweep ~quick:!quick ~seed:!seed ~seconds:(if !quick then 0. else !seconds)
      ~reps:!reps ~json:!json ~bench wls
  | "compare", [], [ a; b ] -> compare_files ~bench a b
  | "run", [ name ], [] when !trace = 0 || !trace = 1 ->
    run_one ~quick:!quick ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~json:!json
      ~bench (find name)
  | _ ->
    prerr_string (Arg.usage_string spec usage);
    exit 2
