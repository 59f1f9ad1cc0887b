open Ds_model

type formulation_run = {
  protocol : string;
  stats : Ds_core.Middleware.stats;
  rte : Request.t list;
  order : (int * int) list;
}

type ctx = {
  scenario : Scenario.t;
  stats : Ds_core.Middleware.stats;
  rte : Request.t list;
  merged : Request.t list;
  trace_events : Ds_obs.Trace.event list;
  recovered : Ds_core.Journal.recovered;
  pending_live : Request.t list;
  history_live : Request.t list;
  dead_live : Request.t list;
  shards : int;
  shard_of : int -> int option;
  repl_promoted : bool;
  repl_divergences : int;
  repl_failover : Ds_check.Equivalence.failover_report option;
  formulations : (formulation_run * formulation_run) option;
}

let sorted_keys rs =
  List.sort_uniq compare (List.map Request.key rs)

let check_serializability ctx =
  let report =
    Ds_check.Serializability.check_committed
      (Ds_check.Conflict_graph.events_of_requests ctx.rte)
  in
  if Ds_check.Serializability.is_clean report then Ok ()
  else
    Error (Format.asprintf "%a" Ds_check.Serializability.pp_report report)

(* A failover replaces the scheduler exactly like a crash does (the
   standby's recovered work is re-delivered), so promoted runs get the same
   relaxations as crashed ones. *)
let restarted ctx =
  ctx.scenario.Scenario.faults.Ds_core.Faults.crash_at_cycle <> None
  || ctx.stats.Ds_core.Middleware.failovers > 0

(* A crash restarts the merged delivery order with the rebuilt lanes, and
   recovered work is re-delivered
   as if newly admitted. Conflicting pairs that span the crash can therefore
   legitimately reorder against the surviving rte log, so for crash scenarios
   the ordering clause is checked per incarnation only (vacuously here) while
   the set-level clauses — no duplicate deliveries, no deliveries the
   scheduler never admitted — still hold unconditionally. *)
let check_equivalence ctx =
  let report =
    if ctx.shards > 1 then
      Ds_check.Equivalence.check_sharded ~shards:ctx.shards
        ~shard_of:ctx.shard_of ~reference:ctx.rte ~candidate:ctx.merged ()
    else Ds_check.Equivalence.check ~reference:ctx.rte ~candidate:ctx.merged ()
  in
  let crashed = restarted ctx in
  let fatal =
    List.filter
      (fun v ->
        match v with
        | Ds_check.Equivalence.Conflict_reordered _ -> not crashed
        | Ds_check.Equivalence.Unknown_request _
        | Ds_check.Equivalence.Duplicate_delivery _
        (* router soundness never relaxes: a conflict split across shard
           lanes is a bug whether or not the run crashed *)
        | Ds_check.Equivalence.Cross_shard_conflict _ -> true)
      report.Ds_check.Equivalence.violations
  in
  if fatal = [] then Ok ()
  else
    Error
      (Format.asprintf "%a" Ds_check.Equivalence.pp_report
         { report with Ds_check.Equivalence.violations = fatal })

(* Index and rendering of the first position where two lists differ. *)
let first_difference show xs ys =
  let rec go i = function
    | x :: xs, y :: ys when x = y -> go (i + 1) (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "entry %d: %s vs %s" i (show x) (show y)
    | x :: _, [] -> Printf.sprintf "entry %d: %s vs end" i (show x)
    | [], y :: _ -> Printf.sprintf "entry %d: end vs %s" i (show y)
    | [], [] -> "equal"
  in
  go 0 (xs, ys)

let rec is_subsequence xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    if x = y then is_subsequence xs' ys' else is_subsequence xs ys'

(* The scheduler admits a commit request exactly when rte executes it, so
   the commit-op TAs of the [Sched_admit] events are the rte log's. A crash
   or failover loses unflushed admissions from the log and re-admits
   recovered work, so there the log need only be a subsequence. *)
let check_trace ctx =
  match Ds_obs.Span.validate ctx.trace_events with
  | Error _ as e -> e
  | Ok () ->
    let traced =
      List.filter_map
        (fun (e : Ds_obs.Trace.event) ->
          if e.Ds_obs.Trace.kind = Ds_obs.Trace.Sched_admit && e.op = 'c' then
            Some e.Ds_obs.Trace.ta
          else None)
        ctx.trace_events
    in
    let logged =
      List.filter_map
        (fun (r : Request.t) ->
          if Op.equal r.Request.op Op.Commit then Some r.Request.ta else None)
        ctx.rte
    in
    if restarted ctx then
      if is_subsequence logged traced then Ok ()
      else
        Error
          (Printf.sprintf
             "rte's %d commits are not a subsequence of the trace's %d"
             (List.length logged) (List.length traced))
    else if logged = traced then Ok ()
    else
      Error
        ("rte commit order differs from the trace's at "
        ^ first_difference string_of_int logged traced)

(* The journal must replay into exactly the state the scheduler is left
   holding. Dead letters are durable facts (never pruned), so the sets must
   coincide. Pending and history are compared by containment: the replay
   additionally holds queue-resident submissions the scheduler never drained
   (pending) and already-pruned rows of finished transactions (history) —
   both journalled facts the live tables legitimately dropped. *)
let check_recovery ctx =
  let r = ctx.recovered in
  let subset ~what smaller larger =
    let keys = Hashtbl.create (2 * List.length larger) in
    List.iter (fun k -> Hashtbl.replace keys k ()) (List.map Request.key larger);
    match
      List.find_opt
        (fun req -> not (Hashtbl.mem keys (Request.key req)))
        smaller
    with
    | None -> Ok ()
    | Some req ->
      Error
        (Printf.sprintf "%s row %s missing from the journal replay" what
           (Request.to_string req))
  in
  if r.Ds_core.Journal.corrupt_dropped > 0 then
    Error
      (Printf.sprintf "journal dropped %d corrupt line(s) after a clean close"
         r.Ds_core.Journal.corrupt_dropped)
  else if
    sorted_keys r.Ds_core.Journal.dead <> sorted_keys ctx.dead_live
  then Error "recovered dead-letter set differs from the dead relation"
  else
    match subset ~what:"pending" ctx.pending_live r.Ds_core.Journal.pending with
    | Error _ as e -> e
    | Ok () ->
      (* Abort markers live in history only as synthetic rows; the journal
         records them as 'A' lines, not 'Q' lines. *)
      let data_history =
        List.filter (fun req -> not (Request.is_abort_marker req)) ctx.history_live
      in
      subset ~what:"history" data_history r.Ds_core.Journal.history

let check_dead_letter ctx =
  let s = ctx.stats in
  let n_dead = List.length ctx.dead_live in
  (* An async failover may lose pre-crash dead-letter records above the
     replication watermark, so a promoted run's dead relation is allowed to
     undershoot the counter — never to exceed it. *)
  let dead_mismatch =
    if ctx.repl_promoted then n_dead > s.Ds_core.Middleware.dead_lettered
    else n_dead <> s.Ds_core.Middleware.dead_lettered
  in
  if dead_mismatch then
    Error
      (Printf.sprintf "dead relation has %d rows but dead_lettered=%d" n_dead
         s.Ds_core.Middleware.dead_lettered)
  else if
    s.Ds_core.Middleware.aborted_txns
    < s.Ds_core.Middleware.dead_lettered + s.Ds_core.Middleware.shed_txns
      + s.Ds_core.Middleware.disconnects
  then
    Error
      (Printf.sprintf
         "abort accounting: aborted=%d < dead=%d + shed=%d + disconnects=%d"
         s.Ds_core.Middleware.aborted_txns s.Ds_core.Middleware.dead_lettered
         s.Ds_core.Middleware.shed_txns s.Ds_core.Middleware.disconnects)
  else Ok ()

(* Whether whole transactions fit in the virtual window is a workload-length
   property (hotspot contention with long transactions legitimately commits
   nothing in a short run); a wedged scheduler shows up as an empty execution
   log. *)
let check_progress ctx =
  if ctx.stats.Ds_core.Middleware.committed_txns > 0 || ctx.rte <> [] then
    Ok ()
  else Error "scheduler executed nothing (empty rte log, no commits)"

(* Replication verdicts. A checkpoint-hash divergence between the primary
   and standby mirrors is a bug in any replicated run. After a promotion,
   {!Ds_check.Equivalence.check_failover} has already classified every
   client-acked transaction: loss at or below the watermark is always a bug,
   loss above it only in sync mode (async's documented loss window). *)
let check_failover ctx =
  if ctx.scenario.Scenario.repl = None then Ok ()
  else if ctx.repl_divergences > 0 then
    Error
      (Printf.sprintf
         "%d checkpoint-hash divergence(s) between primary and standby"
         ctx.repl_divergences)
  else
    match ctx.repl_failover with
    | None -> Ok ()
    | Some r ->
      if Ds_check.Equivalence.failover_ok r then Ok ()
      else
        Error (Format.asprintf "%a" Ds_check.Equivalence.pp_failover_report r)

let same_formulation (a : formulation_run) (b : formulation_run) =
  let differ what detail =
    Error
      (Printf.sprintf "%s and %s: %s differ%s" a.protocol b.protocol what
         detail)
  in
  let open Ds_core.Middleware in
  let sa = without_host_time a.stats and sb = without_host_time b.stats in
  (* [compare], not [=]: a run that commits nothing has NaN latencies *)
  if compare sa sb <> 0 then
    differ "stats"
      (Printf.sprintf " (committed %d vs %d, aborted %d vs %d, cycles %d vs %d)"
         sa.committed_txns sb.committed_txns sa.aborted_txns sb.aborted_txns
         sa.cycles sb.cycles)
  else if a.rte <> b.rte then
    differ "rte logs" (" at " ^ first_difference Request.to_string a.rte b.rte)
  else if a.order <> b.order then
    differ "delivery orders"
      (" at "
      ^ first_difference
          (fun (ta, i) -> Printf.sprintf "(%d,%d)" ta i)
          a.order b.order)
  else Ok ()

let check_formulation ctx =
  match ctx.formulations with
  | None -> Ok ()
  | Some (a, b) -> same_formulation a b

let battery =
  [
    ("serializability", check_serializability);
    ("conflict-equivalence", check_equivalence);
    ("trace-wellformed", check_trace);
    ("recovery-identity", check_recovery);
    ("dead-letter", check_dead_letter);
    ("failover", check_failover);
    ("progress", check_progress);
    ("formulation-equivalence", check_formulation);
  ]

let names = List.map fst battery

let apply ctx = List.map (fun (name, check) -> (name, check ctx)) battery
