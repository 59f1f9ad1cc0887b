(* dsched — command-line front end for the declarative scheduler.

     dsched protocols                 list built-in protocols
     dsched table1                    print the related-work matrix
     dsched sql -e "SELECT ..."       run SQL against the scheduler relations
     dsched demo                      single-cycle walk-through
     dsched run --protocol ss2pl-sql --clients 50 --duration 5
     dsched native --clients 300 --window 24
     dsched rules FILE                compile a rule-language protocol and
                                      show what it qualifies on a demo batch
*)

open Ds_core
open Ds_model
open Cmdliner

let protocols_cmd =
  let doc = "List the built-in scheduling protocols." in
  let run () =
    List.iter
      (fun (p : Protocol.t) ->
        Format.printf "%-24s %a@." p.Protocol.name Protocol.pp p)
      Builtin.all
  in
  Cmd.v (Cmd.info "protocols" ~doc) Term.(const run $ const ())

let table1_cmd =
  let doc = "Print the paper's Table 1 (related approaches)." in
  let run () = print_string (Related.render_table ()) in
  Cmd.v (Cmd.info "table1" ~doc) Term.(const run $ const ())

let sql_cmd =
  let doc =
    "Run SQL statements against a fresh scheduler database (tables: requests, \
     history, rte, dead; each with the columns id, ta, intrata, operation, \
     object, sla, weight, arrival)."
  in
  let stmt =
    Arg.(
      required
      & opt (some string) None
      & info [ "e"; "execute" ] ~docv:"SQL" ~doc:"Statement(s), ';'-separated.")
  in
  let run stmt =
    let rels = Relations.create () in
    match Ds_sql.Exec.exec_script rels.Relations.catalog stmt with
    | Ds_sql.Exec.Rows (schema, rows) ->
      print_string (Ds_sql.Exec.render schema rows)
    | Ds_sql.Exec.Affected n -> Printf.printf "%d row(s)\n" n
    | Ds_sql.Exec.Done -> print_endline "ok"
    | exception Ds_sql.Exec.Exec_error m -> Printf.eprintf "error: %s\n" m
    | exception Ds_sql.Compile.Compile_error m ->
      Printf.eprintf "compile error: %s\n" m
    | exception Ds_sql.Parser.Parse_error (m, pos) ->
      Printf.eprintf "parse error at %d: %s\n" pos m
  in
  Cmd.v (Cmd.info "sql" ~doc) Term.(const run $ stmt)

let demo_cmd =
  let doc = "Walk through one scheduler cycle on a small conflicting batch." in
  let run () =
    let sched = Scheduler.create Builtin.ss2pl_sql in
    let batch =
      [
        Request.v 1 1 Op.Read 10;
        Request.v 2 1 Op.Write 10;
        Request.v 2 2 Op.Read 20;
        Request.v 3 1 Op.Write 30;
        Request.terminal 4 1 Op.Commit;
      ]
    in
    Printf.printf "Incoming queue:\n";
    List.iter (fun r -> Printf.printf "  %s\n" (Request.to_string r)) batch;
    List.iter (Scheduler.submit sched) batch;
    let qualified, stats = Scheduler.cycle sched in
    Printf.printf
      "\nCycle: drained=%d qualified=%d (query %.2f ms)\nExecutable now:\n"
      stats.Scheduler.drained stats.Scheduler.qualified
      (1000. *. stats.Scheduler.times.Scheduler.query);
    List.iter (fun r -> Printf.printf "  %s\n" (Request.to_string r)) qualified;
    Printf.printf
      "\n(w2[x10] waits: T1 read-locked object 10 in the same batch.)\n"
  in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ const ())

(* Strict positive-integer converter: [--workers 0], [--workers -2] or
   [--workers four] all die at parse time with a message naming the flag,
   instead of whatever int_of_string + downstream code would do mid-run. *)
let int_conv what =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be positive, got %d" what n))
    | None ->
      Error (`Msg (Printf.sprintf "%s must be a positive integer, got '%s'" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let protocol_arg =
  let conv_protocol =
    let parse name =
      match Builtin.find name with
      | Some p -> Ok p
      | None ->
        Error (`Msg (Printf.sprintf "unknown protocol %s (see 'dsched protocols')" name))
    in
    Arg.conv (parse, fun ppf (p : Protocol.t) -> Format.fprintf ppf "%s" p.Protocol.name)
  in
  Arg.(
    value
    & opt conv_protocol Builtin.ss2pl_sql
    & info [ "protocol" ] ~docv:"NAME" ~doc:"Scheduling protocol (see 'dsched protocols').")

(* A [key=value,...] plan option, parsed, printed and listed in the help
   from the plan's table. *)
let plan_arg codec name doc =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Ds_util.Kv.of_string codec s)
  in
  Arg.(
    value
    & opt (conv (parse, Ds_util.Kv.pp codec)) codec.Ds_util.Kv.none
    & info [ name ] ~docv:"SPEC" ~doc:(doc ^ " " ^ Ds_util.Kv.help codec))

let run_cmd =
  let doc = "Run the end-to-end middleware simulation (Figure 1)." in
  let clients =
    Arg.(value & opt (int_conv "--clients") 50 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let duration =
    Arg.(value & opt float 5. & info [ "duration" ] ~doc:"Virtual seconds.")
  in
  let objects =
    Arg.(
      value
      & opt (int_conv "--objects") 20_000
      & info [ "objects" ] ~doc:"Database objects.")
  in
  let workers =
    Arg.(
      value
      & opt (int_conv "--workers") 1
      & info [ "workers" ] ~docv:"K"
          ~doc:
            "Simulated worker backends. With $(docv) > 1 each admitted batch \
             is split into conflict classes executed as overlapping spans. \
             Each exec_start trace event carries its worker id in $(b,arg): \
             with $(b,--trace) F, $(b,dsched trace) F $(b,--sql) queries the \
             placement.")
  in
  let shards =
    Arg.(
      value
      & opt (int_conv "--shards") 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Scheduler shards. With $(docv) > 1 transactions are routed by \
             object-group footprint to $(docv) independent scheduler lanes \
             plus a barrier-fenced global lane for multi-group work; each \
             routing decision is a shard_route event in the --trace output \
             and --journal becomes a segment directory (one journal per \
             lane, merged on recovery).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let log_rte =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-rte" ] ~docv:"FILE"
          ~doc:
            "Save the rte execution log as a trace CSV (validate it with \
             'dsched check FILE').")
  in
  let faults =
    plan_arg Faults.codec "faults"
      "Fault plan: comma-separated $(i,key)=$(i,value) pairs, or $(b,none). \
       A non-empty plan sets the client contract: clients redo aborted \
       transactions, a batch attempt times out after 0.25 s, and a request \
       is dead-lettered after 3 retries. It also implies deterministic \
       scheduling (scheduler wall-time not charged). For the paper's \
       non-scheduling mode use $(b,--protocol fcfs)."
  in
  let standby =
    Arg.(
      value
      & opt (some string) None
      & info [ "standby" ] ~docv:"DIR"
          ~doc:
            "Replicate the journal to a hot standby rooted at $(docv) \
             (needs --journal): every record of the log is streamed over a \
             simulated link into $(docv)/standby.journal. Checkpoint blocks \
             do not travel: the standby writes its own from its replayed \
             state and checks the block's first line and state hash against \
             the primary's, so its file stays a byte-prefix of the \
             primary's. A primary crash in $(b,--faults) fails over to it \
             mid-run; otherwise promote it later with 'dsched failover \
             $(docv)'.")
  in
  let repl_faults =
    plan_arg Ds_replica.Link.codec "repl-faults"
      "Replication-link fault plan: comma-separated $(i,key)=$(i,value) \
       pairs, or $(b,none). Records caught in an outage are held and \
       delivered at heal time — after a failover they arrive with a stale \
       epoch and are fenced."
  in
  let repl_mode =
    let conv_mode =
      let parse s =
        match Ds_replica.Session.mode_of_string (String.trim s) with
        | Some m -> Ok m
        | None -> Error (`Msg (Printf.sprintf "repl-mode must be async or sync, got '%s'" s))
      in
      Arg.conv
        (parse, fun ppf m ->
          Format.pp_print_string ppf (Ds_replica.Session.mode_to_string m))
    in
    Arg.(
      value
      & opt conv_mode Ds_replica.Session.Async
      & info [ "repl-mode" ] ~docv:"MODE"
          ~doc:
            "$(b,async) (default): commit acks return immediately, a \
             failover may lose up to the replication lag. $(b,sync): commit \
             acks are held until the transaction's journal records are at or \
             below the standby watermark — zero acked-transaction loss \
             across failover.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some (int_conv "--checkpoint")) None
      & info [ "checkpoint" ] ~docv:"N"
          ~doc:
            "Checkpoint the journal at most every $(docv) cycles: on a \
             multiple of $(docv), once the records written since the last \
             checkpoint add up to its size; recovery then replays only the \
             suffix since the last snapshot (needs --journal or a crash \
             fault).")
  in
  let hedge =
    Arg.(
      value & flag
      & info [ "hedge" ]
          ~doc:
            "Race a duplicate of an overdue conflict class on a surviving \
             worker (deliveries deduplicated first-wins).")
  in
  let queue_cap =
    Arg.(
      value
      & opt (some (int_conv "--queue-cap")) None
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bound the incoming queue: shed the least urgent request for a \
             more urgent arrival, push back otherwise.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal (inspect with 'dsched recover FILE'). Each \
             run starts it afresh, overwriting a journal (or, with \
             $(b,--shards) > 1, the segments of a directory) already at \
             FILE. A crash fault without one uses a temp file.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a request-lifecycle trace and save it ($(b,*.jsonl) = \
             JSONL, anything else = Chrome trace_event JSON loadable in \
             chrome://tracing). Analyze with 'dsched trace FILE'.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print per-SLA-tier latency quantiles (p50/p95/p99) and \
             per-cycle scheduler metrics after the run.")
  in
  let run protocol clients duration objects workers shards seed log_rte faults
      queue_cap journal checkpoint hedge trace_out metrics standby repl_faults
      repl_mode =
    let faulty = not (Faults.is_none faults) in
    let sink = Option.map (fun _ -> Ds_obs.Trace.create ()) trace_out in
    let mets = if metrics then Some (Ds_obs.Metrics.create ()) else None in
    (match standby with
    | None ->
      if not (Ds_replica.Link.is_none repl_faults) then begin
        prerr_endline "run: --repl-faults needs --standby";
        exit 2
      end
    | Some _ when journal = None ->
      prerr_endline "run: --standby needs --journal (there is nothing to replicate)";
      exit 2
    | Some _ -> ());
    let cfg =
      {
        Middleware.default_config with
        Middleware.n_clients = clients;
        duration;
        workers;
        shards;
        seed;
        protocol;
        spec =
          { Ds_workload.Spec.paper_default with Ds_workload.Spec.n_objects = objects };
        faults;
        queue_capacity = queue_cap;
        journal_path = journal;
        checkpoint_interval = checkpoint;
        hedging = hedge;
        trace = sink;
        metrics = mets;
        (* Wall-clock cycle charging is non-deterministic; fault runs must
           reproduce exactly from the seed. *)
        charge_scheduler_time =
          (if faulty then false
           else Middleware.default_config.Middleware.charge_scheduler_time);
      }
    in
    (* The middleware's rules, checked before the standby directory is
       made, so a refused combination leaves nothing behind. *)
    (match Middleware.validate ~replicated:(standby <> None) cfg with
    | Ok () -> ()
    | Error m ->
      prerr_endline ("run: " ^ m);
      exit 2);
    let session =
      Option.map
        (fun dir ->
          Ds_replica.Session.create ~mode:repl_mode ~plan:repl_faults ~seed
            ?trace:sink ~dir ())
        standby
    in
    let cfg = { cfg with Middleware.repl = Option.map Ds_replica.Session.hooks session } in
    if faulty then
      Format.printf "fault plan: %a (seed %d)@." Faults.pp_plan faults seed;
    let s, h = Middleware.run_sharded cfg in
    Format.printf "%a@." Middleware.pp_stats s;
    Option.iter
      (fun sess ->
        Ds_replica.Session.close sess;
        Format.printf
          "standby %s: mode=%s epoch=%d primary_lsn=%d watermark=%d lag=%d \
           retransmits=%d stale=%d fenced=%d hash_checks=%d divergences=%d%s@."
          (Ds_replica.Session.dir sess)
          (Ds_replica.Session.mode_to_string (Ds_replica.Session.mode sess))
          (Ds_replica.Session.epoch sess)
          (Ds_replica.Session.primary_lsn sess)
          (Ds_replica.Session.watermark sess)
          (Ds_replica.Session.lag sess)
          (Ds_replica.Session.retransmits sess)
          (Ds_replica.Session.stale_deliveries sess)
          (Ds_replica.Session.fenced sess)
          (Ds_replica.Session.hash_checks sess)
          (Ds_replica.Session.divergences sess)
          (if Ds_replica.Session.promoted sess then " (promoted)" else ""))
      session;
    List.iter
      (fun (tier, mean, p95, n) ->
        Format.printf "  %-8s n=%d latency mean=%.3fs p95=%.3fs@."
          (Sla.tier_to_string tier) n mean p95)
      s.Middleware.latency_by_tier;
    let dead =
      List.concat_map
        (fun sched -> Relations.dead_requests (Scheduler.relations sched))
        (Array.to_list h.Middleware.lane_schedulers)
    in
    if dead <> [] then begin
      Format.printf "dead-letter relation (%d):@." (List.length dead);
      List.iter (fun r -> Format.printf "  %s@." (Request.to_string r)) dead
    end;
    Option.iter
      (fun m -> print_string (Ds_obs.Metrics.render m))
      mets;
    (match (trace_out, sink) with
    | Some file, Some tr ->
      let events = Ds_obs.Trace.events tr in
      Ds_obs.Export.save file events;
      Printf.printf "lifecycle trace (%d events) written to %s\n"
        (List.length events) file
    | _ -> ());
    match log_rte with
    | None -> ()
    | Some file ->
      (* At S=1 this is exactly the single lane's rte log; at S>1 the
         admission-stamped merge across lanes, so 'dsched check FILE' sees
         one globally ordered schedule. *)
      let log = h.Middleware.merged_rte in
      Ds_workload.Trace.save file log;
      Printf.printf "rte execution log (%d requests) written to %s\n"
        (List.length log) file
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ protocol_arg $ clients $ duration $ objects $ workers
      $ shards $ seed $ log_rte $ faults $ queue_cap $ journal $ checkpoint
      $ hedge $ trace_out $ metrics $ standby $ repl_faults $ repl_mode)

let native_cmd =
  let doc = "Run the native (lock-based) scheduler experiment (4.2)." in
  let clients = Arg.(value & opt int 300 & info [ "clients" ] ~doc:"Concurrent clients.") in
  let window =
    Arg.(value & opt float 24. & info [ "window" ] ~doc:"Virtual window (paper: 240).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let run clients window seed =
    let s =
      Ds_server.Native_sim.run
        {
          Ds_server.Native_sim.default_config with
          Ds_server.Native_sim.n_clients = clients;
          duration = window;
          seed;
          log_schedule = true;
        }
    in
    Format.printf "%a@." Ds_server.Native_sim.pp_stats s;
    let su =
      Ds_server.Replay.single_user_time Ds_server.Cost_model.default
        s.Ds_server.Native_sim.schedule
    in
    Format.printf "single-user replay: %.1fs  MU/SU = %.0f%%@." su
      (100. *. window /. su)
  in
  Cmd.v (Cmd.info "native" ~doc) Term.(const run $ clients $ window $ seed)

let rules_cmd =
  let doc = "Compile a rule-language protocol file and run it on a demo batch." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Protocol definition.")
  in
  let run file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    match Rule_lang.compile src with
    | proto ->
      Format.printf "compiled: %a@." Protocol.pp proto;
      let sched = Scheduler.create proto in
      let mk sla ta obj =
        Request.make ~sla ~arrival:(float_of_int ta) ~id:ta ~ta ~intrata:1
          ~op:Op.Read ~obj ()
      in
      List.iter (Scheduler.submit sched)
        [ mk Sla.free 1 10; mk Sla.premium 2 20; mk Sla.standard 3 30 ];
      let qualified, _ = Scheduler.cycle sched in
      Format.printf "demo batch qualified order:@.";
      List.iter
        (fun r -> Format.printf "  %s (%s)@." (Request.to_string r)
            (Sla.tier_to_string r.Request.sla.Sla.tier))
        qualified
    | exception Rule_lang.Rule_error m -> Printf.eprintf "rule error: %s\n" m
  in
  Cmd.v (Cmd.info "rules" ~doc) Term.(const run $ file)

let trace_gen_cmd =
  let doc =
    "Generate a request trace (CSV): the paper's 'pre-scheduled workload'."
  in
  let out =
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let txns = Arg.(value & opt int 20 & info [ "txns" ] ~doc:"Transactions to generate.") in
  let objects = Arg.(value & opt int 1000 & info [ "objects" ] ~doc:"Database objects.") in
  let stmts = Arg.(value & opt int 4 & info [ "stmts" ] ~doc:"SELECTs and UPDATEs per transaction (each).") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let run out txns objects stmts seed =
    let spec =
      {
        Ds_workload.Spec.paper_default with
        Ds_workload.Spec.n_objects = objects;
        selects_per_txn = stmts;
        updates_per_txn = stmts;
      }
    in
    let gen = Ds_workload.Generator.create spec (Ds_sim.Rng.create seed) in
    let txn_list = Ds_workload.Generator.txns gen ~first_ta:1 txns in
    let stream = Ds_workload.Generator.interleave txn_list in
    Ds_workload.Trace.save out stream;
    Printf.printf "wrote %d requests (%d transactions) to %s\n"
      (List.length stream) txns out
  in
  Cmd.v (Cmd.info "trace-gen" ~doc)
    Term.(const run $ out $ txns $ objects $ stmts $ seed)

let qualify_cmd =
  let doc =
    "Schedule a recorded trace: run scheduler cycles until the trace drains, \
     printing the qualified execution order."
  in
  let trace =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace CSV (see trace-gen).")
  in
  let batch =
    Arg.(value & opt int 50 & info [ "batch" ] ~doc:"Requests drained per cycle.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the summary.") in
  let run protocol trace batch quiet =
    let requests = Ds_workload.Trace.load trace in
    let sched = Scheduler.create protocol in
    let remaining = ref requests in
    let order = ref 0 in
    let cycles = ref 0 in
    let spin = ref 0 in
    (* Feed [batch] requests per cycle; requeue nothing (unqualified requests
       stay pending and retry automatically); stop when drained or stuck. *)
    while (!remaining <> [] || Scheduler.pending_count sched > 0) && !spin < 1000 do
      let rec feed k =
        if k > 0 then
          match !remaining with
          | [] -> ()
          | r :: rest ->
            Scheduler.submit sched r;
            remaining := rest;
            feed (k - 1)
      in
      feed batch;
      incr cycles;
      let qualified, _ = Scheduler.cycle sched in
      if qualified = [] then incr spin else spin := 0;
      List.iter
        (fun r ->
          incr order;
          if not quiet then
            Printf.printf "%4d  %s\n" !order (Request.to_string r))
        qualified
    done;
    let stuck = Scheduler.pending_count sched in
    Printf.printf "# %d executed in %d cycles under %s%s\n" !order !cycles
      protocol.Protocol.name
      (if stuck > 0 then
         Printf.sprintf " (%d requests permanently blocked)" stuck
       else "")
  in
  Cmd.v (Cmd.info "qualify" ~doc)
    Term.(const run $ protocol_arg $ trace $ batch $ quiet)

let check_cmd =
  let doc =
    "Validate a logged schedule (serializability, strictness, rigor, commit \
     order)."
  in
  let trace =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Execution log to validate (CSV in request-trace format; produce \
             one with 'dsched run --log-rte FILE').")
  in
  let run file =
    let log = Ds_workload.Trace.load file in
    let events = Ds_check.Conflict_graph.events_of_requests log in
    let report = Ds_check.Serializability.check_committed events in
    Format.printf "%s: %a@." file Ds_check.Serializability.pp_report report;
    if not (Ds_check.Serializability.is_clean report) then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ trace)

let trace_view_cmd =
  let doc =
    "Analyze a recorded request-lifecycle trace (produced by 'dsched run \
     --trace FILE'): validate span trees, print per-SLA-tier latency \
     quantiles and the top lock-wait offenders; optionally dump one \
     transaction's span tree or query the trace with SQL."
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace file (JSONL or Chrome trace_event).")
  in
  let ta =
    Arg.(
      value
      & opt (some int) None
      & info [ "ta" ] ~docv:"TA" ~doc:"Dump this transaction's span tree.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Lock-wait offenders to show.")
  in
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"SQL"
          ~doc:
            "Run SQL against the trace loaded as a $(b,traces) relation \
             (columns: at, ta, seq, kind, op, obj, arg, tier).")
  in
  let run file ta top sql =
    let events = Ds_obs.Export.load file in
    (match Ds_obs.Span.validate events with
    | Ok () -> ()
    | Error m ->
      Printf.eprintf "%s: INVALID trace: %s\n" file m;
      exit 1);
    let trees = Ds_obs.Span.build events in
    let terminated =
      List.length
        (List.filter
           (fun (t : Ds_obs.Span.tree) -> t.Ds_obs.Span.terminal <> None)
           trees)
    in
    Printf.printf "%s: %d events, %d transactions (%d terminated), valid\n"
      file (List.length events) (List.length trees) terminated;
    print_string
      (Ds_obs.Metrics.render_latency_rows (Ds_obs.Metrics.latency_rows events));
    (match Ds_obs.Metrics.lock_wait_offenders ~top events with
    | [] -> ()
    | offenders ->
      Printf.printf "top lock-wait objects:\n";
      List.iter
        (fun (obj, total, n) ->
          Printf.printf "  obj %-8d total wait %10.6fs over %d wait(s)\n" obj
            total n)
        offenders);
    (match ta with
    | None -> ()
    | Some ta -> (
      match
        List.find_opt
          (fun (t : Ds_obs.Span.tree) -> t.Ds_obs.Span.ta = ta)
          trees
      with
      | Some tree -> print_string (Ds_obs.Span.render tree)
      | None -> Printf.printf "ta %d: no events in this trace\n" ta));
    match sql with
    | None -> ()
    | Some stmt -> (
      let catalog = Ds_sql.Catalog.create () in
      Ds_sql.Catalog.register catalog (Ds_obs.Export.to_table events);
      match Ds_sql.Exec.exec_script catalog stmt with
      | Ds_sql.Exec.Rows (schema, rows) ->
        print_string (Ds_sql.Exec.render schema rows)
      | Ds_sql.Exec.Affected n -> Printf.printf "%d row(s)\n" n
      | Ds_sql.Exec.Done -> print_endline "ok"
      | exception Ds_sql.Exec.Exec_error m -> Printf.eprintf "error: %s\n" m
      | exception Ds_sql.Compile.Compile_error m ->
        Printf.eprintf "compile error: %s\n" m
      | exception Ds_sql.Parser.Parse_error (m, pos) ->
        Printf.eprintf "parse error at %d: %s\n" pos m)
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ file $ ta $ top $ sql)

let swarm_cmd =
  let doc =
    "Deterministic simulation swarm: run N generated scenarios through the \
     real middleware/scheduler/worker-pool/journal stack, check the full \
     invariant battery on each, shrink any failure to a minimal repro and \
     emit a JSON report. The same --n/--seed always produces a \
     byte-identical report; failures print a '--replay' token that \
     reproduces them bit-for-bit."
  in
  let n =
    Arg.(
      value
      & opt (int_conv "-n") 50
      & info [ "n"; "scenarios" ] ~docv:"N" ~doc:"Scenarios to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Sweep base seed.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the JSON report here (default: stdout).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SEED-OR-FILE"
          ~doc:
            "Replay one scenario instead of sweeping: a scenario seed from a \
             report, or a JSON scenario file (the report's 'scenario' \
             object).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let max_shrink_runs =
    Arg.(
      value
      & opt (int_conv "--max-shrink-runs") 120
      & info [ "max-shrink-runs" ] ~docv:"N"
          ~doc:"Re-executions the shrinker may spend per failure.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Print per-scenario progress on stderr.")
  in
  let run n seed out replay no_shrink max_shrink_runs verbose =
    let shrink = not no_shrink in
    let emit json =
      let text = Ds_obs.Json.to_string json in
      match out with
      | None -> print_endline text
      | Some file ->
        let oc = open_out file in
        output_string oc text;
        output_char oc '\n';
        close_out oc
    in
    match replay with
    | Some token ->
      let scenario, scenario_seed =
        match int_of_string_opt (String.trim token) with
        | Some s -> (Ds_dst.Gen.of_seed s, Some s)
        | None -> (
          let ic = open_in token in
          let len = in_channel_length ic in
          let text = really_input_string ic len in
          close_in ic;
          match Ds_obs.Json.of_string text with
          | exception Ds_obs.Json.Parse_error m ->
            Printf.eprintf "swarm: %s: bad JSON: %s\n" token m;
            exit 2
          | json -> (
            (* Accept either a bare scenario object or a swarm result that
               embeds one under "scenario". *)
            let candidate =
              match Ds_obs.Json.mem "scenario" json with
              | Some s -> s
              | None -> json
            in
            match Ds_dst.Scenario.of_json candidate with
            | Ok s -> (s, None)
            | Error m ->
              Printf.eprintf "swarm: %s: %s\n" token m;
              exit 2))
      in
      let result =
        Ds_dst.Swarm.replay ~shrink ~max_shrink_runs ?scenario_seed scenario
      in
      emit (Ds_dst.Swarm.result_json result);
      let failures = Ds_dst.Runner.failures result.Ds_dst.Swarm.outcome in
      if failures <> [] then begin
        Format.eprintf "replay FAILED: %s@."
          (Ds_dst.Scenario.to_string scenario);
        List.iter
          (fun (name, detail) -> Format.eprintf "  %s: %s@." name detail)
          failures;
        (match result.Ds_dst.Swarm.shrunk with
        | Some s ->
          Format.eprintf "  shrunk (%d runs): %s@." s.Ds_dst.Shrink.runs
            (Ds_dst.Scenario.to_string s.Ds_dst.Shrink.shrunk)
        | None -> ());
        exit 1
      end
      else Format.eprintf "replay ok: all invariants hold@."
    | None ->
      let progress =
        if verbose then
          Some
            (fun i o ->
              Format.eprintf "[%d] %s %s@." i
                (if Ds_dst.Runner.ok o then "ok  " else "FAIL")
                (Ds_dst.Scenario.to_string o.Ds_dst.Runner.scenario))
        else None
      in
      let report =
        Ds_dst.Swarm.run ~shrink ~max_shrink_runs ?progress ~n ~seed ()
      in
      emit (Ds_dst.Swarm.report_json report);
      Format.eprintf "%a" Ds_dst.Swarm.pp_summary report;
      if Ds_dst.Swarm.failed report <> [] then exit 1
  in
  Cmd.v (Cmd.info "swarm" ~doc)
    Term.(
      const run $ n $ seed $ out $ replay $ no_shrink $ max_shrink_runs
      $ verbose)

let failover_cmd =
  let doc =
    "Promote a hot-standby session directory (written by 'run --standby \
     DIR') to primary: recover the standby journal, repairing any torn \
     tail, and stamp the next promotion epoch into it. The promoted journal \
     then drives a new run ('run --journal DIR/standby.journal'); any late \
     write from the fenced old epoch is refused at replay."
  in
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Replication session directory.")
  in
  let run dir =
    match Ds_replica.Failover.promote dir with
    | r ->
      let open Ds_replica in
      Printf.printf "promoted %s (mode %s) to epoch %d\n" dir
        (Session.mode_to_string r.Failover.mode)
        r.Failover.epoch;
      let rec_ = r.Failover.recovered in
      Printf.printf
        "standby state: %d executed, %d pending, %d aborted, %d dead\n"
        (List.length rec_.Journal.history)
        (List.length rec_.Journal.pending)
        (List.length rec_.Journal.aborted)
        (List.length rec_.Journal.dead);
      if rec_.Journal.corrupt_dropped > 0 then
        Printf.printf "repaired torn tail: dropped %d line(s), kept %d bytes\n"
          rec_.Journal.corrupt_dropped rec_.Journal.valid_bytes;
      if rec_.Journal.epoch > 0 then
        Printf.printf "previous promotion epoch replayed: %d\n"
          rec_.Journal.epoch;
      Printf.printf "primary journal: %s\n" (Session.standby_path_of dir)
    | exception Failure m ->
      Printf.eprintf "failover: %s\n" m;
      exit 1
  in
  Cmd.v (Cmd.info "failover" ~doc) Term.(const run $ dir)

let recover_cmd =
  let doc = "Inspect a scheduler journal: recovered pending/history state." in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"JOURNAL"
          ~doc:
            "Journal file, or a sharded segment directory (written by 'run \
             --shards S --journal DIR'); segments are merged into one \
             admission-ordered replay.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Physically truncate a torn/corrupt journal tail to the last \
             checksum-valid prefix.")
  in
  let run repair file =
    (* Per segment, so --repair reports which lane had the torn tail (repair
       is per segment; a torn tail in one lane never blocks its siblings). A
       journal file is one segment; a segment directory has at least three. *)
    let segs, r =
      match Journal.recover_segments ~repair file with
      | result -> result
      | exception Failure m ->
        Printf.eprintf "recover: %s: %s\n" file m;
        exit 1
    in
    if List.length segs > 1 then begin
      Printf.printf "segment directory: merging %d lane journal(s)\n"
        (List.length segs);
      List.iter
        (fun (name, (sr : Journal.recovered)) ->
          if sr.Journal.corrupt_dropped > 0 then
            Printf.printf
              "  %s: replayed %d, dropped %d corrupt tail line(s)%s; \
               trusted prefix %d bytes\n"
              name sr.Journal.replayed sr.Journal.corrupt_dropped
              (if repair then " (truncated)" else "")
              sr.Journal.valid_bytes
          else
            Printf.printf "  %s: replayed %d, clean\n" name sr.Journal.replayed)
        segs
    end;
    (match r.Journal.checkpoint_cycle with
    | Some c ->
      Printf.printf
        "checkpoint at cycle %d: skipped %d entries, replayed %d\n" c
        r.Journal.skipped r.Journal.replayed
    | None -> Printf.printf "replayed %d entries (no checkpoint)\n" r.Journal.replayed);
    if r.Journal.corrupt_dropped > 0 then
      Printf.printf "dropped %d corrupt tail line(s)%s; trusted prefix %d bytes\n"
        r.Journal.corrupt_dropped
        (if repair then " (file truncated)" else "")
        r.Journal.valid_bytes;
    Printf.printf "pending (%d):\n" (List.length r.Journal.pending);
    List.iter
      (fun req -> Printf.printf "  %s\n" (Request.to_string req))
      r.Journal.pending;
    Printf.printf "history (%d executed)\n" (List.length r.Journal.history);
    if r.Journal.aborted <> [] then
      Printf.printf "aborted transactions: %s\n"
        (String.concat ", " (List.map string_of_int r.Journal.aborted));
    if r.Journal.dead <> [] then begin
      Printf.printf "dead-lettered (%d):\n" (List.length r.Journal.dead);
      List.iter
        (fun req -> Printf.printf "  %s\n" (Request.to_string req))
        r.Journal.dead
    end
  in
  Cmd.v (Cmd.info "recover" ~doc) Term.(const run $ repair $ file)

let () =
  let doc = "declarative request scheduler (EDBT'10 reproduction)" in
  let info = Cmd.info "dsched" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            protocols_cmd; table1_cmd; sql_cmd; demo_cmd; run_cmd; native_cmd;
            rules_cmd; trace_gen_cmd; qualify_cmd; check_cmd; recover_cmd;
            failover_cmd; trace_view_cmd; swarm_cmd;
          ]))
