open Ds_obs

type result = {
  scenario_seed : int option;
  outcome : Runner.outcome;
  shrunk : Shrink.result option;
}

type report = {
  base_seed : int;
  n : int;
  shrink_enabled : bool;
  results : result list;
}

let maybe_shrink ~shrink ~max_shrink_runs outcome =
  if not shrink then None
  else
    match Runner.failures outcome with
    | [] -> None
    | failed ->
      Some
        (Shrink.shrink ?max_runs:max_shrink_runs outcome.Runner.scenario
           ~failed:(List.map fst failed))

let replay ?(shrink = true) ?max_shrink_runs ?scenario_seed scenario =
  let outcome = Runner.run scenario in
  { scenario_seed; outcome; shrunk = maybe_shrink ~shrink ~max_shrink_runs outcome }

let run ?(shrink = true) ?max_shrink_runs ?progress ~n ~seed () =
  let results =
    List.init n (fun i ->
        let scenario_seed = Gen.scenario_seed ~base:seed i in
        let scenario = Gen.of_seed scenario_seed in
        let outcome = Runner.run scenario in
        (match progress with Some f -> f i outcome | None -> ());
        {
          scenario_seed = Some scenario_seed;
          outcome;
          shrunk = maybe_shrink ~shrink ~max_shrink_runs outcome;
        })
  in
  { base_seed = seed; n; shrink_enabled = shrink; results }

let failed report =
  List.filter (fun r -> not (Runner.ok r.outcome)) report.results

(* Only counters that are functions of the scenario seed alone: every
   wall-clock-derived stat (cycle times, scheduler_time, recovery_time,
   latencies) is excluded so that report bytes never depend on the host. *)
let counters_json (s : Ds_core.Middleware.stats) =
  let i name v = (name, Json.Num (float_of_int v)) in
  Json.Obj
    [
      i "committed_txns" s.Ds_core.Middleware.committed_txns;
      i "committed_stmts" s.Ds_core.Middleware.committed_stmts;
      i "aborted_txns" s.Ds_core.Middleware.aborted_txns;
      i "cycles" s.Ds_core.Middleware.cycles;
      i "retries" s.Ds_core.Middleware.retries;
      i "timeouts" s.Ds_core.Middleware.timeouts;
      i "injected_failures" s.Ds_core.Middleware.injected_failures;
      i "injected_stalls" s.Ds_core.Middleware.injected_stalls;
      i "shed_txns" s.Ds_core.Middleware.shed_txns;
      i "backpressure_waits" s.Ds_core.Middleware.backpressure_waits;
      i "dead_lettered" s.Ds_core.Middleware.dead_lettered;
      i "disconnects" s.Ds_core.Middleware.disconnects;
      i "crashes" s.Ds_core.Middleware.crashes;
      i "workers" s.Ds_core.Middleware.workers;
      i "batches_dispatched" s.Ds_core.Middleware.batches_dispatched;
      i "worker_crashes" s.Ds_core.Middleware.worker_crashes;
      i "worker_deaths" s.Ds_core.Middleware.worker_deaths;
      i "worker_stalls" s.Ds_core.Middleware.worker_stalls;
      i "reassigned_classes" s.Ds_core.Middleware.reassigned_classes;
      i "hedged_classes" s.Ds_core.Middleware.hedged_classes;
      i "checkpoints" s.Ds_core.Middleware.checkpoints;
      i "recovery_replayed" s.Ds_core.Middleware.recovery_replayed;
      i "recovery_skipped" s.Ds_core.Middleware.recovery_skipped;
      i "failovers" s.Ds_core.Middleware.failovers;
      i "repl_epoch" s.Ds_core.Middleware.repl_epoch;
      i "repl_fenced" s.Ds_core.Middleware.repl_fenced;
      i "repl_divergences" s.Ds_core.Middleware.repl_divergences;
      i "global_lane_txns" s.Ds_core.Middleware.global_lane_txns;
      i "shard_deferrals" s.Ds_core.Middleware.shard_deferrals;
    ]

let invariants_json invariants =
  Json.List
    (List.map
       (fun (name, r) ->
         match r with
         | Ok () ->
           Json.Obj [ ("name", Json.Str name); ("ok", Json.Bool true) ]
         | Error detail ->
           Json.Obj
             [
               ("name", Json.Str name);
               ("ok", Json.Bool false);
               ("detail", Json.Str detail);
             ])
       invariants)

let repro_of result =
  match result.scenario_seed with
  | Some seed -> Printf.sprintf "dsched swarm --replay %d" seed
  | None -> "dsched swarm --replay <scenario-file.json>"

let result_json result =
  let o = result.outcome in
  let base =
    [
      ( "scenario_seed",
        match result.scenario_seed with
        | Some s -> Json.Num (float_of_int s)
        | None -> Json.Null );
      ("ok", Json.Bool (Runner.ok o));
      ("scenario", Scenario.to_json o.Runner.scenario);
      ("counters", counters_json o.Runner.stats);
      ("invariants", invariants_json o.Runner.invariants);
      ("repro", Json.Str (repro_of result));
    ]
  in
  let shrunk =
    match result.shrunk with
    | None -> []
    | Some s ->
      [
        ( "shrunk",
          Json.Obj
            [
              ("scenario", Scenario.to_json s.Shrink.shrunk);
              ("runs", Json.Num (float_of_int s.Shrink.runs));
              ( "failed",
                Json.List
                  (List.map
                     (fun (name, _) -> Json.Str name)
                     (Runner.failures s.Shrink.outcome)) );
              ("counters", counters_json s.Shrink.outcome.Runner.stats);
            ] );
      ]
  in
  Json.Obj (base @ shrunk)

let report_json report =
  let n_failed = List.length (failed report) in
  Stamp.add ~seed:report.base_seed
    ~config:
      [
        ("n", Json.Num (float_of_int report.n));
        ("shrink", Json.Bool report.shrink_enabled);
        ("invariants", Json.List (List.map (fun s -> Json.Str s) Invariant.names));
      ]
    (Json.Obj
       [
         ("scenarios", Json.Num (float_of_int report.n));
         ("failed", Json.Num (float_of_int n_failed));
         ("results", Json.List (List.map result_json report.results));
       ])

let pp_summary fmt report =
  let failures = failed report in
  Format.fprintf fmt "swarm: %d scenario(s), seed %d: %d failed@." report.n
    report.base_seed (List.length failures);
  (* Per-invariant failure tally, battery order. *)
  List.iter
    (fun name ->
      let k =
        List.length
          (List.filter
             (fun r -> List.mem_assoc name (Runner.failures r.outcome))
             failures)
      in
      if k > 0 then Format.fprintf fmt "  %s: %d failure(s)@." name k)
    Invariant.names;
  List.iter
    (fun r ->
      Format.fprintf fmt "FAIL %s@.     %s@."
        (Scenario.to_string r.outcome.Runner.scenario)
        (repro_of r);
      List.iter
        (fun (name, detail) ->
          Format.fprintf fmt "     %s: %s@." name detail)
        (Runner.failures r.outcome);
      match r.shrunk with
      | None -> ()
      | Some s ->
        Format.fprintf fmt "     shrunk (%d runs): %s@." s.Shrink.runs
          (Scenario.to_string s.Shrink.shrunk))
    failures
