open Ds_core

type result = {
  shrunk : Scenario.t;
  outcome : Runner.outcome;
  runs : int;
}

(* The transformation ladder, strongest reductions first. Each entry maps a
   scenario to a strictly "smaller" candidate, or None when it no longer
   applies; [shrink] skips a candidate {!Scenario.validate} refuses and
   retries the whole ladder after every acceptance, so halving steps
   compose into full binary search per dimension. *)
let transformations : (string * (Scenario.t -> Scenario.t option)) list =
  let some_if cond s = if cond then Some s else None in
  [
    ( "halve-duration",
      fun s ->
        some_if (s.Scenario.duration > 0.5)
          { s with Scenario.duration = Float.max 0.5 (s.Scenario.duration /. 2.) } );
    ( "halve-clients",
      fun s ->
        some_if (s.Scenario.clients > 1)
          { s with Scenario.clients = max 1 (s.Scenario.clients / 2) } );
    ( "halve-stmts",
      fun s ->
        some_if (s.Scenario.stmts_per_txn > 1)
          { s with Scenario.stmts_per_txn = max 1 (s.Scenario.stmts_per_txn / 2) } );
    ( "single-worker",
      fun s ->
        some_if (s.Scenario.workers > 1)
          {
            s with
            Scenario.workers = 1;
            hedging = false;
            faults =
              {
                s.Scenario.faults with
                Faults.worker_crash_rate = 0.;
                worker_death_rate = 0.;
                worker_stall_rate = 0.;
              };
          } );
    ( "single-shard",
      fun s ->
        some_if (s.Scenario.shards > 1) { s with Scenario.shards = 1 } );
    ( "drop-crash",
      fun s ->
        some_if (s.Scenario.faults.Faults.crash_at_cycle <> None)
          { s with Scenario.faults = { s.Scenario.faults with Faults.crash_at_cycle = None } } );
    ( "drop-pcrash",
      fun s ->
        some_if (s.Scenario.faults.Faults.pcrash_at_cycle <> None)
          { s with Scenario.faults = { s.Scenario.faults with Faults.pcrash_at_cycle = None } } );
    ( "clean-repl-link",
      fun s ->
        match s.Scenario.repl with
        | Some r when not (Ds_replica.Link.is_none r.Scenario.repl_link) ->
          Some
            {
              s with
              Scenario.repl =
                Some { r with Scenario.repl_link = Ds_replica.Link.none };
            }
        | _ -> None );
    (* A primary crash needs the session, so this rung lands only once
       drop-pcrash has. *)
    ( "drop-repl",
      fun s ->
        some_if (s.Scenario.repl <> None) { s with Scenario.repl = None } );
    ( "zero-batch-failures",
      fun s ->
        some_if (s.Scenario.faults.Faults.batch_fail_rate > 0.)
          { s with Scenario.faults = { s.Scenario.faults with Faults.batch_fail_rate = 0. } } );
    ( "zero-stalls",
      fun s ->
        some_if (s.Scenario.faults.Faults.stall_rate > 0.)
          { s with Scenario.faults = { s.Scenario.faults with Faults.stall_rate = 0. } } );
    ( "zero-poison",
      fun s ->
        some_if (s.Scenario.faults.Faults.poison_rate > 0.)
          { s with Scenario.faults = { s.Scenario.faults with Faults.poison_rate = 0. } } );
    ( "zero-disconnects",
      fun s ->
        some_if (s.Scenario.faults.Faults.disconnect_rate > 0.)
          { s with Scenario.faults = { s.Scenario.faults with Faults.disconnect_rate = 0. } } );
    ( "drop-checkpoint",
      fun s ->
        some_if (s.Scenario.checkpoint <> None) { s with Scenario.checkpoint = None } );
    ( "drop-queue-cap",
      fun s ->
        some_if (s.Scenario.queue_cap <> None) { s with Scenario.queue_cap = None } );
    ( "drop-hedging",
      fun s -> some_if s.Scenario.hedging { s with Scenario.hedging = false } );
    ( "uniform-access",
      fun s ->
        some_if (s.Scenario.access <> Scenario.Uniform)
          { s with Scenario.access = Scenario.Uniform } );
    ( "single-tier",
      fun s -> some_if s.Scenario.sla_mix { s with Scenario.sla_mix = false } );
    ( "oracle-protocol",
      fun s ->
        some_if (s.Scenario.protocol <> "ss2pl-ocaml")
          { s with Scenario.protocol = "ss2pl-ocaml" } );
    ( "shrink-objects",
      fun s ->
        some_if (s.Scenario.n_objects > 100) { s with Scenario.n_objects = 100 } );
  ]

let shrink ?(max_runs = 120) scenario ~failed =
  if failed = [] then invalid_arg "Shrink.shrink: empty failure set";
  let still_fails outcome =
    List.exists (fun (name, _) -> List.mem name failed) (Runner.failures outcome)
  in
  let runs = ref 0 in
  let try_run s =
    incr runs;
    Runner.run s
  in
  (* Re-run the starting point so the returned outcome always matches the
     returned scenario (the caller's outcome may predate a prior shrink). *)
  let best = ref scenario in
  let best_outcome = ref (try_run scenario) in
  if not (still_fails !best_outcome) then
    invalid_arg "Shrink.shrink: scenario does not fail the given invariants";
  let progress = ref true in
  while !progress && !runs < max_runs do
    progress := false;
    List.iter
      (fun (_name, tf) ->
        if (not !progress) && !runs < max_runs then
          match tf !best with
          | Some candidate when Scenario.validate candidate = Ok () ->
            let outcome = try_run candidate in
            if still_fails outcome then begin
              best := candidate;
              best_outcome := outcome;
              progress := true
            end
          | _ -> ())
      transformations
  done;
  { shrunk = !best; outcome = !best_outcome; runs = !runs }
