open Ds_core
open Ds_model

type outcome = {
  scenario : Scenario.t;
  stats : Middleware.stats;
  invariants : (string * (unit, string) result) list;
}

let protocol_of name =
  match Builtin.find name with
  | Some p -> p
  | None -> invalid_arg ("Runner: unknown protocol " ^ name)

(* Formulations of one protocol: the same decisions written as SQL (at
   three optimizer levels), as Datalog and by hand. *)
let families =
  [
    [ "ss2pl-sql"; "ss2pl-sql-basic"; "ss2pl-sql-noopt"; "ss2pl-datalog";
      "ss2pl-ocaml" ];
    [ "ss2pl-ordered-sql"; "ss2pl-ordered-datalog" ];
  ]

(* The formulation a run is compared with, from the scenario seed alone:
   drawing it from the generator would change every generated scenario. *)
let sibling (s : Scenario.t) =
  let name = s.Scenario.protocol in
  match List.find_opt (List.mem name) families with
  | None -> None
  | Some family ->
    let others = List.filter (fun p -> p <> name) family in
    Some (List.nth others (abs (s.Scenario.seed mod List.length others)))

(* The test-only corruption hook: mutate the observed schedules (never the
   run itself) so the failure-reporting and shrinking paths can be exercised
   against a scheduler that is actually correct. Indices wrap so shrunk runs
   keep the injection in range. *)
let apply_inject inject ~rte ~merged =
  match inject with
  | None -> (rte, merged)
  | Some (Scenario.Dup_delivery k) -> (
    match merged with
    | [] -> (rte, merged)
    | _ ->
      let i = k mod List.length merged in
      let dup = List.nth merged i in
      (rte, List.concat_map (fun r -> if Request.key r = Request.key dup then [ r; r ] else [ r ]) merged))
  | Some (Scenario.Drop_rte k) -> (
    match rte with
    | [] -> (rte, merged)
    | _ ->
      let i = k mod List.length rte in
      (List.filteri (fun j _ -> j <> i) rte, merged))
  | Some (Scenario.Swap_rte k) -> (
    match rte with
    | [] | [ _ ] -> (rte, merged)
    | _ ->
      (* Swap the k-th rte entry that has a later conflicting partner with
         that partner. Swapping commuting entries is unobservable, and under
         2PL conflicting requests are never adjacent (locks persist to
         commit), so the swap reaches across the schedule to a pair whose
         order actually matters. No-op when nothing conflicts at all. *)
      let arr = Array.of_list rte in
      let n = Array.length arr in
      let partner i =
        let rec find j =
          if j >= n then None
          else if Request.conflicts arr.(i) arr.(j) then Some j
          else find (j + 1)
        in
        find (i + 1)
      in
      let sites = ref [] in
      for i = n - 2 downto 0 do
        match partner i with
        | Some j -> sites := (i, j) :: !sites
        | None -> ()
      done;
      (match !sites with
      | [] -> ()
      | sites ->
        let i, j = List.nth sites (k mod List.length sites) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp);
      (Array.to_list arr, merged))

(* Client acks strictly before the promotion, each with its stream LSN;
   survival is a ['Q'] record in the promoted journal's continuous log. *)
let failover_report session ~trace_events =
  let failover_at =
    List.fold_left
      (fun acc (e : Ds_obs.Trace.event) ->
        match e.Ds_obs.Trace.kind with
        | Ds_obs.Trace.Failover -> Float.min acc e.Ds_obs.Trace.at
        | _ -> acc)
      infinity trace_events
  in
  let lsns = Ds_replica.Session.ta_lsns session in
  let acked =
    List.filter_map
      (fun (e : Ds_obs.Trace.event) ->
        match e.Ds_obs.Trace.kind with
        | Ds_obs.Trace.Commit when e.Ds_obs.Trace.at < failover_at ->
          Some
            ( e.Ds_obs.Trace.ta,
              Option.value ~default:0
                (List.assoc_opt e.Ds_obs.Trace.ta lsns) )
        | _ -> None)
      trace_events
    |> List.sort_uniq compare
  in
  let present =
    Journal.qualified_tas (Ds_replica.Session.standby_path session)
  in
  Ds_check.Equivalence.check_failover
    ~sync:(Ds_replica.Session.mode session = Ds_replica.Session.Sync)
    ~watermark:(Ds_replica.Session.watermark session)
    ~acked
    ~survived:(fun ta -> List.mem ta present)
    ()

(* One run of [s] under [protocol] through the real stack, with a fresh
   journal (and standby directory) that [k] may read before they are
   removed. *)
let execute (s : Scenario.t) protocol k =
  let journal_path = Journal.temp_path ~shards:s.Scenario.shards "ds_swarm" in
  let repl_dir =
    Option.map
      (fun _ ->
        (* reserve a fresh directory name; Session.create makes it *)
        let d = Filename.temp_file "ds_swarm" ".repl.d" in
        Sys.remove d;
        d)
      s.Scenario.repl
  in
  let cleanup () =
    Journal.remove journal_path;
    Option.iter
      (fun d ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ Ds_replica.Session.standby_path_of d; Filename.concat d "REPL" ];
        try Sys.rmdir d with Sys_error _ -> ())
      repl_dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      let trace = Ds_obs.Trace.create () in
      let session =
        match (s.Scenario.repl, repl_dir) with
        | Some r, Some dir ->
          Some
            (Ds_replica.Session.create
               ~mode:
                 (if r.Scenario.repl_sync then Ds_replica.Session.Sync
                  else Ds_replica.Session.Async)
               ~plan:r.Scenario.repl_link ~seed:s.Scenario.seed ~trace ~dir ())
        | _ -> None
      in
      let cfg =
        {
          (Scenario.config s ~protocol ~journal_path ~trace) with
          Middleware.repl = Option.map Ds_replica.Session.hooks session;
        }
      in
      let stats, h = Middleware.run_sharded cfg in
      Option.iter Ds_replica.Session.close session;
      k ~journal_path ~trace ~session stats h)

(* What the formulation-equivalence invariant compares, read before any
   injection touches the schedules. *)
let observe protocol stats (h : Middleware.handle) =
  {
    Invariant.protocol = protocol.Protocol.name;
    stats;
    rte = h.Middleware.merged_rte;
    order = h.Middleware.merged_execution_order;
  }

let rerun s protocol =
  execute s protocol (fun ~journal_path:_ ~trace:_ ~session:_ stats h ->
      observe protocol stats h)

let formulation_diff s protocol =
  Invariant.same_formulation
    (rerun s (protocol_of s.Scenario.protocol))
    (rerun s protocol)

let run (s : Scenario.t) =
  (match Scenario.validate s with
  | Ok () -> ()
  | Error m -> invalid_arg ("Runner.run: " ^ m));
  let protocol = protocol_of s.Scenario.protocol in
  execute s protocol (fun ~journal_path ~trace ~session stats h ->
      (* At S=1 these are exactly the single lane's rte and delivery order;
         at S>1 the stamp-merged cross-lane equivalents. *)
      let rte = h.Middleware.merged_rte in
      let by_key = Hashtbl.create (2 * List.length rte) in
      List.iter (fun r -> Hashtbl.replace by_key (Request.key r) r) rte;
      let merged =
        List.filter_map
          (fun key -> Hashtbl.find_opt by_key key)
          h.Middleware.merged_execution_order
      in
      let rte, merged = apply_inject s.Scenario.inject ~rte ~merged in
      let promoted =
        match session with
        | Some sess -> Ds_replica.Session.promoted sess
        | None -> false
      in
      let recovered =
        (* After a failover the run's journal of record is the promoted
           standby journal — the primary file is the crashed instance's
           abandoned prefix. *)
        Journal.recover
          (if promoted then
             Ds_replica.Session.standby_path (Option.get session)
           else journal_path)
      in
      let lane_rels =
        Array.to_list
          (Array.map Scheduler.relations h.Middleware.lane_schedulers)
      in
      let ctx =
        {
          Invariant.scenario = s;
          stats;
          rte;
          merged;
          trace_events = Ds_obs.Trace.events trace;
          recovered;
          pending_live = List.concat_map Relations.pending lane_rels;
          history_live = List.concat_map Relations.history_requests lane_rels;
          dead_live = List.concat_map Relations.dead_requests lane_rels;
          shards = s.Scenario.shards;
          shard_of = h.Middleware.shard_of;
          repl_promoted = promoted;
          repl_divergences =
            (match session with
            | Some sess -> Ds_replica.Session.divergences sess
            | None -> 0);
          repl_failover =
            (match session with
            | Some sess when promoted ->
              Some
                (failover_report sess ~trace_events:(Ds_obs.Trace.events trace))
            | _ -> None);
          formulations =
            Option.map
              (fun name ->
                (observe protocol stats h, rerun s (protocol_of name)))
              (sibling s);
        }
      in
      { scenario = s; stats; invariants = Invariant.apply ctx })

let failures o =
  List.filter_map
    (fun (name, r) ->
      match r with Ok () -> None | Error detail -> Some (name, detail))
    o.invariants

let ok o = failures o = []
