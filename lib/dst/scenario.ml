open Ds_core
open Ds_model

type access = Uniform | Zipf | Hotspot

type inject =
  | Dup_delivery of int
  | Drop_rte of int
  | Swap_rte of int

type repl = { repl_sync : bool; repl_link : Ds_replica.Link.plan }

type t = {
  seed : int;
  clients : int;
  duration : float;
  n_objects : int;
  stmts_per_txn : int;
  access : access;
  sla_mix : bool;
  protocol : string;
  workers : int;
  shards : int;
  faults : Faults.plan;
  checkpoint : int option;
  queue_cap : int option;
  hedging : bool;
  inject : inject option;
  repl : repl option;
}

(* Every protocol here carries Protocol.Serializable, so the battery's
   serializability predicates apply to its schedules. *)
let protocols =
  [
    "ss2pl-sql";
    "ss2pl-datalog";
    "ss2pl-ocaml";
    "ss2pl-ordered-sql";
    "ss2pl-ordered-datalog";
    "c2pl";
    "sla-ordered";
  ]

let access_to_string = function
  | Uniform -> "uniform"
  | Zipf -> "zipf"
  | Hotspot -> "hotspot"

let access_of_string = function
  | "uniform" -> Ok Uniform
  | "zipf" -> Ok Zipf
  | "hotspot" -> Ok Hotspot
  | s -> Error (Printf.sprintf "unknown access pattern %S" s)

let spec t =
  {
    Ds_workload.Spec.paper_default with
    Ds_workload.Spec.n_objects = t.n_objects;
    selects_per_txn = t.stmts_per_txn;
    updates_per_txn = t.stmts_per_txn;
    access =
      (match t.access with
      | Uniform -> Ds_workload.Spec.Uniform
      | Zipf -> Ds_workload.Spec.Zipf 0.8
      | Hotspot -> Ds_workload.Spec.Hotspot (0.1, 0.8));
    sla_mix =
      (if t.sla_mix then
         [ (Sla.premium, 0.2); (Sla.standard, 0.5); (Sla.free, 0.3) ]
       else Ds_workload.Spec.paper_default.Ds_workload.Spec.sla_mix);
  }

let config ?trace t ~protocol ~journal_path =
  {
    Middleware.default_config with
    Middleware.n_clients = t.clients;
    duration = t.duration;
    spec = spec t;
    workers = t.workers;
    shards = t.shards;
    seed = t.seed;
    protocol;
    (* Wall-clock cycle charging would make the simulation depend on the
       host; scenario runs must reproduce exactly from the seed. *)
    charge_scheduler_time = false;
    faults = t.faults;
    queue_capacity = t.queue_cap;
    journal_path = Some journal_path;
    checkpoint_interval = t.checkpoint;
    hedging = t.hedging;
    trace;
  }

(* The rules only a scenario has; the run's own come from the middleware,
   so a scenario that decodes is a scenario that runs. *)
let validate t =
  if not (List.mem t.protocol protocols) then
    Error
      (Printf.sprintf "protocol %S is not in the serializable scenario set"
         t.protocol)
  else if t.clients < 1 then Error "clients must be >= 1"
  else if t.duration <= 0. then Error "duration must be positive"
  else if t.stmts_per_txn < 1 then Error "stmts_per_txn must be >= 1"
  else
    (* Every scenario run journals; the path is the runner's to pick. *)
    Middleware.validate ~replicated:(t.repl <> None)
      (config t
         ~protocol:(Option.get (Builtin.find t.protocol))
         ~journal_path:"")

let inject_to_json = function
  | Dup_delivery k ->
    Ds_obs.Json.Obj
      [ ("kind", Ds_obs.Json.Str "dup-delivery"); ("at", Ds_obs.Json.Num (float_of_int k)) ]
  | Drop_rte k ->
    Ds_obs.Json.Obj
      [ ("kind", Ds_obs.Json.Str "drop-rte"); ("at", Ds_obs.Json.Num (float_of_int k)) ]
  | Swap_rte k ->
    Ds_obs.Json.Obj
      [ ("kind", Ds_obs.Json.Str "swap-rte"); ("at", Ds_obs.Json.Num (float_of_int k)) ]

let inject_of_json j =
  let open Ds_obs.Json in
  match (Option.bind (mem "kind" j) str, Option.bind (mem "at" j) num) with
  | Some "dup-delivery", Some k -> Ok (Dup_delivery (int_of_float k))
  | Some "drop-rte", Some k -> Ok (Drop_rte (int_of_float k))
  | Some "swap-rte", Some k -> Ok (Swap_rte (int_of_float k))
  | Some kind, _ -> Error (Printf.sprintf "unknown injection kind %S" kind)
  | None, _ -> Error "injection without a kind"

let repl_to_json r =
  Ds_obs.Json.Obj
    [
      ("sync", Ds_obs.Json.Bool r.repl_sync);
      ("link", Ds_obs.Json.Str (Ds_replica.Link.plan_to_string r.repl_link));
    ]

let repl_of_json j =
  let open Ds_obs.Json in
  match (mem "sync" j, Option.bind (mem "link" j) str) with
  | Some (Bool sync), Some link -> (
    match Ds_replica.Link.plan_of_string link with
    | Ok plan -> Ok { repl_sync = sync; repl_link = plan }
    | Error m -> Error ("repl link: " ^ m))
  | _ -> Error "repl without sync/link fields"

let to_json t =
  let open Ds_obs.Json in
  let opt_int = function None -> Null | Some n -> Num (float_of_int n) in
  Obj
    ([
       ("seed", Num (float_of_int t.seed));
       ("clients", Num (float_of_int t.clients));
       ("duration", Num t.duration);
       ("objects", Num (float_of_int t.n_objects));
       ("stmts", Num (float_of_int t.stmts_per_txn));
       ("access", Str (access_to_string t.access));
       ("sla_mix", Bool t.sla_mix);
       ("protocol", Str t.protocol);
       ("workers", Num (float_of_int t.workers));
       ("shards", Num (float_of_int t.shards));
       ("faults", Str (Faults.plan_to_string t.faults));
       ("checkpoint", opt_int t.checkpoint);
       ("queue_cap", opt_int t.queue_cap);
       ("hedging", Bool t.hedging);
     ]
    @ (match t.inject with None -> [] | Some i -> [ ("inject", inject_to_json i) ])
    @ match t.repl with None -> [] | Some r -> [ ("repl", repl_to_json r) ])

let of_json j =
  let open Ds_obs.Json in
  let ( let* ) = Result.bind in
  let req_num name =
    match Option.bind (mem name j) num with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "scenario: missing number %S" name)
  in
  let req_str name =
    match Option.bind (mem name j) str with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "scenario: missing string %S" name)
  in
  let req_bool name =
    match mem name j with
    | Some (Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "scenario: missing bool %S" name)
  in
  let opt_int name =
    match mem name j with
    | Some (Num v) -> Ok (Some (int_of_float v))
    | Some Null | None -> Ok None
    | Some _ -> Error (Printf.sprintf "scenario: bad field %S" name)
  in
  let* seed = req_num "seed" in
  let* clients = req_num "clients" in
  let* duration = req_num "duration" in
  let* n_objects = req_num "objects" in
  let* stmts = req_num "stmts" in
  let* access_s = req_str "access" in
  let* access = access_of_string access_s in
  let* sla_mix = req_bool "sla_mix" in
  let* protocol = req_str "protocol" in
  let* workers = req_num "workers" in
  (* optional with default 1: scenario files predating sharding replay
     unchanged *)
  let* shards =
    match mem "shards" j with
    | Some (Num v) -> Ok (int_of_float v)
    | None -> Ok 1
    | Some _ -> Error "scenario: bad field \"shards\""
  in
  let* faults_s = req_str "faults" in
  let* faults = Faults.plan_of_string faults_s in
  let* checkpoint = opt_int "checkpoint" in
  let* queue_cap = opt_int "queue_cap" in
  let* hedging = req_bool "hedging" in
  let* inject =
    match mem "inject" j with
    | None -> Ok None
    | Some ij -> Result.map Option.some (inject_of_json ij)
  in
  (* optional with default None: scenario files predating replication replay
     unchanged *)
  let* repl =
    match mem "repl" j with
    | None -> Ok None
    | Some rj -> Result.map Option.some (repl_of_json rj)
  in
  let t =
    {
      seed = int_of_float seed;
      clients = int_of_float clients;
      duration;
      n_objects = int_of_float n_objects;
      stmts_per_txn = int_of_float stmts;
      access;
      sla_mix;
      protocol;
      workers = int_of_float workers;
      shards;
      faults;
      checkpoint;
      queue_cap;
      hedging;
      inject;
      repl;
    }
  in
  let* () = validate t in
  Ok t

let to_string t =
  let opt = function None -> "-" | Some n -> string_of_int n in
  Printf.sprintf
    "seed=%d clients=%d dur=%g obj=%d stmts=%d access=%s mix=%b proto=%s K=%d \
     S=%d faults=%s ckpt=%s cap=%s hedge=%b%s"
    t.seed t.clients t.duration t.n_objects t.stmts_per_txn
    (access_to_string t.access) t.sla_mix t.protocol t.workers t.shards
    (Faults.plan_to_string t.faults)
    (opt t.checkpoint) (opt t.queue_cap) t.hedging
    (match t.inject with
    | None -> ""
    | Some i -> " inject=" ^ Ds_obs.Json.to_string (inject_to_json i))
  ^ (match t.repl with
    | None -> ""
    | Some r ->
      Printf.sprintf " repl=%s:%s"
        (if r.repl_sync then "sync" else "async")
        (Ds_replica.Link.plan_to_string r.repl_link))

let pp ppf t = Format.pp_print_string ppf (to_string t)

let equal a b = to_json a = to_json b
