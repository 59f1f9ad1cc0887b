open Ds_model

let ss2pl_sql_at level =
  Protocol.of_sql ~optimize:level
    ~description:"Strong 2PL via the paper's Listing 1"
    ~name:
      (match level with
      | `Full -> "ss2pl-sql"
      | `Basic -> "ss2pl-sql-basic"
      | `None -> "ss2pl-sql-noopt")
    ~guarantee:Protocol.Serializable ~ordered:false Queries.ss2pl

let ss2pl_sql = ss2pl_sql_at `Full

let ss2pl_datalog =
  Protocol.of_datalog ~description:"Strong 2PL as a Datalog program"
    ~name:"ss2pl-datalog" ~guarantee:Protocol.Serializable Datalog_rules.ss2pl

(* Per pending request, off indexes the relations already keep: a lock held
   in [history] through the object index ({!Relations.blocker_lookup}), an
   earlier-TA conflicting request pending on the same object through a
   per-cycle hash. No lock table is built, so a cycle costs the pending
   batch, not the history. {!Oracle.ss2pl_qualify} is the reference it must
   match key for key, and the spec whose size it reports. *)
let ss2pl_indexed rels =
  let holder = Relations.blocker_lookup rels in
  let pending = Relations.pending rels in
  let pending_on = Hashtbl.create 64 in
  List.iter
    (fun (r : Request.t) ->
      Option.iter (fun o -> Hashtbl.add pending_on o r) r.Request.obj)
    pending;
  let blocked (r : Request.t) =
    Option.is_some (holder r)
    ||
    match r.Request.obj with
    | None -> false
    | Some o ->
      List.exists
        (fun (r1 : Request.t) ->
          r1.Request.ta < r.Request.ta && Request.conflicts r1 r)
        (Hashtbl.find_all pending_on o)
  in
  List.filter (fun r -> not (blocked r)) pending
  |> List.sort (fun (a : Request.t) b -> Int.compare a.Request.id b.Request.id)
  |> List.map Request.key

let ss2pl_ocaml =
  Protocol.of_fn ~description:"Hand-coded strong 2PL (imperative baseline)"
    ~name:"ss2pl-ocaml" ~guarantee:Protocol.Serializable
    ~spec_loc:Oracle.implementation_loc ss2pl_indexed

let ss2pl_ordered_sql =
  Protocol.of_sql ~description:"SS2PL + intra-transaction ordering"
    ~name:"ss2pl-ordered-sql" ~guarantee:Protocol.Serializable ~ordered:false
    Queries.ss2pl_ordered

let ss2pl_ordered_datalog =
  Protocol.of_datalog ~description:"SS2PL + intra-transaction ordering"
    ~name:"ss2pl-ordered-datalog" ~guarantee:Protocol.Serializable
    Datalog_rules.ss2pl_ordered

let read_committed_sql =
  Protocol.of_sql ~description:"Relaxed consistency: no read locks"
    ~name:"read-committed-sql" ~guarantee:Protocol.Read_committed ~ordered:false
    Queries.read_committed

let read_committed_datalog =
  Protocol.of_datalog ~description:"Relaxed consistency: no read locks"
    ~name:"read-committed-datalog" ~guarantee:Protocol.Read_committed
    Datalog_rules.read_committed

let rationing ~threshold =
  Protocol.of_sql
    ~description:
      (Printf.sprintf
         "Consistency rationing: SS2PL below object %d, relaxed above" threshold)
    ~name:(Printf.sprintf "rationing-%d" threshold)
    ~guarantee:(Protocol.Custom "rationed") ~ordered:false
    (Queries.rationing ~threshold)

let rationing_dynamic ~initial_threshold () =
  let proto, set =
    Protocol.of_sql_dynamic
      ~description:"Consistency rationing with a runtime-tunable boundary"
      ~name:"rationing-dynamic" ~guarantee:(Protocol.Custom "rationed")
      ~ordered:false
      ~initial:(Ds_relal.Value.Int initial_threshold)
      Queries.rationing_parameterized
  in
  (proto, fun threshold -> set (Ds_relal.Value.Int threshold))

let c2pl =
  Protocol.of_sql
    ~description:"Conservative 2PL: a transaction runs only when all its locks are free"
    ~name:"c2pl" ~guarantee:Protocol.Serializable ~ordered:false Queries.c2pl

let reader_offload =
  Protocol.of_sql
    ~description:"Reads as if from a snapshot replica; writes w-w ordered"
    ~name:"reader-offload" ~guarantee:(Protocol.Custom "reader-offload")
    ~ordered:false Queries.reader_offload

let sla_ordered =
  Protocol.of_sql ~description:"SS2PL ordered by SLA weight, then arrival"
    ~name:"sla-ordered" ~guarantee:Protocol.Serializable ~ordered:true
    Queries.sla_ordered

let fcfs =
  Protocol.of_sql ~description:"First come, first served (no isolation)"
    ~name:"fcfs" ~guarantee:Protocol.Fifo_only ~ordered:true Queries.fcfs

let all =
  [
    ss2pl_sql;
    ss2pl_sql_at `Basic;
    ss2pl_sql_at `None;
    ss2pl_datalog;
    ss2pl_ocaml;
    ss2pl_ordered_sql;
    ss2pl_ordered_datalog;
    read_committed_sql;
    read_committed_datalog;
    c2pl;
    reader_offload;
    rationing ~threshold:1000;
    sla_ordered;
    fcfs;
  ]

let find name =
  List.find_opt (fun (p : Protocol.t) -> p.Protocol.name = name) all
