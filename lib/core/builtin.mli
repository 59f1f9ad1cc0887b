(** The protocol library shipped with the scheduler. *)

(** Listing 1, verbatim, through the SQL engine. *)
val ss2pl_sql : Protocol.t

(** Same protocol at a given optimizer level (ablation A2). *)
val ss2pl_sql_at : Ds_relal.Optimizer.level -> Protocol.t

(** SS2PL as a Datalog program (ablation A3). *)
val ss2pl_datalog : Protocol.t

(** Hand-coded SS2PL (the imperative state of the art), answered per
    pending request from [history]'s indexes; {!Oracle.ss2pl_qualify} is its
    reference and its reported spec. *)
val ss2pl_ocaml : Protocol.t

(** SS2PL plus intra-transaction ordering (SQL / Datalog). *)
val ss2pl_ordered_sql : Protocol.t

val ss2pl_ordered_datalog : Protocol.t

(** Relaxed consistency (read-committed style), SQL and Datalog. *)
val read_committed_sql : Protocol.t

val read_committed_datalog : Protocol.t

(** Consistency rationing: SS2PL for objects below [threshold], write-write
    ordering only above. *)
val rationing : threshold:int -> Protocol.t

(** Rationing with a runtime-adjustable threshold ([?] placeholder): the
    returned setter moves the category boundary from the next cycle on —
    "adaptable relaxed consistency" (§2). *)
val rationing_dynamic : initial_threshold:int -> unit -> Protocol.t * (int -> unit)

(** Conservative 2PL: all-or-nothing per transaction; deadlock-free. *)
val c2pl : Protocol.t

(** Ganymed-style reader offload: reads never block; writes stay
    write-write ordered. *)
val reader_offload : Protocol.t

(** SS2PL with SLA-weight ordering (needs extended relations). *)
val sla_ordered : Protocol.t

(** FCFS passthrough ordering (no isolation). *)
val fcfs : Protocol.t

(** All fixed protocols, for the registry/CLI. *)
val all : Protocol.t list

(** Lookup by name. *)
val find : string -> Protocol.t option
