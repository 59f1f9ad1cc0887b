(** The §4.3 measurement: declarative scheduling overhead at a given client
    count, without a running system. The [requests] table is filled with one
    in-flight request per concurrently active client, the [history] table
    with the uncommitted prefixes of those transactions ("filled with half of
    the requests of the corresponding workload, without requests of committed
    transactions"), and one full scheduler cycle is timed.

    The workload is {!Ds_workload.Spec.paper_default}. Each active
    transaction has executed a random prefix whose mean is half its
    requests, to match the paper's "half of the requests". *)

type measurement = {
  n_clients : int;
  pending : int;  (** requests-table rows at query time *)
  history : int;  (** history-table rows at query time *)
  qualified : int;  (** tuples returned by the protocol query *)
  cycle_time : float;  (** seconds for the full drain/insert/query/move cycle *)
  query_time : float;  (** seconds for the protocol query alone *)
  maintain_time : float;
      (** seconds of hash-index upkeep the table fill triggered before the
          cycle ran *)
}

(** [measure ?runs ~n_clients protocol] fills the tables for [n_clients]
    active clients and times [runs] full cycles on fresh table fills,
    returning the mean. *)
val measure : ?runs:int -> n_clients:int -> Protocol.t -> measurement

(** Amortized total scheduling overhead for a workload of [total_stmts]
    statements, as computed in §4.3.2: the scheduler must run
    [total_stmts / qualified_per_run] times, each costing [cycle_time]. *)
val amortized_overhead : measurement -> total_stmts:int -> float
