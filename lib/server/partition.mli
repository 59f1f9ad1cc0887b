(** Conflict-class partitioning of an admitted batch.

    The parallel backend (see {!Worker_pool}) splits each batch the scheduler
    admits into the connected components of its item-conflict graph: one node
    per request, an edge between two requests when they belong to the same
    transaction (program order) or when their operations conflict on the same
    object (ww, wr, rw — read/read pairs commute and add no edge). Requests
    in different classes are pairwise conflict-free, so the classes can
    execute on different workers in any interleaving while every conflicting
    pair keeps its batch order — the construction of "Early Scheduling in
    Parallel State Machine Replication" (Alchieri et al.) applied to the
    declarative scheduler's per-cycle batches. *)

open Ds_model

type cls = {
  id : int;  (** 0-based, in order of the class's first request in the batch *)
  requests : Request.t list;  (** batch order preserved *)
}

val size : cls -> int

(** [partition batch] — every request of [batch] lands in exactly one class;
    no two requests in different classes conflict or share a transaction;
    within a class, batch order is preserved. Deterministic in the batch
    order alone (no randomness, no clocks). *)
val partition : Request.t list -> cls list
