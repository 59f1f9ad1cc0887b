(** The declarative protocol specifications, as SQL text.

    [ss2pl] is the paper's Listing 1 verbatim (modulo whitespace). The others
    demonstrate the flexibility claim of §1/§2: each is a small textual edit
    of the SS2PL rules, not a scheduler reimplementation. *)

(** Strong 2PL (Listing 1): pending requests executable without violating
    SS2PL given the locks implied by [history]. No ORDER BY (as in the
    paper); callers order by request id. *)
val ss2pl : string

(** SS2PL plus intra-transaction ordering: a request is additionally blocked
    while an earlier request (lower INTRATA) of the same transaction is still
    pending. Drops the paper's "each transaction accesses an object only
    once / whole-transaction batch" assumption. *)
val ss2pl_ordered : string

(** Relaxed consistency in the spirit of read committed: read locks are not
    tracked, writers never wait for readers, and pending reads are not
    blocked by later pending reads; reads still cannot see uncommitted
    writes. *)
val read_committed : string

(** Consistency rationing (cf. Kraska et al., discussed in §2): objects below
    [threshold] are category A and scheduled under full SS2PL; objects at or
    above it are category C and only write-write ordered. *)
val rationing : threshold:int -> string

(** Same protocol with the threshold left as a [?] placeholder (all
    occurrences), so the category boundary can be moved at runtime without
    recompiling — the "adaptable relaxed consistency" of §2. *)
val rationing_parameterized : string

(** Conservative 2PL (static locking): a transaction's requests qualify only
    all-or-nothing — when none of its pending objects conflicts with a held
    lock or with a lower-numbered pending transaction. Deadlock-free by
    construction; meant for whole-transaction batches (the paper's
    pre-scheduled workloads). *)
val c2pl : string

(** Reader offload in the spirit of Ganymed (paper 2: "an algorithm
    differentiating between update and read-only transactions"): reads are
    served as if from a snapshot replica — they never take locks and are
    never blocked — while writes remain write-write ordered against locks
    and each other. *)
val reader_offload : string

(** SS2PL with SLA ordering: qualified requests ordered by descending SLA
    weight, then arrival, then id. Its top-level [ORDER BY] is the
    execution order. *)
val sla_ordered : string

(** FCFS: everything qualifies, in arrival (id) order. *)
val fcfs : string

(** Non-empty source lines of a specification (the paper's §3.4 productivity
    metric). *)
val spec_loc : string -> int
