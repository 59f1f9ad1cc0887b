(** Executes one scenario through the {e real} middleware / scheduler /
    worker-pool / journal stack (no mocks: {!Ds_core.Middleware.run_sharded}
    with a live write-ahead journal and a lifecycle trace sink), then applies
    the complete {!Invariant} battery to what the run left behind.

    Runs are deterministic: wall-clock cycle charging is off, every
    probabilistic draw comes from the scenario seed, and the outcome carries
    no wall-clock-derived data — the same scenario always yields the same
    outcome, which is what makes swarm reports diffable and failures
    replayable bit-for-bit. *)

type outcome = {
  scenario : Scenario.t;
  stats : Ds_core.Middleware.stats;
  invariants : (string * (unit, string) result) list;
      (** complete battery, in {!Invariant.battery} order *)
}

(** @raise Invalid_argument when the scenario fails {!Scenario.validate}. *)
val run : Scenario.t -> outcome

(** [formulation_diff s p] runs [s] as given and again with [p] in place of
    its protocol, and compares the two runs as the formulation-equivalence
    invariant does ({!Invariant.same_formulation}). {!run} compares with a
    sibling formulation of the scenario's protocol — another of
    [ss2pl-sql], [ss2pl-sql-basic], [ss2pl-sql-noopt], [ss2pl-datalog] and
    [ss2pl-ocaml], or the other of [ss2pl-ordered-sql] and
    [ss2pl-ordered-datalog] — picked from {!Scenario.t.seed} alone; a
    protocol that decides differently must give [Error]. Any
    {!Scenario.inject} is ignored. *)
val formulation_diff :
  Scenario.t -> Ds_core.Protocol.t -> (unit, string) result

(** Failed invariants as [(name, detail)], battery order. *)
val failures : outcome -> (string * string) list

val ok : outcome -> bool

(** The failover durability audit of a promoted replication session: every
    transaction a client saw committed strictly before the [Failover] trace
    event, with its stream LSN, looked up as an executed ([Q]) record in
    the promoted standby journal ({!Ds_core.Journal.qualified_tas}) and
    classified against the final watermark by
    {!Ds_check.Equivalence.check_failover}. *)
val failover_report :
  Ds_replica.Session.t ->
  trace_events:Ds_obs.Trace.event list ->
  Ds_check.Equivalence.failover_report
