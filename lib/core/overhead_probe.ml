open Ds_model
open Ds_workload

type measurement = {
  n_clients : int;
  pending : int;
  history : int;
  qualified : int;
  cycle_time : float;
  query_time : float;
  maintain_time : float;
}

(* One active transaction per client on the paper's default workload: a
   random executed prefix (uniform in [0, length], so the mean is half the
   requests) goes to history; the first unexecuted request is the client's
   pending request. *)
let fill ~n_clients sched run_idx =
  let rng = Ds_sim.Rng.create (42 + (1000 * run_idx)) in
  let spec = Spec.paper_default in
  let gen = Generator.create spec rng in
  let rels = Scheduler.relations sched in
  Relations.clear rels;
  let max_prefix = Spec.statements_per_txn spec - 1 in
  for c = 1 to n_clients do
    let txn = Generator.next_txn gen ~ta:c in
    let prefix_len = Ds_sim.Rng.int rng (max_prefix + 1) in
    (* The executed prefix is history; the first unexecuted request is the
       client's pending request (closed-loop clients issue one at a time). *)
    let rec walk i = function
      | [] -> ()
      | (r : Request.t) :: rest ->
        if i < prefix_len then begin
          Relations.insert_history rels r;
          walk (i + 1) rest
        end
        else Scheduler.submit sched r
    in
    walk 0 txn.Txn.requests
  done;
  (* [Relations.clear] dropped the tables' hash indexes. A running scheduler
     keeps them built; build them here, or the first probe in the timed
     cycle would. *)
  List.iter Ds_relal.Table.build_indexes [ rels.Relations.requests; rels.Relations.history ]

let measure ?(runs = 5) ~n_clients protocol =
  if runs <= 0 then invalid_arg "Overhead_probe.measure: runs <= 0";
  let sched = Scheduler.create ~prune_history_each_cycle:false protocol in
  let acc_cycle = ref 0. and acc_query = ref 0. and acc_maintain = ref 0. in
  let acc_qualified = ref 0 and acc_pending = ref 0 and acc_history = ref 0 in
  for run_idx = 1 to runs do
    (* The fill extends the tables' hash indexes outside the timed cycle;
       that upkeep is reported on its own. *)
    let m0 = Ds_relal.Table.maintenance_time () in
    fill ~n_clients sched run_idx;
    acc_maintain := !acc_maintain +. (Ds_relal.Table.maintenance_time () -. m0);
    (* The fill allocates far more than one cycle does; settle the garbage
       collector's debt for it here, or the timed cycle pays it. *)
    Gc.full_major ();
    let pending_queue = Scheduler.queue_length sched in
    let history = Relations.history_count (Scheduler.relations sched) in
    let _, stats = Scheduler.cycle sched in
    acc_cycle := !acc_cycle +. Scheduler.total_time stats.Scheduler.times;
    acc_query := !acc_query +. stats.Scheduler.times.Scheduler.query;
    acc_qualified := !acc_qualified + stats.Scheduler.qualified;
    acc_pending := !acc_pending + pending_queue;
    acc_history := !acc_history + history
  done;
  let f = float_of_int runs in
  {
    n_clients;
    pending = !acc_pending / runs;
    history = !acc_history / runs;
    qualified = !acc_qualified / runs;
    cycle_time = !acc_cycle /. f;
    query_time = !acc_query /. f;
    maintain_time = !acc_maintain /. f;
  }

let amortized_overhead m ~total_stmts =
  if m.qualified <= 0 then infinity
  else
    let runs_needed =
      float_of_int total_stmts /. float_of_int m.qualified
    in
    runs_needed *. m.cycle_time
