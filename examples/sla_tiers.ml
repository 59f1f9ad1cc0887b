(* SLA tiers: premium vs free customers (the paper's 1 motivating example).

     dune exec examples/sla_tiers.exe

   A web shop serves 20% premium and 80% free customers through the
   declarative middleware. The scheduling policy is written in the rule
   language: SS2PL for correctness, ordered by SLA weight. We compare
   response times against plain FCFS ordering. *)

open Ds_core
open Ds_model
open Ds_workload

let spec =
  {
    Spec.paper_default with
    Spec.n_objects = 10_000;
    selects_per_txn = 8;
    updates_per_txn = 4;
    sla_mix = [ (Sla.premium, 0.2); (Sla.free, 0.8) ];
  }

let premium_first =
  Rule_lang.compile
    {|# premium requests overtake free ones inside every batch
protocol premium-first
guarantee serializable
rules ss2pl
order by weight desc, arrival asc|}

let run name protocol =
  let cfg =
    {
      Middleware.default_config with
      Middleware.n_clients = 80;
      duration = 8.;
      spec;
      protocol;
      trigger = Trigger.Hybrid (0.01, 80);
      charge_scheduler_time = true;
    }
  in
  let s = Middleware.run cfg in
  Printf.printf "\n%s: %d committed, %d cycles\n" name
    s.Middleware.committed_txns s.Middleware.cycles;
  List.iter
    (fun (tier, mean, p95, n) ->
      Printf.printf "  %-8s  n=%-4d  mean=%6.1f ms   p95=%6.1f ms\n"
        (Sla.tier_to_string tier) n (1000. *. mean) (1000. *. p95))
    s.Middleware.latency_by_tier;
  s

let () =
  Printf.printf "workload: %s\n"
    (Format.asprintf "%a" Spec.pp spec);
  let sla = run "premium-first (rule language)" premium_first in
  let fcfs = run "ss2pl + fcfs order (baseline)" Builtin.ss2pl_sql in
  let mean_of tier (s : Middleware.stats) =
    match List.find_opt (fun (t, _, _, _) -> t = tier) s.Middleware.latency_by_tier with
    | Some (_, mean, _, _) -> mean
    | None -> nan
  in
  let speedup =
    mean_of Sla.Premium fcfs /. Float.max 1e-9 (mean_of Sla.Premium sla)
  in
  Printf.printf
    "\npremium mean latency improves %.2fx under the declarative SLA rule\n"
    speedup;
  Printf.printf
    "(one ORDER BY line in the protocol; no scheduler code was changed)\n"
