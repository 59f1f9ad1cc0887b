type cycle_row = {
  cycle : int;
  drained : int;
  pending_before : int;
  qualified : int;
  admit_ratio : float;
  query_time : float;
  index_time : float;
}

type worker_row = {
  worker : int;
  executed : int;
  busy : float;
  utilization : float;
}

type t = {
  tiers : (string, Ds_stats.Histogram.t) Hashtbl.t;
  cycle_rows : cycle_row Ds_util.Vec.t;
  mutable n_cycles : int;
  mutable workers : worker_row list;
}

let create () =
  {
    tiers = Hashtbl.create 4;
    cycle_rows = Ds_util.Vec.create ();
    n_cycles = 0;
    workers = [];
  }

let set_workers t rows = t.workers <- rows

let workers t = t.workers

let tier_hist t tier =
  match Hashtbl.find_opt t.tiers tier with
  | Some h -> h
  | None ->
    let h = Ds_stats.Histogram.create () in
    Hashtbl.add t.tiers tier h;
    h

let observe_latency t ~tier dt = Ds_stats.Histogram.add (tier_hist t tier) dt

let record_cycle t ~drained ~pending_before ~qualified ~query_time
    ?(index_time = 0.) () =
  let row =
    {
      cycle = t.n_cycles;
      drained;
      pending_before;
      qualified;
      (* [pending_before] is sampled before the queue drain, so the work the
         protocol query actually saw is the pending backlog plus the drain. *)
      admit_ratio =
        float_of_int qualified /. float_of_int (max 1 (pending_before + drained));
      query_time;
      index_time;
    }
  in
  t.n_cycles <- t.n_cycles + 1;
  Ds_util.Vec.push t.cycle_rows row

(* Premium, standard, free first (urgency order); anything else after,
   alphabetically, so custom tier labels still render deterministically. *)
let tier_rank tier =
  let known =
    List.mapi
      (fun i tr -> (Ds_model.Sla.tier_to_string tr, i))
      Ds_model.Sla.all_tiers
  in
  match List.assoc_opt tier known with Some i -> (i, "") | None -> (max_int, tier)

let sort_tiers rows =
  List.sort
    (fun (a, _, _, _, _) (b, _, _, _, _) -> compare (tier_rank a) (tier_rank b))
    rows

let tier_quantiles t =
  Hashtbl.fold
    (fun tier h acc ->
      if Ds_stats.Histogram.count h = 0 then acc
      else
        ( tier,
          Ds_stats.Histogram.count h,
          Ds_stats.Histogram.median h,
          Ds_stats.Histogram.p95 h,
          Ds_stats.Histogram.p99 h )
        :: acc)
    t.tiers []
  |> sort_tiers

let cycles t = Ds_util.Vec.to_list t.cycle_rows

let render_latency_rows rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %8s %12s %12s %12s\n" "tier" "n" "p50(s)" "p95(s)"
       "p99(s)");
  List.iter
    (fun (tier, n, p50, p95, p99) ->
      Buffer.add_string buf
        (Printf.sprintf "%-10s %8d %12.6f %12.6f %12.6f\n" tier n p50 p95 p99))
    rows;
  if rows = [] then Buffer.add_string buf "  (no completed transactions)\n";
  Buffer.contents buf

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "latency by SLA tier:\n";
  Buffer.add_string buf (render_latency_rows (tier_quantiles t));
  let rows = cycles t in
  let n = List.length rows in
  Buffer.add_string buf (Printf.sprintf "scheduler cycles: %d\n" n);
  if n > 0 then begin
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
    let fn = float_of_int n in
    Buffer.add_string buf
      (Printf.sprintf
         "  mean drain=%.2f  mean pending=%.2f  mean admit ratio=%.3f  mean \
          query time=%.6fs  mean index time=%.6fs\n"
         (sum (fun r -> float_of_int r.drained) /. fn)
         (sum (fun r -> float_of_int r.pending_before) /. fn)
         (sum (fun r -> r.admit_ratio) /. fn)
         (sum (fun r -> r.query_time) /. fn)
         (sum (fun r -> r.index_time) /. fn))
  end;
  if t.workers <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "parallel backend: %d worker(s)\n%-10s %10s %12s %12s\n"
         (List.length t.workers) "" "executed" "busy(s)" "util");
    List.iter
      (fun w ->
        Buffer.add_string buf
          (Printf.sprintf "%-10s %10d %12.6f %12.3f\n"
             (Printf.sprintf "worker %d" w.worker)
             w.executed w.busy w.utilization))
      t.workers
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* offline analysis over a loaded trace                               *)
(* ------------------------------------------------------------------ *)

let latencies_of_events events =
  Span.build events
  |> List.filter_map (fun (tree : Span.tree) ->
         Option.map (fun l -> (tree.Span.tier, l)) (Span.latency tree))

let latency_rows events =
  let t = create () in
  List.iter (fun (tier, l) -> observe_latency t ~tier l)
    (latencies_of_events events);
  tier_quantiles t

let lock_wait_offenders ?(top = 10) events =
  (* open waits keyed by (ta, seq, obj); totals keyed by obj *)
  let open_waits : (int * int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let totals : (int, float * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      let key = (e.Trace.ta, e.Trace.seq, e.Trace.obj) in
      match e.Trace.kind with
      | Trace.Lock_wait -> Hashtbl.replace open_waits key e.Trace.at
      | Trace.Lock_grant -> (
        match Hashtbl.find_opt open_waits key with
        | None -> ()
        | Some t0 ->
          Hashtbl.remove open_waits key;
          let wait = e.Trace.at -. t0 in
          let total, n =
            Option.value ~default:(0., 0) (Hashtbl.find_opt totals e.Trace.obj)
          in
          Hashtbl.replace totals e.Trace.obj (total +. wait, n + 1))
      | _ -> ())
    events;
  Hashtbl.fold (fun obj (total, n) acc -> (obj, total, n) :: acc) totals []
  |> List.sort (fun (o1, t1, _) (o2, t2, _) ->
         match compare t2 t1 with 0 -> compare o1 o2 | c -> c)
  |> List.filteri (fun i _ -> i < top)
