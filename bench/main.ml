(* Benchmark harness: regenerates the tables and figures of the paper's
   evaluation (Figure 2, 4.2.2, 4.3.2, Tables 1 and 2) and the protocol
   formulation comparisons.

     dune exec bench/main.exe                 -- all experiments, quick scale
     dune exec bench/main.exe -- figure2 --window 240 --runs 3
     dune exec bench/main.exe -- list

   Quick scale uses shorter measurement windows than the paper's 240 s; the
   reported ratios are window-relative, so the shapes are comparable. *)

open Ds_core
open Ds_server
module Tablefmt = Ds_util.Tablefmt

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Tables                                                             *)
(* ------------------------------------------------------------------ *)

(* One column of an experiment's result rows. *)
type 'r col = { head : string; align : Tablefmt.align; cell : 'r -> string }

let col ?(align = Tablefmt.Right) head cell = { head; align; cell }
let int_col head f = col head (fun r -> string_of_int (f r))

(* The table shows [scale *. f r] through [fmt]. *)
let float_col ?(scale = 1.) fmt head f =
  col head (fun r -> Printf.sprintf fmt (scale *. f r))

(* A float cell that prints "-" where the point has no value. *)
let opt_col fmt head f =
  col head (fun r ->
      match f r with Some x -> Printf.sprintf fmt x | None -> "-")

let text_col head f = col ~align:Tablefmt.Left head f

let table cols rows =
  let t =
    Tablefmt.create
      ~aligns:(List.map (fun c -> c.align) cols)
      (List.map (fun c -> c.head) cols)
  in
  List.iter (fun r -> Tablefmt.add_row t (List.map (fun c -> c.cell r) cols)) rows;
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* Shared measurement machinery                                       *)
(* ------------------------------------------------------------------ *)

(* Averaged MU statistics + SU replay time for one client count. A point
   whose runs committed no statement has no SU time: replaying an empty
   schedule would cost only the final commit's service time. *)
type mu_point = {
  clients : int;
  committed_stmts : float;
  su_time : float option;
  ratio_pct : float option;  (** MU window / SU replay of the committed schedule *)
  deadlocks : float;
  cpu_util : float;
}

let measure_mu ~window ~runs clients =
  let stmts = ref 0. and su = ref 0. and dl = ref 0. and cpu = ref 0. in
  for r = 1 to runs do
    let s =
      Native_sim.run
        {
          Native_sim.default_config with
          Native_sim.n_clients = clients;
          duration = window;
          seed = 41 + r;
          log_schedule = true;
        }
    in
    stmts := !stmts +. float_of_int s.Native_sim.committed_stmts;
    if s.Native_sim.committed_stmts > 0 then
      su := !su +. Replay.single_user_time Cost_model.default s.Native_sim.schedule;
    dl := !dl +. float_of_int s.Native_sim.deadlocks;
    cpu := !cpu +. s.Native_sim.cpu_utilization
  done;
  let f = float_of_int runs in
  let su_time = if !stmts > 0. then Some (!su /. f) else None in
  {
    clients;
    committed_stmts = !stmts /. f;
    su_time;
    ratio_pct = Option.map (fun su -> 100. *. window /. su) su_time;
    deadlocks = !dl /. f;
    cpu_util = !cpu /. f;
  }

let probe ~runs clients protocol =
  Overhead_probe.measure ~runs ~n_clients:clients protocol

(* ------------------------------------------------------------------ *)
(* E1 — Figure 2                                                      *)
(* ------------------------------------------------------------------ *)

let figure2 ~window ~runs () =
  section
    (Printf.sprintf
       "Figure 2: execution time MU / execution time SU (%%), %.0f s window, \
        %d run(s) per point"
       window runs);
  let rows =
    List.map (measure_mu ~window ~runs)
      [ 1; 25; 50; 100; 150; 200; 250; 300; 350; 400; 450; 500; 550; 600 ]
  in
  table
    [
      int_col "clients" (fun (p : mu_point) -> p.clients);
      float_col "%.0f" "MU stmts" (fun p -> p.committed_stmts);
      opt_col "%.1f" "SU time (s)" (fun p -> p.su_time);
      opt_col "%.0f" "MU/SU (%)" (fun p -> p.ratio_pct);
      float_col "%.0f" "deadlocks" (fun p -> p.deadlocks);
    ]
    rows;
  (* ASCII rendition of the figure (log-scale y, like the paper's plot). *)
  note "";
  note "log10(MU/SU %%) vs clients  (paper: ~100%% at 1 client, knee before 500)";
  List.iter
    (fun p ->
      Option.iter
        (fun ratio ->
          let stars = int_of_float ((log10 (Float.max 100. ratio) -. 1.9) *. 25.) in
          note "%5d | %s %.0f%%" p.clients (String.make (max 1 stars) '#') ratio)
        p.ratio_pct)
    rows

(* ------------------------------------------------------------------ *)
(* E2 — §4.2.2 native scheduler overhead                              *)
(* ------------------------------------------------------------------ *)

let native_overhead ~window ~runs () =
  section
    "Native scheduler overhead (paper 4.2.2; paper at 240 s: 300 clients -> \
     550055 stmts, SU 194 s, overhead 46 s; 500 clients -> 48267 stmts, SU 15 \
     s, overhead 225 s)";
  table
    [
      int_col "clients" (fun (p : mu_point) -> p.clients);
      float_col "%.0f" "MU stmts" (fun p -> p.committed_stmts);
      opt_col "%.1f" "SU time (s)" (fun p -> p.su_time);
      opt_col "%.1f" "overhead (s)" (fun p ->
          Option.map (fun su -> window -. su) p.su_time);
      float_col ~scale:100. "%.0f" "CPU util (%)" (fun p -> p.cpu_util);
    ]
    (List.map (measure_mu ~window ~runs) [ 300; 500 ]);
  note "window = %.0f s; 'overhead' = window - SU replay time (paper's method)"
    window

(* ------------------------------------------------------------------ *)
(* E3 — §4.3.2 declarative scheduling overhead                        *)
(* ------------------------------------------------------------------ *)

let declarative_overhead ~runs () =
  section
    "Declarative scheduling overhead (paper 4.3.2; paper: 358 ms per cycle at \
     300 clients, 545 ms at 500; qualified ~ clients/2)";
  table
    [
      int_col "clients" fst;
      int_col "pending" (fun (_, m) -> m.Overhead_probe.pending);
      int_col "history" (fun (_, m) -> m.Overhead_probe.history);
      int_col "qualified" (fun (_, m) -> m.Overhead_probe.qualified);
      float_col ~scale:1000. "%.3f" "cycle (ms)" (fun (_, m) ->
          m.Overhead_probe.cycle_time);
      float_col ~scale:1000. "%.3f" "query (ms)" (fun (_, m) ->
          m.Overhead_probe.query_time);
      float_col ~scale:1000. "%.3f" "fill upkeep (ms)" (fun (_, m) ->
          m.Overhead_probe.maintain_time);
    ]
    (List.map
       (fun clients -> (clients, probe ~runs clients Builtin.ss2pl_sql))
       [ 50; 100; 200; 300; 400; 500; 600 ]);
  note
    "One cycle = drain queue + insert pending + run Listing 1 + move \
     qualified to history (the paper's 4.3.1 measurement). Fill upkeep = \
     index and view maintenance the table fill triggered before the cycle: \
     Listing 1's history-side lock tables are views that catch up there."

(* ------------------------------------------------------------------ *)
(* E3b — crossover: native vs declarative amortized overhead           *)
(* ------------------------------------------------------------------ *)

let crossover ~window ~runs ~cycle_scale () =
  section
    (Printf.sprintf
       "Crossover: native scheduling overhead vs amortized declarative \
        overhead (cycle-time scale factor %.0fx)"
       cycle_scale);
  note
    "The paper (2010, commercial DBMS as query processor) found the \
     crossover between 300 and 500 clients. Our in-process OCaml engine \
     evaluates Listing 1 orders of magnitude faster, which moves the \
     crossover to much lower client counts; --cycle-scale emulates a slower \
     scheduler database.";
  let rows =
    List.map
      (fun clients ->
        let p = measure_mu ~window ~runs clients in
        let m = probe ~runs clients Builtin.ss2pl_sql in
        let native_ovh = window -. Option.value p.su_time ~default:0. in
        let decl_ovh =
          cycle_scale
          *. Overhead_probe.amortized_overhead m
               ~total_stmts:(int_of_float p.committed_stmts)
        in
        let cycles_needed =
          p.committed_stmts /. float_of_int (max 1 m.Overhead_probe.qualified)
        in
        (clients, native_ovh, decl_ovh, cycles_needed, m.Overhead_probe.maintain_time))
      [ 1; 10; 25; 50; 100; 200; 300; 400; 500 ]
  in
  table
    [
      int_col "clients" (fun (c, _, _, _, _) -> c);
      float_col "%.1f" "native ovh (s)" (fun (_, n, _, _, _) -> n);
      float_col "%.1f" "declarative ovh (s)" (fun (_, _, d, _, _) -> d);
      float_col "%.0f" "cycles needed" (fun (_, _, _, k, _) -> k);
      float_col ~scale:1000. "%.2f" "fill upkeep (ms)" (fun (_, _, _, _, u) -> u);
      text_col "winner" (fun (_, n, d, _, _) ->
          if d < n then "declarative" else "native");
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E4 — Table 1                                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1: related approaches (P performance, QoS, D declarativity, F \
     flexibility, HS high scalability)";
  print_string (Related.render_table ())

(* ------------------------------------------------------------------ *)
(* E5 — Table 2                                                       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: attributes of the requests / history / rte tables";
  table
    [ text_col "Attribute" fst; text_col "Description" snd ]
    [
      ("ID", "Consecutive request number");
      ("TA", "Transaction number");
      ("INTRATA", "Request number within a transaction");
      ("Operation", "Operation type (read/write/abort/commit)");
      ("Object", "Object number");
    ];
  note "Implemented schema: %s"
    (Format.asprintf "%a" Ds_relal.Schema.pp Relations.schema)

(* ------------------------------------------------------------------ *)
(* A3 — SQL vs Datalog vs hand-coded                                  *)
(* ------------------------------------------------------------------ *)

let succinctness () =
  section
    "Ablation A3a: specification size (paper 3.4 productivity metric, lines)";
  table
    [
      text_col "protocol" (fun (p : Protocol.t) -> p.Protocol.name);
      text_col "language" (fun p ->
          match p.Protocol.language with
          | `Sql -> "SQL"
          | `Datalog -> "Datalog"
          | `Ocaml -> "OCaml (imperative)");
      int_col "spec lines" (fun p -> p.Protocol.spec_loc);
    ]
    [
      Builtin.ss2pl_sql;
      Builtin.ss2pl_datalog;
      Builtin.ss2pl_ocaml;
      Builtin.ss2pl_ordered_sql;
      Builtin.ss2pl_ordered_datalog;
      Builtin.read_committed_sql;
      Builtin.read_committed_datalog;
    ]

let datalog_vs_sql ~runs () =
  section "Ablation A3b: protocol evaluation cost, SQL vs Datalog vs OCaml";
  let cycle m = 1000. *. m.Overhead_probe.cycle_time in
  table
    [
      int_col "clients" (fun (c, _, _, _) -> c);
      float_col "%.2f" "SQL (ms)" (fun (_, sql, _, _) -> cycle sql);
      float_col ~scale:1000. "%.2f" "SQL fill upkeep (ms)" (fun (_, sql, _, _) ->
          sql.Overhead_probe.maintain_time);
      float_col "%.2f" "Datalog (ms)" (fun (_, _, dl, _) -> cycle dl);
      float_col "%.2f" "OCaml (ms)" (fun (_, _, _, oc) -> cycle oc);
    ]
    (List.map
       (fun clients ->
         ( clients,
           probe ~runs clients Builtin.ss2pl_sql,
           probe ~runs clients Builtin.ss2pl_datalog,
           probe ~runs clients Builtin.ss2pl_ocaml ))
       [ 50; 150; 300; 500 ])

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* Every experiment, in the order [all] runs them. *)
let experiments ~window ~runs ~cycle_scale =
  [
    ("table1", table1);
    ("table2", table2);
    ("figure2", figure2 ~window ~runs);
    ("native-overhead", native_overhead ~window ~runs);
    ("declarative-overhead", declarative_overhead ~runs);
    ("crossover", crossover ~window ~runs ~cycle_scale);
    ("succinctness", succinctness);
    ("datalog-vs-sql", datalog_vs_sql ~runs);
  ]

let () =
  let open Cmdliner in
  let window =
    Arg.(value & opt float 24. & info [ "window" ] ~doc:"MU measurement window (virtual s); the paper uses 240.")
  in
  let runs = Arg.(value & opt int 2 & info [ "runs" ] ~doc:"Runs per point (averaged).") in
  let cycle_scale =
    Arg.(value & opt float 1. & info [ "cycle-scale" ] ~doc:"Scale factor on declarative cycle times (emulates the paper's slower scheduler DBMS; try 100).")
  in
  let experiment =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT"
           ~doc:"One of: all, table1, table2, figure2, native-overhead, declarative-overhead, crossover, succinctness, datalog-vs-sql, list.")
  in
  let main experiment window runs cycle_scale =
    let experiments = experiments ~window ~runs ~cycle_scale in
    match experiment with
    | "all" -> List.iter (fun (_, run) -> run ()) experiments
    | "list" -> print_endline (String.concat " " ("all" :: List.map fst experiments))
    | name -> (
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %s (try 'list')\n" name;
        exit 2)
  in
  let term = Term.(const main $ experiment $ window $ runs $ cycle_scale) in
  let info = Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures" in
  exit (Cmd.eval (Cmd.v info term))
