(* A small web shop scheduled by an application-specific protocol written
   entirely in the rule language with inline Datalog — the "novel
   application-specific consistency protocols" of the paper's abstract.

     dune exec examples/webshop.exe

   Object space:
     0 ..  999   stock counters   (must be serializable: no overselling)
     1000 .. 1999  user baskets   (single-owner: only write-write ordered)
     2000 ..       catalog pages  (read-mostly: never block)

   The protocol below encodes exactly that, in ~15 lines of rules. *)

open Ds_core
open Ds_model

let shop_protocol =
  Rule_lang.compile
    {|protocol webshop
guarantee custom:shop
rules datalog {
  % finished transactions hold no locks
  finished(TA) :- history_terminal(_, TA, _, 'c').
  finished(TA) :- history_terminal(_, TA, _, 'a').
  wlocked(O, TA) :- history(_, TA, _, 'w', O), not finished(TA).
  rlocked(O, TA) :- history(_, TA, _, 'r', O), not finished(TA).

  % stock range: full SS2PL
  blocked(TA, I) :- requests(_, TA, I, _, O), O < 1000, wlocked(O, T2), TA <> T2.
  blocked(TA, I) :- requests(_, TA, I, 'w', O), O < 1000, rlocked(O, T2), TA <> T2.
  blocked(TA, I) :- requests(_, TA, I, 'w', O), O < 1000, requests(_, T1, _, _, O), TA > T1.
  blocked(TA, I) :- requests(_, TA, I, _, O), O < 1000, requests(_, T1, _, 'w', O), TA > T1.

  % basket range: write-write ordering only
  blocked(TA, I) :- requests(_, TA, I, 'w', O), O >= 1000, O < 2000, wlocked(O, T2), TA <> T2.
  blocked(TA, I) :- requests(_, TA, I, 'w', O), O >= 1000, O < 2000, requests(_, T1, _, 'w', O), TA > T1.

  % catalog range (>= 2000): never blocked
  qualified(TA, I) :- requests(_, TA, I, _, _), not blocked(TA, I).
  qualified(TA, I) :- terminal_requests(_, TA, I, _).
}|}

(* An admin transaction (T10) has updated catalog page 2042 and not yet
   committed — under strict locking that blocks every browser. *)
let admin_history = [ Request.v 10 1 Op.Write 2042 ]

(* Three shoppers interleave: Alice buys (stock 5 + her basket 1001),
   Bob also wants stock 5, Carol only browses the catalog. *)
let shopping_batch =
  [
    Request.v 1 1 Op.Read 5;      (* Alice checks stock *)
    Request.v 1 2 Op.Write 1001;  (* Alice updates her basket *)
    Request.v 2 1 Op.Write 5;     (* Bob decrements the same stock *)
    Request.v 2 2 Op.Write 1002;  (* Bob's own basket *)
    Request.v 3 1 Op.Read 2042;   (* Carol browses *)
    Request.v 3 2 Op.Read 2097;   (* ... more browsing *)
  ]

let () =
  Printf.printf "protocol: %s\n\n"
    (Format.asprintf "%a" Protocol.pp shop_protocol);
  let load_history sched =
    let rels = Scheduler.relations sched in
    List.iter (Relations.insert_history rels) admin_history
  in
  let sched = Scheduler.create shop_protocol in
  load_history sched;
  List.iter (Scheduler.submit sched) shopping_batch;
  let qualified, stats = Scheduler.cycle sched in
  Printf.printf "batch of %d, qualified %d under the shop protocol:\n"
    stats.Scheduler.drained stats.Scheduler.qualified;
  List.iter (fun r -> Printf.printf "  %s\n" (Request.to_string r)) qualified;
  Printf.printf
    "\nBob's write on stock 5 waits for Alice (serializable range); the\n\
     baskets and Carol's catalog reads go through immediately, even though\n\
     an uncommitted admin write touched page 2042.\n\n";
  (* Compare against one-size-fits-all SS2PL on the same batch. *)
  let strict = Scheduler.create Builtin.ss2pl_sql in
  load_history strict;
  List.iter (Scheduler.submit strict) shopping_batch;
  let q2, _ = Scheduler.cycle strict in
  Printf.printf "plain SS2PL on the same batch qualifies only %d request(s):\n"
    (List.length q2);
  List.iter (fun r -> Printf.printf "  %s\n" (Request.to_string r)) q2;
  Printf.printf
    "\n(under SS2PL Carol's read of page 2042 waits for the admin commit;\n\
     the shop protocol keeps the stock-range guarantees and lets it through)\n"
