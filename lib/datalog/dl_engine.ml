open Ds_relal
open Dl_ast

exception Datalog_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Datalog_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Tuple sets                                                         *)
(* ------------------------------------------------------------------ *)

module Tuple_key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec loop i =
      i >= Array.length a || (Value.equal a.(i) b.(i) && loop (i + 1))
    in
    loop 0

  let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t
end

module Tup_tbl = Hashtbl.Make (Tuple_key)

type rel = { mutable tuples : Value.t array list; set : unit Tup_tbl.t }

let rel_create () = { tuples = []; set = Tup_tbl.create 64 }

let rel_mem r t = Tup_tbl.mem r.set t

let rel_add r t =
  if not (rel_mem r t) then begin
    Tup_tbl.add r.set t ();
    r.tuples <- t :: r.tuples;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Engine state                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  program : rule list;
  arities : (string, int) Hashtbl.t;
  strata_of : (string, int) Hashtbl.t;  (* IDB predicates only *)
  n_strata : int;
  edb : (string, rel) Hashtbl.t;
  mutable derived : (string, rel) Hashtbl.t option;  (* None = stale *)
}

let is_idb program pred = List.exists (fun r -> r.head.pred = pred) program

(* ------------------------------------------------------------------ *)
(* Static checks                                                      *)
(* ------------------------------------------------------------------ *)

let check_arities program =
  let arities = Hashtbl.create 16 in
  let note pred n =
    match Hashtbl.find_opt arities pred with
    | None -> Hashtbl.add arities pred n
    | Some m ->
      if m <> n then
        fail "predicate %s used with arities %d and %d" pred m n
  in
  List.iter
    (fun r ->
      note r.head.pred (List.length r.head.args);
      List.iter
        (function
          | Pos a | Neg a -> note a.pred (List.length a.args)
          | Cmp _ -> ())
        r.body)
    program;
  arities

let check_safety program =
  List.iter
    (fun r ->
      let positive_vars =
        List.concat_map
          (function Pos a -> vars_of a.args | Neg _ | Cmp _ -> [])
          r.body
      in
      let bound v = List.mem v positive_vars in
      List.iter
        (fun v ->
          if not (bound v) then
            fail "unsafe rule (head variable %s unbound): %s" v
              (Format.asprintf "%a" pp_rule r))
        (vars_of r.head.args);
      List.iter
        (function
          | Pos _ -> ()
          | Neg a ->
            List.iter
              (fun v ->
                if not (bound v) then
                  fail "unsafe rule (variable %s in negated literal unbound)" v)
              (vars_of a.args)
          | Cmp (_, x, y) ->
            List.iter
              (fun v ->
                if not (bound v) then
                  fail "unsafe rule (variable %s in comparison unbound)" v)
              (vars_of [ x; y ]))
        r.body;
      (* Wildcards in head or negated literals are almost always bugs. *)
      if List.exists (fun t -> t = Wildcard) r.head.args then
        fail "wildcard in rule head";
      List.iter
        (function
          | Neg a when List.exists (fun t -> t = Wildcard) a.args ->
            fail "wildcard in negated literal (quantify explicitly)"
          | Neg _ | Pos _ | Cmp _ -> ())
        r.body)
    program

(* Stratum assignment by relaxation; raises if recursion passes through
   negation. *)
let stratify program =
  let idb =
    List.sort_uniq String.compare (List.map (fun r -> r.head.pred) program)
  in
  let strata = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace strata p 0) idb;
  let n = List.length idb in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > n + 1 then
      fail "program is not stratifiable (recursion through negation)";
    List.iter
      (fun r ->
        let h = Hashtbl.find strata r.head.pred in
        List.iter
          (fun lit ->
            let bump pred delta =
              match Hashtbl.find_opt strata pred with
              | None -> () (* EDB: stratum 0 *)
              | Some s ->
                if h < s + delta then begin
                  Hashtbl.replace strata r.head.pred (s + delta);
                  changed := true
                end
            in
            match lit with
            | Pos a -> bump a.pred 0
            | Neg a -> bump a.pred 1
            | Cmp _ -> ())
          r.body)
      program
  done;
  strata

let create program =
  let arities = check_arities program in
  check_safety program;
  let strata_of = stratify program in
  let n_strata =
    Hashtbl.fold (fun _ s acc -> max acc (s + 1)) strata_of 1
  in
  {
    program;
    arities;
    strata_of;
    n_strata;
    edb = Hashtbl.create 16;
    derived = None;
  }

(* ------------------------------------------------------------------ *)
(* Facts                                                              *)
(* ------------------------------------------------------------------ *)

let edb_rel t pred =
  match Hashtbl.find_opt t.edb pred with
  | Some r -> r
  | None ->
    let r = rel_create () in
    Hashtbl.add t.edb pred r;
    r

let add_fact_row t pred row =
  if is_idb t.program pred then
    fail "cannot add facts to derived predicate %s" pred;
  (match Hashtbl.find_opt t.arities pred with
  | Some n when n <> Array.length row ->
    fail "fact %s has arity %d, expected %d" pred (Array.length row) n
  | Some _ | None -> ());
  ignore (rel_add (edb_rel t pred) row);
  t.derived <- None

let add_fact t pred values = add_fact_row t pred (Array.of_list values)

let clear_facts ?pred t =
  (match pred with
  | Some p -> Hashtbl.remove t.edb p
  | None -> Hashtbl.reset t.edb);
  t.derived <- None

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

type binding = (string * Value.t) list

let lookup (b : binding) v = List.assoc_opt v b

(* Match one tuple against atom args under a binding; None if clash. *)
let match_tuple (b : binding) args tuple =
  let rec loop b args i =
    match args with
    | [] -> Some b
    | arg :: rest -> (
      let cell = tuple.(i) in
      match arg with
      | Wildcard -> loop b rest (i + 1)
      | Const v -> if Value.equal v cell then loop b rest (i + 1) else None
      | Var name -> (
        match lookup b name with
        | Some v -> if Value.equal v cell then loop b rest (i + 1) else None
        | None -> loop ((name, cell) :: b) rest (i + 1)))
  in
  loop b args 0

let ground (b : binding) = function
  | Const v -> v
  | Var name -> (
    match lookup b name with
    | Some v -> v
    | None -> fail "internal: unbound variable %s at evaluation" name)
  | Wildcard -> fail "internal: wildcard grounding"

let cmp_holds c a b =
  let r = Value.compare a b in
  match c with
  | Eq -> r = 0
  | Neq -> r <> 0
  | Lt -> r < 0
  | Leq -> r <= 0
  | Gt -> r > 0
  | Geq -> r >= 0

(* Statically-known bound argument positions for each body literal: constants
   plus variables bound by preceding positive literals. These drive the
   hash-join indexes below. *)
let bound_positions_per_literal rule =
  let prebound = Hashtbl.create 8 in
  let per_literal =
    List.map
      (fun lit ->
        match lit with
        | Pos atom ->
          let positions =
            List.mapi
              (fun i arg ->
                match arg with
                | Const _ -> Some i
                | Var v when Hashtbl.mem prebound v -> Some i
                | Var _ | Wildcard -> None)
              atom.args
            |> List.filter_map Fun.id
          in
          List.iter
            (function Var v -> Hashtbl.replace prebound v () | Const _ | Wildcard -> ())
            atom.args;
          positions
        | Neg _ | Cmp _ -> [])
      rule.body
  in
  Array.of_list per_literal

(* Hash index over a tuple list on the given positions. *)
let build_index positions tuples =
  let tbl = Tup_tbl.create 64 in
  List.iter
    (fun tuple ->
      let key = Array.of_list (List.map (fun i -> tuple.(i)) positions) in
      let prev = Option.value ~default:[] (Tup_tbl.find_opt tbl key) in
      Tup_tbl.replace tbl key (tuple :: prev))
    tuples;
  tbl

let eval t =
  let derived = Hashtbl.create 16 in
  let rel_of pred =
    match Hashtbl.find_opt derived pred with
    | Some r -> r
    | None -> (
      match Hashtbl.find_opt t.edb pred with
      | Some r -> r
      | None ->
        let r = rel_create () in
        (* Register unknown predicates as empty so joins see them. *)
        if is_idb t.program pred then Hashtbl.add derived pred r
        else Hashtbl.add t.edb pred r;
        r)
  in
  List.iter
    (fun r -> Hashtbl.replace derived r.head.pred (rel_create ()))
    t.program;
  for stratum = 0 to t.n_strata - 1 do
    let rules =
      List.filter
        (fun r -> Hashtbl.find t.strata_of r.head.pred = stratum)
        t.program
    in
    let in_stratum pred =
      match Hashtbl.find_opt t.strata_of pred with
      | Some s -> s = stratum
      | None -> false
    in
    (* Evaluate one rule. [delta_at] selects which same-stratum positive
       literal (by index) must use the delta relation; [None] = use full
       relations everywhere (first round). *)
    let eval_rule delta delta_at rule =
      let results = ref [] in
      let bound_pos = bound_positions_per_literal rule in
      (* Per-literal hash index, built lazily on first visit: the source
         tuple list of a literal is stable within one eval_rule call. *)
      let indexes = Array.make (Array.length bound_pos) None in
      let rec go b lits idx =
        match lits with
        | [] ->
          let tuple = Array.of_list (List.map (ground b) rule.head.args) in
          results := tuple :: !results
        | Pos atom :: rest ->
          let source () =
            if delta_at = Some idx then
              match Hashtbl.find_opt delta atom.pred with
              | Some r -> r.tuples
              | None -> []
            else (rel_of atom.pred).tuples
          in
          let candidates =
            match bound_pos.(idx) with
            | [] -> source ()
            | positions ->
              let index =
                match indexes.(idx) with
                | Some ix -> ix
                | None ->
                  let ix = build_index positions (source ()) in
                  indexes.(idx) <- Some ix;
                  ix
              in
              let args = Array.of_list atom.args in
              let key =
                Array.of_list (List.map (fun p -> ground b args.(p)) positions)
              in
              Option.value ~default:[] (Tup_tbl.find_opt index key)
          in
          List.iter
            (fun tuple ->
              match match_tuple b atom.args tuple with
              | Some b' -> go b' rest (idx + 1)
              | None -> ())
            candidates
        | Neg atom :: rest ->
          let key = Array.of_list (List.map (ground b) atom.args) in
          if not (rel_mem (rel_of atom.pred) key) then go b rest (idx + 1)
        | Cmp (c, x, y) :: rest ->
          if cmp_holds c (ground b x) (ground b y) then go b rest (idx + 1)
      in
      go [] rule.body 0;
      !results
    in
    (* Round 0: naive evaluation against everything known so far. *)
    let delta = Hashtbl.create 16 in
    List.iter
      (fun rule ->
        List.iter
          (fun tuple ->
            if rel_add (rel_of rule.head.pred) tuple then begin
              let d =
                match Hashtbl.find_opt delta rule.head.pred with
                | Some r -> r
                | None ->
                  let r = rel_create () in
                  Hashtbl.add delta rule.head.pred r;
                  r
              in
              ignore (rel_add d tuple)
            end)
          (eval_rule (Hashtbl.create 0) None rule))
      rules;
    (* Semi-naive rounds: re-fire rules through each same-stratum positive
       literal bound to the last delta. *)
    let continue_ = ref (Hashtbl.length delta > 0) in
    while !continue_ do
      let next_delta = Hashtbl.create 16 in
      List.iter
        (fun rule ->
          List.iteri
            (fun idx lit ->
              match lit with
              | Pos atom when in_stratum atom.pred ->
                List.iter
                  (fun tuple ->
                    if rel_add (rel_of rule.head.pred) tuple then begin
                      let d =
                        match Hashtbl.find_opt next_delta rule.head.pred with
                        | Some r -> r
                        | None ->
                          let r = rel_create () in
                          Hashtbl.add next_delta rule.head.pred r;
                          r
                      in
                      ignore (rel_add d tuple)
                    end)
                  (eval_rule delta (Some idx) rule)
              | Pos _ | Neg _ | Cmp _ -> ())
            rule.body)
        rules;
      Hashtbl.reset delta;
      Hashtbl.iter (Hashtbl.add delta) next_delta;
      continue_ := Hashtbl.length delta > 0
    done
  done;
  derived

let ensure t =
  match t.derived with
  | Some d -> d
  | None ->
    let d = eval t in
    t.derived <- Some d;
    d

let query t pred =
  let d = ensure t in
  match Hashtbl.find_opt d pred with
  | Some r -> List.rev r.tuples
  | None -> (
    match Hashtbl.find_opt t.edb pred with
    | Some r -> List.rev r.tuples
    | None -> [])

let strata t =
  let buckets = Array.make t.n_strata [] in
  Hashtbl.iter (fun p s -> buckets.(s) <- p :: buckets.(s)) t.strata_of;
  Array.to_list (Array.map (List.sort String.compare) buckets)
  |> List.filter (fun l -> l <> [])

let rule_count t = List.length t.program
