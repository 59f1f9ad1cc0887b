open Ra

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                               *)
(* ------------------------------------------------------------------ *)

(* Expressions whose evaluation cannot raise on any row: [value] may yield
   any value; [pred] must yield a boolean or NULL, because AND, OR and NOT
   reject anything else. Arithmetic (a type error on text), Outer and
   Exists (correlated) are out. Only these are compiled into direct tests,
   and only these may be pushed below a projection into a probe. *)
let rec value = function
  | Col _ | Const _ | Param _ -> true
  | Case (arms, default) ->
    List.for_all (fun (c, r) -> pred c && value r) arms && value default
  | e -> pred e

and pred = function
  | Const (Value.Bool _ | Value.Null) -> true
  | Cmp (_, a, b) -> value a && value b
  | Is_null e | In_list (e, _) -> value e
  | And (a, b) | Or (a, b) -> pred a && pred b
  | Not e -> pred e
  | Case (arms, default) ->
    List.for_all (fun (c, r) -> pred c && pred r) arms && pred default
  | Col _ | Outer _ | Const _ | Param _ | Arith _ | Exists _ -> false

type row = Value.t array

(* Columns, constants and placeholders are read directly; any other
   expression goes through [Eval.eval_expr], the reference evaluator. *)
let compile = function
  | Col i -> fun row -> row.(i)
  | Const v -> fun _ -> v
  | Param r -> fun _ -> !r
  | e -> fun row -> Eval.eval_expr ~row e

(* [compile] over a join's left and right rows side by side: [Col i] reads
   the left row below the left arity [la], the right row from there on, so
   nothing builds the combined row unless the reference evaluator needs it.
   [la = max_int] compiles over one row, passed as the left. *)
let compile2 la = function
  | Col i when i < la -> fun l _ -> l.(i)
  | Col i ->
    let j = i - la in
    fun _ r -> r.(j)
  | Const v -> fun _ _ -> v
  | Param r -> fun _ _ -> !r
  | e when la = max_int -> fun l _ -> Eval.eval_expr ~row:l e
  | e -> fun l r -> Eval.eval_expr ~row:(Array.append l r) e

let holds c a b =
  if Value.is_null a || Value.is_null b then false
  else
    let d = Value.compare a b in
    match c with
    | Eq -> d = 0
    | Neq -> d <> 0
    | Lt -> d < 0
    | Leq -> d <= 0
    | Gt -> d > 0
    | Geq -> d >= 0

(* A filter as a test over a pair of rows (see [compile2]). Operands of AND
   and OR are predicates, so they yield only booleans and NULL, and the
   conjunction (disjunction) is TRUE exactly when both (either) are. A
   comparison is TRUE when neither side is NULL and the values compare so;
   a column equal to a text reads the column and compares, nothing more.
   Only for expressions [value] accepts: elsewhere AND and OR may meet a
   non-boolean, which the reference evaluator rejects. *)
let rec test2 la = function
  | Cmp (Eq, (Col _ as col), Const (Value.Str s))
  | Cmp (Eq, Const (Value.Str s), (Col _ as col)) -> (
    let get = compile2 la col in
    fun l r -> match get l r with Value.Str x -> String.equal x s | _ -> false)
  | Cmp (c, a, b) ->
    let a = compile2 la a and b = compile2 la b in
    fun l r -> holds c (a l r) (b l r)
  | And (a, b) ->
    let a = test2 la a and b = test2 la b in
    fun l r -> a l r && b l r
  | Or (a, b) ->
    let a = test2 la a and b = test2 la b in
    fun l r -> a l r || b l r
  | e ->
    let e = compile2 la e in
    fun l r -> Eval.truthy (e l r)

(* A filter or residual test: compiled where [value] allows, else the
   reference evaluator's verdict. *)
let residual la = function
  | None -> fun _ _ -> true
  | Some e when value e -> test2 la e
  | Some e ->
    let e = compile2 la e in
    fun l r -> Eval.truthy (e l r)

(* [e] with each [Col i] replaced by [cols.(i)]: an expression over a
   projection's output as one over its input. *)
let rec subst cols = function
  | Col i -> cols.(i)
  | (Outer _ | Const _ | Param _ | Exists _) as e -> e
  | Cmp (c, a, b) -> Cmp (c, subst cols a, subst cols b)
  | Arith (o, a, b) -> Arith (o, subst cols a, subst cols b)
  | And (a, b) -> And (subst cols a, subst cols b)
  | Or (a, b) -> Or (subst cols a, subst cols b)
  | Not e -> Not (subst cols e)
  | Is_null e -> Is_null (subst cols e)
  | In_list (e, vs) -> In_list (subst cols e, vs)
  | Case (arms, d) ->
    Case (List.map (fun (c, r) -> (subst cols c, subst cols r)) arms, subst cols d)

(* ------------------------------------------------------------------ *)
(* Keys and row sets                                                  *)
(* ------------------------------------------------------------------ *)

module Row_tbl = Eval.Row_tbl

module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Value.hash_int
end)

(* A row of one or two columns as one int under {!Value.pack_pair}'s rule,
   the rule {!Table}'s indexes file keys by ([Float 1.] packs as [Int 1],
   which it equals); [min_int] when it does not pack. *)
let pack_row = function
  | [| v |] -> Value.exact_int v
  | [| a; b |] -> Value.pack_pair a b
  | _ -> min_int

(* [filler kv exprs row] reads the key [exprs] of [row] into the scratch
   array [kv]; false when one is NULL, which never joins. *)
let filler kv exprs =
  match Array.of_list (List.map compile exprs) with
  | [| get |] ->
    fun row ->
      let v = get row in
      kv.(0) <- v;
      not (Value.is_null v)
  | get ->
    fun row ->
      let ok = ref true in
      for i = 0 to Array.length get - 1 do
        let v = get.(i) row in
        if Value.is_null v then ok := false;
        kv.(i) <- v
      done;
      !ok

(* A set of rows for DISTINCT and the set operations: a row that packs is
   kept as its int, any other by its values. *)
type row_set = { packed : unit Ints.t; rows : unit Row_tbl.t }

let row_set () = { packed = Ints.create 64; rows = Row_tbl.create 8 }

let mem s row =
  let k = pack_row row in
  if k <> min_int then Ints.mem s.packed k else Row_tbl.mem s.rows row

(* Adds [row]; false when an equal row was in already. *)
let add_new s row =
  let k = pack_row row in
  if k <> min_int then
    if Ints.mem s.packed k then false
    else begin
      Ints.add s.packed k ();
      true
    end
  else if Row_tbl.mem s.rows row then false
  else begin
    Row_tbl.add s.rows row ();
    true
  end

let clear s =
  Ints.clear s.packed;
  Row_tbl.clear s.rows

(* ------------------------------------------------------------------ *)
(* Reads                                                              *)
(* ------------------------------------------------------------------ *)

type access = Whole | Probe of int list * [ `Const | `Rows_of of string ]

type read = { table : string; access : access; on_demand : bool }

(* One compiled plan: the reads it was compiled with, and what clears its
   joins' per-run state after each run, so that nothing a run built
   outlives it. *)
type cx = { mutable reads : read list; mutable resets : (unit -> unit) list }

let note cx ~on_demand t access =
  cx.reads <- { table = Table.name t; access; on_demand } :: cx.reads

(* The tables the reference evaluator reads for [plan], subqueries in its
   expressions included. *)
let rec tables_of = function
  | Scan (t, _) -> [ t ]
  | Values _ -> []
  | Filter (e, p) -> in_expr e @ tables_of p
  | Project (cols, p) -> List.concat_map (fun (e, _) -> in_expr e) cols @ tables_of p
  | Cross (l, r) | Union_all (l, r) | Union (l, r) | Except (l, r) | Intersect (l, r) ->
    tables_of l @ tables_of r
  | Join j ->
    Option.fold ~none:[] ~some:in_expr j.residual @ tables_of j.left @ tables_of j.right
  | Distinct p | Sort (_, p) | Limit (_, p) -> tables_of p
  | Group g -> tables_of g.input

and in_expr = function
  | Exists p -> tables_of p
  | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) -> in_expr a @ in_expr b
  | Not e | Is_null e | In_list (e, _) -> in_expr e
  | Case (arms, d) -> List.concat_map (fun (c, r) -> in_expr c @ in_expr r) arms @ in_expr d
  | Col _ | Outer _ | Const _ | Param _ -> []

(* The table whose rows lead [plan]'s output: its leftmost scan. *)
let rec leading = function
  | Scan (t, _) -> Table.name t
  | Values _ -> "values"
  | Filter (_, p) | Project (_, p) | Distinct p | Sort (_, p) | Limit (_, p) -> leading p
  | Cross (l, _) | Union_all (l, _) | Union (l, _) | Except (l, _) | Intersect (l, _) -> leading l
  | Join j -> leading j.left
  | Group g -> leading g.input

(* ------------------------------------------------------------------ *)
(* Constant keys                                                      *)
(* ------------------------------------------------------------------ *)

(* A conjunct of [e] that pins a column with a hash index of its own to
   constants: [col = c], an OR of such tests on one column, or
   [col IN (...)]. Returns the index and the distinct non-NULL keys, read
   per run (a placeholder may be rebound between runs). *)
let const_keys e t =
  let rec conjuncts = function And (a, b) -> conjuncts a @ conjuncts b | e -> [ e ] in
  let const = function
    | Const v -> Some (fun () -> v)
    | Param r -> Some (fun () -> !r)
    | _ -> None
  in
  let rec points = function
    | Cmp (Eq, Col i, c) | Cmp (Eq, c, Col i) -> Option.map (fun v -> (i, [ v ])) (const c)
    | In_list (Col i, vs) -> Some (i, List.map (fun v () -> v) vs)
    | Or (a, b) -> (
      match (points a, points b) with
      | Some (i, x), Some (j, y) when i = j -> Some (i, x @ y)
      | _ -> None)
    | _ -> None
  in
  List.find_map
    (fun c ->
      Option.bind (points c) (fun (i, vs) ->
          Option.map
            (fun ix ->
              let keys () =
                List.fold_left
                  (fun acc v ->
                    let v = v () in
                    if Value.is_null v || List.exists (fun k -> Value.equal k.(0) v) acc then acc
                    else [| v |] :: acc)
                  [] vs
              in
              (i, ix, keys))
            (Table.index t [ i ])))
    (conjuncts e)

(* How many rows reading [plan] whole walks, from live sizes: a scan its
   table's rows, a filter on constant keys those keys' postings. *)
let rec cost = function
  | Scan (t, _) -> fun () -> Table.row_count t
  | Filter (e, (Scan (t, _) as p)) -> (
    match const_keys e t with
    | Some (_, ix, keys) ->
      fun () -> List.fold_left (fun n k -> n + Table.posting_length ix k) 0 (keys ())
    | None -> cost p)
  | Filter (_, p) | Project (_, p) | Distinct p | Join { kind = Semi | Anti; left = p; _ } -> cost p
  | Union_all (l, r) | Union (l, r) ->
    let l = cost l and r = cost r in
    fun () -> l () + r ()
  | _ -> fun () -> max_int

(* ------------------------------------------------------------------ *)
(* Compiled plans                                                     *)
(* ------------------------------------------------------------------ *)

(* A compiled subplan pushes its rows, in [Eval.run]'s order, to the
   consumer it is given; an inner join pushes each matching pair of rows
   instead, and its consumer decides what to build from them. *)
type source = (row -> unit) -> unit

(* A right side compiled for probing by key: [walk f] applies [f] to its
   rows whose key equals the values in the join's scratch array, in
   [Eval.run]'s order, until [f] returns true; returns whether it did. *)
type walk = (row -> bool) -> bool

(* A right side read whole, filed by key; each key's rows in the right
   side's order. *)
type buckets = { ints : row list Ints.t; others : row list Row_tbl.t }

(* One keyed join's access to its right side, decided afresh in each run
   from live sizes when the right side is a chain that can be probed per
   key. A join whose left side's size is known up front (the rows reading it
   whole walks: a scan, a filter on constant keys) reads its right side
   whole, once, when that walks fewer rows than will probe it, and probes
   per key otherwise. A join whose probing rows are not known up front (a
   join nested in a probed chain) probes per key while the rows its probes
   walked stay below what reading the right side whole walks, then reads
   it whole for the rest of the run: at most twice the cheaper of the
   two. *)
type lookup = {
  kv : Value.t array;  (** the key being looked up *)
  lfill : row -> bool;  (** fills [kv] from a left row *)
  rkv : Value.t array;  (** scratch for right rows' keys while reading whole *)
  rfill : row -> bool;
  walk : walk option;
  walked : int ref;  (** rows the probes of this run walked *)
  cost : unit -> int;
  probers : unit -> int;  (** rows that will probe, [max_int] when unknown *)
  whole : source;
  first_only : bool;  (** a semi/anti join without residual needs one row per key *)
  mutable budget : int;  (** rows the probes may walk before reading whole *)
  mutable buckets : buckets option;
}

let always _ = true

let read_whole lk =
  let b = { ints = Ints.create 64; others = Row_tbl.create 8 } in
  (* Whether some key got a second row: only then are buckets, built newest
     first, put back in order. *)
  let dup = ref false in
  lk.whole (fun r ->
      if lk.rfill r then begin
        let k = pack_row lk.rkv in
        if k <> min_int then
          match Ints.find_opt b.ints k with
          | Some rows ->
            if not lk.first_only then begin
              dup := true;
              Ints.replace b.ints k (r :: rows)
            end
          | None -> Ints.add b.ints k [ r ]
        else
          match Row_tbl.find_opt b.others lk.rkv with
          | Some rows ->
            if not lk.first_only then begin
              dup := true;
              Row_tbl.replace b.others (Array.copy lk.rkv) (r :: rows)
            end
          | None -> Row_tbl.add b.others (Array.copy lk.rkv) [ r ]
      end);
  if !dup then begin
    Ints.filter_map_inplace (fun _ rows -> Some (List.rev rows)) b.ints;
    Row_tbl.filter_map_inplace (fun _ rows -> Some (List.rev rows)) b.others
  end;
  b

(* A semi/anti join without residual asks only whether the key is in. *)
let in_bucket b kv f =
  let k = pack_row kv in
  if f == always then if k <> min_int then Ints.mem b.ints k else Row_tbl.mem b.others kv
  else
    match if k <> min_int then Ints.find_opt b.ints k else Row_tbl.find_opt b.others kv with
    | Some rows -> List.exists f rows
    | None -> false

(* Applies [f] to the right rows whose key equals [l]'s, until it returns
   true; returns whether it did. *)
let find lk l f =
  lk.lfill l
  &&
  begin
    match lk.buckets with
    | Some b -> in_bucket b lk.kv f
    | None -> (
      if lk.budget < 0 then begin
        let whole = lk.cost () and probers = lk.probers () in
        lk.budget <- (if probers = max_int then whole else if whole < probers then 0 else max_int)
      end;
      match lk.walk with
      | Some walk when !Eval.use_table_indexes && !(lk.walked) < lk.budget -> walk f
      | _ ->
        let b = read_whole lk in
        lk.buckets <- Some b;
        in_bucket b lk.kv f)
  end

let arity p = Schema.arity (schema_of p)

(* Do the expressions [es] yield the first [n] columns, in place? *)
let is_cols n es = List.length es = n && List.for_all2 ( = ) es (List.init n (fun i -> Col i))

let rec source cx ~on_demand plan : source =
  match plan with
  | Scan (t, _) ->
    note cx ~on_demand t Whole;
    fun k -> Table.iter k t
  | Filter (e, Scan (t, _)) -> (
    let keep = residual max_int (Some e) in
    let scan k = Table.iter (fun row -> if keep row row then k row) t in
    match const_keys e t with
    | None ->
      note cx ~on_demand t Whole;
      scan
    | Some (i, ix, keys) ->
      note cx ~on_demand t (Probe ([ i ], `Const));
      fun k ->
        if !Eval.use_table_indexes then
          ignore
            (Table.walk_keys ix (keys ())
               (fun () row ->
                 if keep row row then k row;
                 false)
               ())
        else scan k)
  | Filter (e, p) ->
    let keep = residual max_int (Some e) and src = source cx ~on_demand p in
    fun k -> src (fun row -> if keep row row then k row)
  | Project (cols, p) when is_cols (arity p) (List.map fst cols) -> source cx ~on_demand p
  | Project (cols, Join ({ kind = Inner; lkeys = _ :: _; _ } as j)) ->
    let la = arity j.left in
    let pairs = inner cx ~on_demand j in
    if is_cols la (List.map fst cols) then fun k -> pairs (fun l _ -> k l)
    else
      let get = Array.of_list (List.map (fun (e, _) -> compile2 la e) cols) in
      fun k -> pairs (fun l r -> k (Array.map (fun f -> f l r) get))
  | Project (cols, p) ->
    let get = Array.of_list (List.map (fun (e, _) -> compile e) cols)
    and src = source cx ~on_demand p in
    fun k -> src (fun row -> k (Array.map (fun f -> f row) get))
  | Join ({ kind = Inner; lkeys = _ :: _; _ } as j) ->
    let pairs = inner cx ~on_demand j in
    fun k -> pairs (fun l r -> k (Array.append l r))
  | Join ({ kind = (Semi | Anti) as kind; lkeys = _ :: _; _ } as j) ->
    let src = source cx ~on_demand j.left in
    let lk = lookup cx ~on_demand ~by:(leading j.left) ~probers:(cost j.left) j in
    let semi = kind = Semi in
    if j.residual = None then fun k -> src (fun l -> if find lk l always = semi then k l)
    else
      let ok = residual (arity j.left) j.residual in
      fun k -> src (fun l -> if find lk l (ok l) = semi then k l)
  | Union_all (l, r) ->
    let l = source cx ~on_demand l and r = source cx ~on_demand r in
    fun k ->
      l k;
      r k
  | Union (l, r) ->
    let l = source cx ~on_demand l and r = source cx ~on_demand r in
    fun k ->
      let seen = row_set () in
      let k row = if add_new seen row then k row in
      l k;
      r k
  | Except (l, r) ->
    let l = source cx ~on_demand l and r = source cx ~on_demand r in
    fun k ->
      let right = row_set () and seen = row_set () in
      r (fun row -> ignore (add_new right row));
      l (fun row -> if (not (mem right row)) && add_new seen row then k row)
  | Distinct p ->
    let src = source cx ~on_demand p in
    fun k ->
      let seen = row_set () in
      src (fun row -> if add_new seen row then k row)
  | Sort (keys, p) ->
    let src = source cx ~on_demand p and schema = schema_of p in
    fun k -> List.iter k (Eval.run (Sort (keys, Values (schema, collect src))))
  | _ ->
    List.iter (fun t -> note cx ~on_demand t Whole) (tables_of plan);
    fun k -> List.iter k (Eval.run plan)

and collect src =
  let out = ref [] in
  src (fun row -> out := row :: !out);
  List.rev !out

(* A keyed inner join, pushing each left row with each of its key's right
   rows that passes the residual: left rows in order, each one's right rows
   in the right side's order. *)
and inner cx ~on_demand j : (row -> row -> unit) -> unit =
  let ok = residual (arity j.left) j.residual and src = source cx ~on_demand j.left in
  let lk = lookup cx ~on_demand ~by:(leading j.left) ~probers:(cost j.left) j in
  (* The left row and the consumer in scratch cells, so that a probe
     builds no closure. *)
  let left = ref [||] and out = ref (fun _ _ -> ()) in
  let emit r =
    if ok !left r then !out !left r;
    false
  in
  fun k ->
    out := k;
    src (fun l ->
        left := l;
        ignore (find lk l emit))

(* The right side is compiled twice: as a chain probed per key, when it is
   one, and read whole; the whole read then happens only on demand. *)
and lookup cx ~on_demand ~by ~probers j =
  let kv = Array.make (List.length j.lkeys) Value.Null
  and rkv = Array.make (List.length j.rkeys) Value.Null in
  let walked = ref 0 and reads = cx.reads in
  let chained =
    if List.for_all value j.rkeys then chain cx ~on_demand ~by ~walked kv j.rkeys j.right
    else None
  in
  if Option.is_none chained then cx.reads <- reads;
  let lk =
    {
      kv;
      lfill = filler kv j.lkeys;
      rkv;
      rfill = filler rkv j.rkeys;
      walk = chained;
      walked;
      cost = cost j.right;
      probers;
      whole = source cx ~on_demand:(on_demand || Option.is_some chained) j.right;
      first_only = j.kind <> Inner && j.residual = None;
      budget = -1;
      buckets = None;
    }
  in
  cx.resets <-
    (fun () ->
      walked := 0;
      lk.budget <- -1;
      lk.buckets <- None)
    :: cx.resets;
  lk

(* [plan] compiled for probing by [keys] (expressions over its output, all
   [value]s), when it is a chain of scans, filters, projections, DISTINCT,
   unions and semi/anti joins without residual over tables with a hash
   index on some of the key's columns. A chain of one scan under filters,
   projections and semi/anti joins compiles into that scan alone: keys,
   filters and the semi/anti joins' keys are rewritten over the scanned
   row, which is projected only once it passed them all. *)
and chain cx ~on_demand ~by ~walked kv keys plan : walk option =
  match linear cx ~on_demand ~by plan with
  | Some (t, cols, tests) ->
    let keys = List.map (subst cols) keys in
    if not (List.for_all value keys) then None
    else
      let out =
        if is_cols (Schema.arity (Table.schema t)) (Array.to_list cols) then Fun.id
        else
          let get = Array.map compile cols in
          fun r -> Array.map (fun g -> g r) get
      in
      leaf cx ~on_demand ~by ~walked kv (Array.of_list keys) t ~tests ~out
  | None -> (
    let chain = chain cx ~on_demand ~by ~walked kv in
    match plan with
    | Project (cols, p) ->
      let exprs = Array.of_list (List.map fst cols) in
      let keys = List.map (subst exprs) keys in
      if not (List.for_all value keys) then None
      else
        Option.map
          (fun walk ->
            if is_cols (arity p) (Array.to_list exprs) then walk
            else
              let get = Array.map compile exprs in
              fun f -> walk (fun r -> f (Array.map (fun g -> g r) get)))
          (chain keys p)
    | Distinct p ->
      Option.map
        (fun walk ->
          let seen = row_set () in
          fun f ->
            clear seen;
            walk (fun r -> add_new seen r && f r))
        (chain keys p)
    | Union_all (l, r) -> (
      match (chain keys l, chain keys r) with
      | Some l, Some r -> Some (fun f -> l f || r f)
      | _ -> None)
    | Union (l, r) -> chain keys (Distinct (Union_all (l, r)))
    | _ -> None)

(* A chain of one scan under filters, projections and semi/anti joins: the
   table, the output columns as expressions over the scanned row, and a
   thunk compiling the tests a scanned row must pass, bottom-up (so that
   nothing is compiled, and no read noted, for a chain that is not one). *)
and linear cx ~on_demand ~by plan =
  match plan with
  | Scan (t, _) -> Some (t, Array.init (arity plan) (fun i -> Col i), fun () -> [])
  | Filter (e, p) ->
    Option.bind (linear cx ~on_demand ~by p) (fun (t, cols, tests) ->
        let e = subst cols e in
        if not (value e) then None
        else
          Some
            ( t,
              cols,
              fun () ->
                let keep = test2 max_int e in
                tests () @ [ (fun r -> keep r r) ] ))
  | Project (cs, p) ->
    Option.map
      (fun (t, cols, tests) -> (t, Array.of_list (List.map (fun (e, _) -> subst cols e) cs), tests))
      (linear cx ~on_demand ~by p)
  | Join ({ kind = (Semi | Anti) as kind; residual = None; lkeys = _ :: _; _ } as j) ->
    Option.bind (linear cx ~on_demand ~by j.left) (fun (t, cols, tests) ->
        let lkeys = List.map (subst cols) j.lkeys in
        if not (List.for_all value lkeys) then None
        else
          Some
            ( t,
              cols,
              fun () ->
                let ts = tests () in
                let lk =
                  lookup cx ~on_demand ~by ~probers:(fun () -> max_int) { j with lkeys }
                in
                let semi = kind = Semi in
                ts @ [ (fun r -> find lk r always = semi) ] ))
  | _ -> None

and leaf cx ~on_demand ~by ~walked kv keys t ~tests ~out =
  let chain_tests = lazy (tests ()) in
  (* Each index whose columns the key pins, with what a scanned row must
     pass: the key's columns the index does not pin, then the chain's own
     tests. *)
  let usable =
    List.filter_map
      (fun cols ->
        let slot c = List.find_index (fun e -> e = Col c) (Array.to_list keys) in
        let slots = List.filter_map slot cols in
        if List.length slots <> List.length cols then None
        else begin
          note cx ~on_demand t (Probe (cols, `Rows_of by));
          let rest =
            List.filter_map
              (fun i ->
                if List.mem i slots then None
                else
                  let get = compile keys.(i) in
                  Some (fun r -> Value.equal (get r) kv.(i)))
              (List.init (Array.length keys) Fun.id)
          in
          let passes =
            List.fold_right (fun t k r -> t r && k r) (rest @ Lazy.force chain_tests) always
          in
          let check f r =
            incr walked;
            passes r && f (out r)
          in
          (* An index on exactly the key's columns, in order, takes the
             key as it is. *)
          let buf = if slots = List.init (Array.length keys) Fun.id then kv else Array.make (List.length slots) Value.Null in
          Some (Option.get (Table.index t cols), Array.of_list slots, buf, check)
        end)
      (Table.index_cols t)
    |> Array.of_list
  in
  let keys_of c =
    let ix, _, _, _ = usable.(c) in
    Table.key_count ix
  in
  (* Each run walks the usable index with the most keys, the fewest rows
     per key. *)
  let chosen = ref false and pick = ref 0 in
  cx.resets <- (fun () -> chosen := false) :: cx.resets;
  let choose () =
    if not !chosen then begin
      chosen := true;
      pick := 0;
      for c = 1 to Array.length usable - 1 do
        if keys_of c > keys_of !pick then pick := c
      done
    end
  in
  match usable with
  | [||] -> None
  | [| (ix, _, buf, check) |] when buf == kv -> Some (fun f -> Table.walk ix kv check f)
  | _ ->
    Some
      (fun f ->
        choose ();
        let ix, slots, buf, check = usable.(!pick) in
        if buf != kv then
          for j = 0 to Array.length slots - 1 do
            buf.(j) <- kv.(slots.(j))
          done;
        Table.walk ix buf check f)

let compile_plan plan =
  let cx = { reads = []; resets = [] } in
  (cx, source cx ~on_demand:false plan)

let standing plan =
  let cx, src = compile_plan plan in
  fun () ->
    Fun.protect ~finally:(fun () -> List.iter (fun reset -> reset ()) cx.resets) (fun () -> collect src)

let reads plan = List.rev (fst (compile_plan plan)).reads
