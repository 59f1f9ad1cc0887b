open Ra

let row_equal = Eval.Row_key.equal

(* ------------------------------------------------------------------ *)
(* Which subplans can be views                                        *)
(* ------------------------------------------------------------------ *)

(* Upkeep runs inside base-table mutations, so it must not raise: only
   expressions whose evaluation cannot fail on any row are allowed. [value]
   may yield any value; [pred] must yield a boolean or NULL, because AND, OR
   and NOT reject anything else. Arithmetic (a type error on text), Param
   (rebound between cycles), Outer and Exists (correlated) are out. *)
let rec value = function
  | Col _ | Const _ -> true
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

let rec maintainable = function
  | Scan _ -> true
  | Filter (e, p) -> value e && maintainable p
  | Project (cols, p) -> List.for_all (fun (e, _) -> value e) cols && maintainable p
  | Distinct p -> maintainable p
  | Union_all (l, r) -> maintainable l && maintainable r
  | Join { kind = Semi | Anti; lkeys; rkeys; residual = None; left; right } ->
    lkeys <> []
    && List.for_all value (lkeys @ rkeys)
    && maintainable left && maintainable right
  | _ -> false

(* A view only pays when it keeps state the plan would otherwise rebuild. *)
let rec stateful = function
  | Distinct _ | Join _ -> true
  | Filter (_, p) | Project (_, p) -> stateful p
  | Union_all (l, r) -> stateful l || stateful r
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Compiled expressions                                               *)
(* ------------------------------------------------------------------ *)

type row = Value.t array

(* Columns and constants are read directly; any other expression goes
   through [Eval.eval_expr], the reference evaluator. *)
let compile = function
  | Col i -> fun row -> row.(i)
  | Const v -> fun _ -> v
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

let test e =
  let t = test2 max_int e in
  fun row -> t row row

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

module Row_tbl = Eval.Row_tbl

module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Value.hash_int
end)

(* A join key as one int, by the rule {!Table}'s indexes file keys by: one
   int-valued column ({!Value.exact_int}, so [Float 1.] keys as [Int 1],
   which it equals), or two packed by {!Value.pack_pair}. [no_key] stands
   for a key with a NULL, which never joins; [by_value] for any other key,
   which is looked up by its values. *)
let no_key = min_int

let by_value = min_int + 1

let key_of exprs =
  match Array.of_list (List.map compile exprs) with
  | [| a |] ->
    fun row -> (
      match a row with
      | Value.Null -> no_key
      | va ->
        let i = Value.exact_int va in
        if i = min_int then by_value else i)
  | [| a; b |] ->
    fun row ->
      let va = a row and vb = b row in
      if Value.is_null va || Value.is_null vb then no_key
      else
        let k = Value.pack_pair va vb in
        if k = min_int then by_value else k
  | get ->
    fun row ->
      if Array.exists (fun f -> Value.is_null (f row)) get then no_key else by_value

let values_of exprs =
  let get = Array.of_list (List.map compile exprs) in
  fun row -> Array.map (fun f -> f row) get

(* ------------------------------------------------------------------ *)
(* Maintained operators                                               *)
(* ------------------------------------------------------------------ *)

(* A change to one operator's output, as a bag: the rows in [dels] leave
   it, then the rows in [adds] enter it. Every row of [dels] is in the
   output before the change. *)
type delta = { dels : row list; adds : row list }

let no_change = { dels = []; adds = [] }

(* One join key's state: its right rows' count, and its left rows in
   [rows.(first)] (the oldest) to [rows.(first + len - 1)]. Appending is
   amortised O(1), and so is removing the oldest row (prune removes rows
   oldest first); any other row is found by a scan, and the rows after it
   slide down. *)
type entry = {
  key : int;
  values : row;  (** the key's values when [key = by_value], else empty *)
  mutable matches : int;
  mutable touched : bool;  (** by the right side of the change under way *)
  mutable had : bool;  (** [matches > 0] before that change *)
  mutable rows : row array;
  mutable first : int;
  mutable len : int;
}

let new_entry key values =
  { key; values; matches = 0; touched = false; had = false; rows = [||]; first = 0; len = 0 }

let push e row =
  let cap = Array.length e.rows in
  if e.first + e.len = cap then
    if 2 * e.len <= cap && cap > 0 then begin
      (* At least half the slots were freed at the front: slide down. *)
      Array.blit e.rows e.first e.rows 0 e.len;
      Array.fill e.rows e.len (cap - e.len) [||];
      e.first <- 0
    end
    else begin
      let grown = Array.make (max 1 (2 * cap)) [||] in
      Array.blit e.rows e.first grown 0 e.len;
      e.rows <- grown;
      e.first <- 0
    end;
  e.rows.(e.first + e.len) <- row;
  e.len <- e.len + 1

(* Remove the oldest row equal to [row]. *)
let remove e row =
  let rec find i =
    if i = e.len then i
    else
      let r = e.rows.(e.first + i) in
      if r == row || row_equal r row then i else find (i + 1)
  in
  let i = find 0 in
  if i < e.len then begin
    if i = 0 then begin
      e.rows.(e.first) <- [||];
      e.first <- e.first + 1
    end
    else begin
      Array.blit e.rows (e.first + i + 1) e.rows (e.first + i) (e.len - i - 1);
      e.rows.(e.first + e.len - 1) <- [||]
    end;
    e.len <- e.len - 1;
    if e.len = 0 then e.first <- 0
  end

let iter_rows f e =
  for i = e.first to e.first + e.len - 1 do
    f e.rows.(i)
  done

type node =
  | Leaf of Table.t
  | Select of (row -> bool) * node
  | Map of (row -> Value.t) array * node
  | Dedup of int ref Row_tbl.t * node  (** live copies per row *)
  | Concat of node * node
  | Match of match_state

and match_state = {
  semi : bool;  (** keep left rows with a right match (else without) *)
  lkey : row -> int;
  lvalues : row -> row;
  rkey : row -> int;
  rvalues : row -> row;
  left : node;
  right : node;
  ints : entry Ints.t;  (** keys with a right or a left row, by int key *)
  others : entry Row_tbl.t;  (** the other such keys, by their values *)
}

let rec node_of = function
  | Scan (t, _) -> Leaf t
  | Filter (e, p) -> Select (test e, node_of p)
  | Project (cols, p) ->
    (* A projection that only renames passes the rows on as they are. *)
    if List.map fst cols = List.mapi (fun i _ -> Col i) cols
       && List.length cols = Schema.arity (schema_of p)
    then node_of p
    else Map (Array.of_list (List.map (fun (e, _) -> compile e) cols), node_of p)
  | Distinct p -> Dedup (Row_tbl.create 64, node_of p)
  | Union_all (l, r) -> Concat (node_of l, node_of r)
  | Join { kind = Anti; lkeys; _ } as plan -> (
    (* Stacked anti-joins on the same left key keep a left row while no
       right side matches it: one anti-join against all the right sides'
       keys, which buckets each left row once instead of once per level. *)
    let rec stack = function
      | Join { kind = Anti; lkeys = k; rkeys; left; right; _ } when k = lkeys ->
        let base, rights = stack left in
        (base, (rkeys, right) :: rights)
      | p -> (p, [])
    in
    match stack plan with
    | left, [ (rkeys, right) ] -> matcher ~semi:false lkeys left rkeys (node_of right)
    | left, rights ->
      let keyed (rkeys, right) =
        Map (Array.of_list (List.map compile rkeys), node_of right)
      in
      let right =
        List.fold_left
          (fun acc r -> Concat (acc, keyed r))
          (keyed (List.hd rights)) (List.tl rights)
      in
      matcher ~semi:false lkeys left (List.mapi (fun i _ -> Col i) lkeys) right)
  | Join { kind; lkeys; rkeys; left; right; _ } ->
    matcher ~semi:(kind = Semi) lkeys left rkeys (node_of right)
  | _ -> invalid_arg "View: operator cannot be maintained"

and matcher ~semi lkeys left rkeys right =
  Match
    {
      semi;
      lkey = key_of lkeys;
      lvalues = values_of lkeys;
      rkey = key_of rkeys;
      rvalues = values_of rkeys;
      left = node_of left;
      right;
      ints = Ints.create 64;
      others = Row_tbl.create 8;
    }

let rec tables = function
  | Leaf t -> [ t ]
  | Select (_, n) | Map (_, n) | Dedup (_, n) -> tables n
  | Concat (l, r) -> tables l @ tables r
  | Match m -> tables m.left @ tables m.right

(* The entry of [row]'s [key]; [values] gives the key's values. *)
let find m values key row =
  if key = by_value then Row_tbl.find_opt m.others (values row)
  else Ints.find_opt m.ints key

let find_or_add m values key row =
  match find m values key row with
  | Some e -> e
  | None ->
    if key = by_value then begin
      let e = new_entry key (values row) in
      Row_tbl.add m.others e.values e;
      e
    end
    else begin
      let e = new_entry key [||] in
      Ints.add m.ints key e;
      e
    end

let drop_if_empty m e =
  if e.len = 0 && e.matches = 0 then
    if e.key = by_value then Row_tbl.remove m.others e.values
    else Ints.remove m.ints e.key

(* Semi/anti join by counting: each key keeps its right rows' count and its
   left rows. The change applies in three steps, each against the state the
   previous one left: left rows leave (visible under the old counts), right
   rows come and go (a key whose count crosses zero moves its whole bucket
   in or out of the output, oldest first), left rows arrive (visible under
   the new counts). A pruned transaction therefore costs no output churn:
   its left rows leave before its terminal row does. *)
let match_delta m ~left:dl ~right:dr =
  let visible e = (e.matches > 0) = m.semi in
  let dels = ref [] and adds = ref [] in
  List.iter
    (fun row ->
      let key = m.lkey row in
      let entry = if key = no_key then None else find m m.lvalues key row in
      match entry with
      | None -> if not m.semi then dels := row :: !dels
      | Some e ->
        remove e row;
        if visible e then dels := row :: !dels;
        drop_if_empty m e)
    dl.dels;
  (* Keys the right side touched, in first-touch order; their entries stay
     in the tables until all counts are in. *)
  let touched = ref [] in
  let bump by row =
    let key = m.rkey row in
    if key <> no_key then begin
      let e = find_or_add m m.rvalues key row in
      if not e.touched then begin
        e.touched <- true;
        e.had <- e.matches > 0;
        touched := e :: !touched
      end;
      e.matches <- e.matches + by
    end
  in
  List.iter (bump (-1)) dr.dels;
  List.iter (bump 1) dr.adds;
  List.iter
    (fun e ->
      e.touched <- false;
      if (e.matches > 0) <> e.had then
        if visible e then iter_rows (fun row -> adds := row :: !adds) e
        else iter_rows (fun row -> dels := row :: !dels) e;
      drop_if_empty m e)
    (List.rev !touched);
  List.iter
    (fun row ->
      let key = m.lkey row in
      if key = no_key then (if not m.semi then adds := row :: !adds)
      else begin
        let e = find_or_add m m.lvalues key row in
        push e row;
        if visible e then adds := row :: !adds
      end)
    dl.adds;
  { dels = List.rev !dels; adds = List.rev !adds }

(* The change to [node]'s output when base table [table] changed by [base]. *)
let rec propagate node table base =
  match node with
  | Leaf t -> if t == table then base else no_change
  | Select (keep, n) ->
    let d = propagate n table base in
    { dels = List.filter keep d.dels; adds = List.filter keep d.adds }
  | Map (cols, n) ->
    let d = propagate n table base in
    let f row = Array.map (fun col -> col row) cols in
    { dels = List.map f d.dels; adds = List.map f d.adds }
  | Concat (l, r) ->
    let dl = propagate l table base and dr = propagate r table base in
    { dels = dl.dels @ dr.dels; adds = dl.adds @ dr.adds }
  | Dedup (counts, n) ->
    let d = propagate n table base in
    let dels =
      List.filter
        (fun row ->
          match Row_tbl.find_opt counts row with
          | None -> false
          | Some c ->
            decr c;
            if !c = 0 then Row_tbl.remove counts row;
            !c = 0)
        d.dels
    in
    let adds =
      List.filter
        (fun row ->
          match Row_tbl.find_opt counts row with
          | Some c ->
            incr c;
            false
          | None ->
            Row_tbl.add counts row (ref 1);
            true)
        d.adds
    in
    { dels; adds }
  | Match m ->
    let left = propagate m.left table base in
    let right = propagate m.right table base in
    match_delta m ~left ~right

(* ------------------------------------------------------------------ *)
(* Views                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  root : node;
  table : Table.t;
  mutable del_cols : int list;
      (** columns of the hash index that finds a row to delete: the parent
          join's key when there is one, else every column *)
}

let set_del_cols v cols =
  Table.create_index v.table cols;
  v.del_cols <- cols

(* The change to the view's rows when [base] changed. Node state and the
   view's table keep the base table's own rows, which never change. *)
let update v base ~added ~removed = propagate v.root base { dels = removed; adds = added }

(* The table is a bag: each row of [d.dels] removes one copy, the oldest,
   all in one [Table.delete_by_keys] call. *)
let apply v d =
  if d.dels <> [] then
    ignore
      (Table.delete_by_keys v.table v.del_cols
         (List.map
            (fun row ->
              let pending = ref true in
              let take r =
                let hit = !pending && row_equal r row in
                if hit then pending := false;
                hit
              in
              (List.map (fun c -> row.(c)) v.del_cols, take))
            d.dels));
  Table.insert_many v.table d.adds

(* Node state is filled one base table at a time; the table itself once,
   from a plain evaluation of the subplan, so filling never deletes. *)
let create plan =
  let root = node_of plan in
  let bases = List.fold_left (fun acc t -> if List.memq t acc then acc else acc @ [ t ]) [] (tables root) in
  let name = "view(" ^ String.concat "," (List.map Table.name bases) ^ ")" in
  let v = { root; table = Table.create ~name (schema_of plan); del_cols = [] } in
  List.iter (fun base -> ignore (update v base ~added:(Table.rows base) ~removed:[])) bases;
  Table.insert_many v.table (Eval.run plan);
  List.iter
    (fun base ->
      Table.subscribe base (fun ~added ~removed -> apply v (update v base ~added ~removed)))
    bases;
  v

let materialize plan =
  let views = ref [] in
  let rec go plan =
    if maintainable plan && stateful plan then begin
      let v = create plan in
      views := v :: !views;
      Scan (v.table, None)
    end
    else
      match plan with
      | Scan _ | Values _ -> plan
      | Filter (e, p) -> Filter (e, go p)
      | Project (cols, p) -> Project (cols, go p)
      | Cross (l, r) -> Cross (go l, go r)
      | Join j ->
        let right = go j.right in
        (* A view on the right of a join gets a hash index on the join key,
           so [Eval] probes it instead of hashing it every cycle. *)
        (match (right, !views) with
        | Scan (table, _), v :: _ when v.table == table && right != j.right ->
          let cols = List.filter_map (function Col i -> Some i | _ -> None) j.rkeys in
          if cols <> [] && List.length cols = List.length j.rkeys then set_del_cols v cols
        | _ -> ());
        Join { j with left = go j.left; right }
      | Union_all (l, r) -> Union_all (go l, go r)
      | Union (l, r) -> Union (go l, go r)
      | Except (l, r) -> Except (go l, go r)
      | Intersect (l, r) -> Intersect (go l, go r)
      | Distinct p -> Distinct (go p)
      | Sort (keys, p) -> Sort (keys, go p)
      | Limit (n, p) -> Limit (n, go p)
      | Group g -> Group { g with input = go g.input }
  in
  let plan = go plan in
  List.iter
    (fun v ->
      if v.del_cols = [] then
        set_del_cols v (List.init (Schema.arity (Table.schema v.table)) Fun.id))
    !views;
  plan

(* ------------------------------------------------------------------ *)
(* Standing plans                                                     *)
(* ------------------------------------------------------------------ *)

(* A set of rows for DISTINCT and EXCEPT: a row of one or two columns that
   pack ({!Value.pack_pair}'s rule) is kept as its int, any other by its
   values. *)
type row_set = { packed : unit Ints.t; rows : unit Row_tbl.t }

let row_set () = { packed = Ints.create 64; rows = Row_tbl.create 8 }

let pack_row = function
  | [| v |] -> Value.exact_int v
  | [| a; b |] -> Value.pack_pair a b
  | _ -> min_int

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

(* A compiled subplan pushes its rows, in [Eval.run]'s order, to the
   consumer it is given; an inner join pushes each matching pair of rows
   instead, and its consumer decides what to build from them. *)
type source = (row -> unit) -> unit

let arity p = Schema.arity (schema_of p)

(* Does the projection [cols] yield the first [n] columns, in place? *)
let is_cols n cols =
  List.length cols = n
  && List.for_all2
       (fun (e, _) i -> match e with Col j -> j = i | _ -> false)
       cols (List.init n Fun.id)

(* A filter or residual test: compiled where [value] allows, else the
   reference evaluator's verdict. *)
let residual la = function
  | None -> fun _ _ -> true
  | Some e when value e -> test2 la e
  | Some e ->
    let e = compile2 la e in
    fun l r -> Eval.truthy (e l r)

let rec source plan : source =
  match plan with
  | Scan (t, _) -> fun k -> Table.iter k t
  | Filter (e, (Scan _ as p)) ->
    (* A [col = const] conjunct on an indexed column still probes. *)
    let keep = residual max_int (Some e) in
    fun k -> List.iter (fun row -> if keep row row then k row) (Eval.candidates e p)
  | Filter (e, p) ->
    let keep = residual max_int (Some e) and src = source p in
    fun k -> src (fun row -> if keep row row then k row)
  | Project (cols, p) when is_cols (arity p) cols -> source p
  | Project (cols, Join ({ kind = Inner; lkeys = _ :: _; _ } as j)) ->
    let la = arity j.left in
    let pairs = inner j in
    if is_cols la cols then fun k -> pairs (fun l _ -> k l)
    else
      let get = Array.of_list (List.map (fun (e, _) -> compile2 la e) cols) in
      fun k -> pairs (fun l r -> k (Array.map (fun f -> f l r) get))
  | Project (cols, p) ->
    let get = Array.of_list (List.map (fun (e, _) -> compile e) cols) and src = source p in
    fun k -> src (fun row -> k (Array.map (fun f -> f row) get))
  | Join ({ kind = Inner; lkeys = _ :: _; _ } as j) ->
    let pairs = inner j in
    fun k -> pairs (fun l r -> k (Array.append l r))
  | Join ({ kind = (Semi | Anti) as kind; lkeys = _ :: _; _ } as j) ->
    let la = arity j.left in
    let ok = residual la j.residual and src = source j.left and lookup = right_side j in
    let semi = kind = Semi in
    fun k ->
      let bucket, _ = lookup () in
      src (fun l -> if List.exists (ok l) (bucket l) = semi then k l)
  | Union_all (l, r) ->
    let l = source l and r = source r in
    fun k ->
      l k;
      r k
  | Except (l, r) ->
    let l = source l and r = source r in
    fun k ->
      let right = row_set () and seen = row_set () in
      r (fun row -> ignore (add_new right row));
      l (fun row -> if (not (mem right row)) && add_new seen row then k row)
  | Distinct p ->
    let src = source p in
    fun k ->
      let seen = row_set () in
      src (fun row -> if add_new seen row then k row)
  | Sort (keys, p) ->
    let src = source p and schema = schema_of p in
    fun k -> List.iter k (Eval.run (Sort (keys, Values (schema, collect src))))
  | _ -> fun k -> List.iter k (Eval.run plan)

and collect src =
  let out = ref [] in
  src (fun row -> out := row :: !out);
  List.rev !out

(* A keyed inner join, pushing each left row with each of its key's right
   rows that passes the residual: left rows in order, each one's right rows
   in the right side's order. *)
and inner j : (row -> row -> unit) -> unit =
  let la = arity j.left in
  let ok = residual la j.residual and src = source j.left and lookup = right_side j in
  fun k ->
    let _, probe = lookup () in
    src (fun l -> List.iter (fun r -> if ok l r then k l r) (probe l))

(* Per run, a left row's right rows as [Eval.eval_join] has them: [bucket]
   in the order it tests a semi/anti join's residual, [probe] in the right
   side's order. A right side that scans a table with a hash index on
   exactly the join columns is probed by int key (or by value); any other is
   run and bucketed by int key afresh. A left key with a NULL finds
   nothing. *)
and right_side j =
  let lkey = key_of j.lkeys and lvalues = values_of j.lkeys in
  let cols = List.filter_map (function Col i -> Some i | _ -> None) j.rkeys in
  let indexed =
    match j.right with
    | Scan (t, _) when List.length cols = List.length j.rkeys && Table.has_index t cols -> Some t
    | _ -> None
  in
  let rkey = key_of j.rkeys and rvalues = values_of j.rkeys and src = source j.right in
  fun () ->
    match indexed with
    | Some t when !Eval.use_table_indexes ->
      let probe l =
        let key = lkey l in
        if key = no_key then []
        else if key = by_value then Table.probe t cols (Array.to_list (lvalues l))
        else Table.probe_int t cols key
      in
      (probe, probe)
    | _ ->
      (* Buckets hold their rows newest first. *)
      let ints = Ints.create 64 and others = Row_tbl.create 8 in
      src (fun r ->
          let key = rkey r in
          if key = by_value then begin
            let vs = rvalues r in
            Row_tbl.replace others vs (r :: Option.value ~default:[] (Row_tbl.find_opt others vs))
          end
          else if key <> no_key then
            Ints.replace ints key (r :: Option.value ~default:[] (Ints.find_opt ints key)));
      let bucket l =
        let key = lkey l in
        if key = no_key then []
        else
          Option.value ~default:[]
            (if key = by_value then Row_tbl.find_opt others (lvalues l) else Ints.find_opt ints key)
      in
      (bucket, fun l -> List.rev (bucket l))

let standing plan =
  let src = source (materialize plan) in
  fun () -> collect src
