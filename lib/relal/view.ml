open Ra

module Row_tbl = Eval.Row_tbl

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
(* Maintained operators                                               *)
(* ------------------------------------------------------------------ *)

(* A change to one operator's output, as a bag: the rows in [dels] leave
   it, then the rows in [adds] enter it. Every row of [dels] is in the
   output before the change. *)
type delta = { dels : Value.t array list; adds : Value.t array list }

let no_change = { dels = []; adds = [] }

type node =
  | Leaf of Table.t
  | Select of expr * node
  | Map of expr array * node
  | Dedup of int ref Row_tbl.t * node  (** live copies per row *)
  | Concat of node * node
  | Match of match_state

and match_state = {
  semi : bool;  (** keep left rows with a right match (else without) *)
  lkeys : expr array;
  rkeys : expr array;
  left : node;
  right : node;
  matches : int ref Row_tbl.t;  (** right rows per key *)
  buckets : Value.t array list ref Row_tbl.t;  (** left rows per key, oldest first *)
}

let rec node_of = function
  | Scan (t, _) -> Leaf t
  | Filter (e, p) -> Select (e, node_of p)
  | Project (cols, p) -> Map (Array.of_list (List.map fst cols), node_of p)
  | Distinct p -> Dedup (Row_tbl.create 64, node_of p)
  | Union_all (l, r) -> Concat (node_of l, node_of r)
  | Join { kind; lkeys; rkeys; left; right; _ } ->
    Match
      {
        semi = kind = Semi;
        lkeys = Array.of_list lkeys;
        rkeys = Array.of_list rkeys;
        left = node_of left;
        right = node_of right;
        matches = Row_tbl.create 64;
        buckets = Row_tbl.create 64;
      }
  | _ -> invalid_arg "View: operator cannot be maintained"

let rec tables = function
  | Leaf t -> [ t ]
  | Select (_, n) | Map (_, n) | Dedup (_, n) -> tables n
  | Concat (l, r) -> tables l @ tables r
  | Match m -> tables m.left @ tables m.right

let map_delta f d = { dels = List.filter_map f d.dels; adds = List.filter_map f d.adds }

(* NULL keys never join. *)
let key_of keys row =
  let key = Array.map (fun e -> Eval.eval_expr ~row e) keys in
  if Array.exists Value.is_null key then None else Some key

let count tbl key = match Row_tbl.find_opt tbl key with Some n -> !n | None -> 0

(* Remove one row equal to [row] from [rows]. *)
let rec remove_one row = function
  | [] -> []
  | r :: rest -> if row_equal r row then rest else r :: remove_one row rest

(* Semi/anti join by counting: the right side keeps a match count per key,
   the left side its rows bucketed by key. The change applies in three steps,
   each against the state the previous one left: left rows leave (visible
   under the old counts), right rows come and go (a key whose count crosses
   zero moves its whole bucket in or out of the output), left rows arrive
   (visible under the new counts). A pruned transaction therefore costs no
   output churn: its left rows leave before its terminal row does. *)
let match_delta m ~left:dl ~right:dr =
  let visible key = (count m.matches key > 0) = m.semi in
  let dels = ref [] and adds = ref [] in
  List.iter
    (fun row ->
      match key_of m.lkeys row with
      | None -> if not m.semi then dels := row :: !dels
      | Some key ->
        Option.iter
          (fun bucket ->
            bucket := remove_one row !bucket;
            if !bucket = [] then Row_tbl.remove m.buckets key)
          (Row_tbl.find_opt m.buckets key);
        if visible key then dels := row :: !dels)
    dl.dels;
  (* Keys the right side touched, in first-touch order, with whether they
     had a match before. *)
  let touched = ref [] and seen = Row_tbl.create 8 in
  let bump by row =
    match key_of m.rkeys row with
    | None -> ()
    | Some key ->
      let n =
        match Row_tbl.find_opt m.matches key with
        | Some n -> n
        | None ->
          let n = ref 0 in
          Row_tbl.add m.matches key n;
          n
      in
      if not (Row_tbl.mem seen key) then begin
        Row_tbl.add seen key ();
        touched := (key, !n > 0) :: !touched
      end;
      n := !n + by;
      if !n = 0 then Row_tbl.remove m.matches key
  in
  List.iter (bump (-1)) dr.dels;
  List.iter (bump 1) dr.adds;
  List.iter
    (fun (key, had) ->
      if (count m.matches key > 0) <> had then
        match Row_tbl.find_opt m.buckets key with
        | None -> ()
        | Some bucket ->
          if visible key then adds := List.rev_append !bucket !adds
          else dels := List.rev_append !bucket !dels)
    (List.rev !touched);
  List.iter
    (fun row ->
      match key_of m.lkeys row with
      | None -> if not m.semi then adds := row :: !adds
      | Some key ->
        (match Row_tbl.find_opt m.buckets key with
        | Some bucket -> bucket := !bucket @ [ row ]
        | None -> Row_tbl.add m.buckets key (ref [ row ]));
        if visible key then adds := row :: !adds)
    dl.adds;
  { dels = List.rev !dels; adds = List.rev !adds }

(* The change to [node]'s output when base table [table] changed by [base]. *)
let rec propagate node table base =
  match node with
  | Leaf t -> if t == table then base else no_change
  | Select (e, n) ->
    map_delta
      (fun row -> if Eval.truthy (Eval.eval_expr ~row e) then Some row else None)
      (propagate n table base)
  | Map (cols, n) ->
    map_delta
      (fun row -> Some (Array.map (fun e -> Eval.eval_expr ~row e) cols))
      (propagate n table base)
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

(* The change to the view's rows when [base] changed. Base rows are copied
   on entry: node state and the view's table keep them, and
   [Table.update_where] would otherwise change them underneath. Removed
   rows are only compared, never kept. *)
let update v base ~added ~removed =
  propagate v.root base { dels = removed; adds = List.map Array.copy added }

let apply v d =
  List.iter
    (fun row ->
      (* The table is a bag: remove one copy. *)
      let first = ref true in
      ignore
        (Table.delete_by_key v.table v.del_cols
           (List.map (fun c -> row.(c)) v.del_cols)
           (fun r ->
             let hit = !first && row_equal r row in
             if hit then first := false;
             hit)))
    d.dels;
  Table.insert_many v.table d.adds

(* Node state is filled one base table at a time; the table itself once,
   from a plain evaluation of the subplan, so filling never deletes. *)
let create plan =
  let root = node_of plan in
  let bases = List.fold_left (fun acc t -> if List.memq t acc then acc else acc @ [ t ]) [] (tables root) in
  let name = "view(" ^ String.concat "," (List.map Table.name bases) ^ ")" in
  let v = { root; table = Table.create ~name (schema_of plan); del_cols = [] } in
  List.iter (fun base -> ignore (update v base ~added:(Table.rows base) ~removed:[])) bases;
  Table.insert_many v.table (List.map Array.copy (Eval.run plan));
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
          if cols <> [] && List.length cols = List.length j.rkeys then begin
            Table.create_index table cols;
            v.del_cols <- cols
          end
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
      if v.del_cols = [] then begin
        v.del_cols <- List.init (Schema.arity (Table.schema v.table)) Fun.id;
        Table.create_index v.table v.del_cols
      end)
    !views;
  plan
