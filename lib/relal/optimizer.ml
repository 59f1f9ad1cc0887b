open Ra

type level = [ `None | `Basic | `Full ]

(* ------------------------------------------------------------------ *)
(* Conjunction utilities                                              *)
(* ------------------------------------------------------------------ *)

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc c -> And (acc, c)) e rest

let rec expr_equal a b =
  match (a, b) with
  | Col i, Col j -> i = j
  | Outer (d, i), Outer (e, j) -> d = e && i = j
  | Const u, Const v -> Value.compare u v = 0 && Value.is_null u = Value.is_null v
  | Param r, Param r' -> r == r'
  | Cmp (c, x, y), Cmp (d, u, v) -> c = d && expr_equal x u && expr_equal y v
  | Arith (c, x, y), Arith (d, u, v) -> c = d && expr_equal x u && expr_equal y v
  | And (x, y), And (u, v) | Or (x, y), Or (u, v) ->
    expr_equal x u && expr_equal y v
  | Not x, Not u | Is_null x, Is_null u -> expr_equal x u
  | In_list (x, vs), In_list (u, ws) ->
    expr_equal x u && List.equal Value.equal vs ws
  | Case (a1, d1), Case (a2, d2) ->
    List.length a1 = List.length a2
    && List.for_all2
         (fun (c1, r1) (c2, r2) -> expr_equal c1 c2 && expr_equal r1 r2)
         a1 a2
    && expr_equal d1 d2
  | Exists _, Exists _ -> false (* conservative: never equal *)
  | _ -> false

let rec disjuncts = function Or (a, b) -> disjuncts a @ disjuncts b | e -> [ e ]

(* (A and B) or (A and C) --> A and (B or C), recursively, for conjuncts
   that appear (syntactically) in every disjunct. *)
let factor_common_disjunction e =
  match disjuncts e with
  | [] | [ _ ] -> e
  | first :: rest as all ->
    let conj_lists = List.map conjuncts all in
    let first_conjs = conjuncts first in
    ignore rest;
    let common =
      List.filter
        (fun c -> List.for_all (fun l -> List.exists (expr_equal c) l) conj_lists)
        first_conjs
    in
    if common = [] then e
    else begin
      let strip l =
        (* Remove one occurrence of each common conjunct. *)
        List.fold_left
          (fun acc c ->
            let rec remove = function
              | [] -> []
              | x :: xs -> if expr_equal x c then xs else x :: remove xs
            in
            remove acc)
          l common
      in
      let residuals = List.map strip conj_lists in
      let residual_or =
        if List.exists (fun l -> l = []) residuals then None
          (* one disjunct reduced to the common part: OR collapses to true *)
        else
          Some
            (match List.map conjoin residuals with
            | [] -> Const (Value.Bool true)
            | d :: ds -> List.fold_left (fun acc x -> Or (acc, x)) d ds)
      in
      match residual_or with
      | None -> conjoin common
      | Some r -> And (conjoin common, r)
    end

(* ------------------------------------------------------------------ *)
(* Column usage and remapping                                         *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

(* Columns of the *current* row used by [e], including references from
   nested subqueries via Outer at the matching relative depth. *)
let cols_used e =
  let acc = ref Int_set.empty in
  let rec in_expr d = function
    | Col i -> if d = 0 then acc := Int_set.add i !acc
    | Outer (k, i) -> if k = d then acc := Int_set.add i !acc
    | Const _ | Param _ -> ()
    | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) ->
      in_expr d a;
      in_expr d b
    | Not e | Is_null e | In_list (e, _) -> in_expr d e
    | Case (arms, default) ->
      List.iter
        (fun (c, r) ->
          in_expr d c;
          in_expr d r)
        arms;
      in_expr d default
    | Exists p -> in_plan (d + 1) p
  and in_plan d = function
    | Scan _ | Values _ -> ()
    | Filter (e, p) ->
      in_expr d e;
      in_plan d p
    | Project (cols, p) ->
      List.iter (fun (e, _) -> in_expr d e) cols;
      in_plan d p
    | Cross (l, r) ->
      in_plan d l;
      in_plan d r
    | Join { lkeys; rkeys; residual; left; right; _ } ->
      List.iter (in_expr d) (lkeys @ rkeys @ Option.to_list residual);
      in_plan d left;
      in_plan d right
    | Union_all (l, r) | Union (l, r) | Except (l, r) | Intersect (l, r) ->
      in_plan d l;
      in_plan d r
    | Distinct p | Limit (_, p) -> in_plan d p
    | Sort (keys, p) ->
      List.iter (fun (e, _) -> in_expr d e) keys;
      in_plan d p
    | Group { keys; aggs; input } ->
      List.iter (fun (e, _) -> in_expr d e) keys;
      List.iter
        (fun (a, _) ->
          match a with
          | Count_star -> ()
          | Count e | Sum e | Min e | Max e | Avg e -> in_expr d e)
        aggs;
      in_plan d input
  in
  in_expr 0 e;
  !acc

(* Remap the current row's columns through [f], following references into
   nested subqueries (Outer at matching depth). *)
let map_cols f e =
  let rec in_expr d = function
    | Col i -> if d = 0 then Col (f i) else Col i
    | Outer (k, i) -> if k = d then Outer (k, f i) else Outer (k, i)
    | (Const _ | Param _) as e -> e
    | Cmp (c, a, b) -> Cmp (c, in_expr d a, in_expr d b)
    | Arith (o, a, b) -> Arith (o, in_expr d a, in_expr d b)
    | And (a, b) -> And (in_expr d a, in_expr d b)
    | Or (a, b) -> Or (in_expr d a, in_expr d b)
    | Not e -> Not (in_expr d e)
    | Is_null e -> Is_null (in_expr d e)
    | In_list (e, vs) -> In_list (in_expr d e, vs)
    | Case (arms, default) ->
      Case
        ( List.map (fun (c, r) -> (in_expr d c, in_expr d r)) arms,
          in_expr d default )
    | Exists p -> Exists (in_plan (d + 1) p)
  and in_plan d = function
    | (Scan _ | Values _) as p -> p
    | Filter (e, p) -> Filter (in_expr d e, in_plan d p)
    | Project (cols, p) ->
      Project (List.map (fun (e, c) -> (in_expr d e, c)) cols, in_plan d p)
    | Cross (l, r) -> Cross (in_plan d l, in_plan d r)
    | Join j ->
      Join
        {
          j with
          lkeys = List.map (in_expr d) j.lkeys;
          rkeys = List.map (in_expr d) j.rkeys;
          residual = Option.map (in_expr d) j.residual;
          left = in_plan d j.left;
          right = in_plan d j.right;
        }
    | Union_all (l, r) -> Union_all (in_plan d l, in_plan d r)
    | Union (l, r) -> Union (in_plan d l, in_plan d r)
    | Except (l, r) -> Except (in_plan d l, in_plan d r)
    | Intersect (l, r) -> Intersect (in_plan d l, in_plan d r)
    | Distinct p -> Distinct (in_plan d p)
    | Limit (n, p) -> Limit (n, in_plan d p)
    | Sort (keys, p) ->
      Sort (List.map (fun (e, dir) -> (in_expr d e, dir)) keys, in_plan d p)
    | Group { keys; aggs; input } ->
      let map_agg = function
        | Count_star -> Count_star
        | Count e -> Count (in_expr d e)
        | Sum e -> Sum (in_expr d e)
        | Min e -> Min (in_expr d e)
        | Max e -> Max (in_expr d e)
        | Avg e -> Avg (in_expr d e)
      in
      Group
        {
          keys = List.map (fun (e, c) -> (in_expr d e, c)) keys;
          aggs = List.map (fun (a, c) -> (map_agg a, c)) aggs;
          input = in_plan d input;
        }
  in
  in_expr 0 e

(* Substitute Col i by [subst.(i)] (used to push filters through Project).
   Only valid when the expression contains no nested subqueries, because the
   substituted expressions' own columns would need depth adjustment inside
   Exists bodies. *)
let rec subst_cols subst = function
  | Col i -> subst i
  | (Outer _ | Const _ | Param _) as e -> e
  | Cmp (c, a, b) -> Cmp (c, subst_cols subst a, subst_cols subst b)
  | Arith (o, a, b) -> Arith (o, subst_cols subst a, subst_cols subst b)
  | And (a, b) -> And (subst_cols subst a, subst_cols subst b)
  | Or (a, b) -> Or (subst_cols subst a, subst_cols subst b)
  | Not e -> Not (subst_cols subst e)
  | Is_null e -> Is_null (subst_cols subst e)
  | In_list (e, vs) -> In_list (subst_cols subst e, vs)
  | Case (arms, default) ->
    Case
      ( List.map (fun (c, r) -> (subst_cols subst c, subst_cols subst r)) arms,
        subst_cols subst default )
  | Exists _ -> assert false

let rec has_exists = function
  | Exists _ -> true
  | e -> List.exists has_exists (expr_children e)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                   *)
(* ------------------------------------------------------------------ *)

let rec fold_expr e =
  let e =
    match e with
    | Cmp (c, a, b) -> Cmp (c, fold_expr a, fold_expr b)
    | Arith (o, a, b) -> Arith (o, fold_expr a, fold_expr b)
    | And (a, b) -> And (fold_expr a, fold_expr b)
    | Or (a, b) -> Or (fold_expr a, fold_expr b)
    | Not e -> Not (fold_expr e)
    | Is_null e -> Is_null (fold_expr e)
    | In_list (e, vs) -> In_list (fold_expr e, vs)
    | Col _ | Outer _ | Const _ | Param _ | Exists _ | Case _ -> e
  in
  match e with
  | Cmp (_, Const _, Const _)
  | Arith (_, Const _, Const _)
  | Not (Const _)
  | Is_null (Const _)
  | In_list (Const _, _) -> Const (Eval.eval_expr ~row:[||] e)
  | And (Const (Value.Bool true), x) | And (x, Const (Value.Bool true)) -> x
  | And (Const (Value.Bool false), _) | And (_, Const (Value.Bool false)) ->
    Const (Value.Bool false)
  | Or (Const (Value.Bool false), x) | Or (x, Const (Value.Bool false)) -> x
  | Or (Const (Value.Bool true), _) | Or (_, Const (Value.Bool true)) ->
    Const (Value.Bool true)
  | e -> e

(* ------------------------------------------------------------------ *)
(* Decorrelation of (NOT) EXISTS                                      *)
(* ------------------------------------------------------------------ *)

(* Shape of a decorrelated subquery: join keys, sub-local filters and a
   residual predicate over the concatenated (outer @ sub) row. *)
type decorrelated = {
  d_lkeys : expr list;
  d_rkeys : expr list;
  d_sub_filters : expr list;
  d_residual : expr list;
}

(* Does [e] reference only Outer (1, _) of the current level (no Col, no
   deeper Outer)? *)
let only_outer1 e =
  let rec loop = function
    | Outer (1, _) -> true
    | Outer _ | Col _ -> false
    | Const _ | Param _ -> true
    | e -> (not (has_exists e)) && List.for_all loop (expr_children e)
  in
  loop e

let only_local e =
  (not (has_exists e)) && not (refers_outer ~depth:1 e)

(* [a = b] is a join key when [a] reads the outer row and [b] the subquery
   row. A side that reads neither (a bare constant) makes the conjunct a
   one-sided test: a subquery filter, or a residual. *)
let key_pair a b =
  only_outer1 a && refers_outer ~depth:1 a && only_local b
  && not (Int_set.is_empty (cols_used b))

let rewrite_outer1_to_col e =
  let rec loop = function
    | Outer (1, i) -> Col i
    | (Col _ | Const _ | Param _) as e -> e
    | Outer _ -> assert false
    | Cmp (c, a, b) -> Cmp (c, loop a, loop b)
    | Arith (o, a, b) -> Arith (o, loop a, loop b)
    | And (a, b) -> And (loop a, loop b)
    | Or (a, b) -> Or (loop a, loop b)
    | Not e -> Not (loop e)
    | Is_null e -> Is_null (loop e)
    | In_list (e, vs) -> In_list (loop e, vs)
    | Case (arms, default) ->
      Case (List.map (fun (c, r) -> (loop c, loop r)) arms, loop default)
    | Exists _ -> assert false
  in
  loop e

(* Rewrite a mixed conjunct into residual form over the concatenated row:
   Outer (1, i) -> Col i (outer part), Col j -> Col (left_arity + j). *)
let rewrite_to_residual ~left_arity e =
  let rec loop = function
    | Outer (1, i) -> Col i
    | Col j -> Col (left_arity + j)
    | (Const _ | Param _) as e -> e
    | Outer _ -> assert false
    | Cmp (c, a, b) -> Cmp (c, loop a, loop b)
    | Arith (o, a, b) -> Arith (o, loop a, loop b)
    | And (a, b) -> And (loop a, loop b)
    | Or (a, b) -> Or (loop a, loop b)
    | Not e -> Not (loop e)
    | Is_null e -> Is_null (loop e)
    | In_list (e, vs) -> In_list (loop e, vs)
    | Case (arms, default) ->
      Case (List.map (fun (c, r) -> (loop c, loop r)) arms, loop default)
    | Exists _ -> assert false
  in
  loop e

(* A conjunct may only be handled if its outer references are exactly depth 1
   and it contains no nested subquery. *)
let handleable e =
  let rec max2 = function
    | Outer (k, _) -> k <= 1
    | e -> (not (has_exists e)) && List.for_all max2 (expr_children e)
  in
  max2 e

let decorrelate_pred ~left_arity pred =
  let pred = factor_common_disjunction pred in
  let conj = conjuncts pred in
  if not (List.for_all handleable conj) then None
  else begin
    let acc = { d_lkeys = []; d_rkeys = []; d_sub_filters = []; d_residual = [] } in
    let step acc c =
      match c with
      | Cmp (Eq, a, b) when key_pair a b ->
        { acc with d_lkeys = rewrite_outer1_to_col a :: acc.d_lkeys; d_rkeys = b :: acc.d_rkeys }
      | Cmp (Eq, a, b) when key_pair b a ->
        { acc with d_lkeys = rewrite_outer1_to_col b :: acc.d_lkeys; d_rkeys = a :: acc.d_rkeys }
      | c when only_local c -> { acc with d_sub_filters = c :: acc.d_sub_filters }
      | c -> { acc with d_residual = rewrite_to_residual ~left_arity c :: acc.d_residual }
    in
    Some (List.fold_left step acc conj)
  end

let rec strip_distinct = function Distinct p -> strip_distinct p | p -> p

(* Try to decorrelate one Exists payload. The payload must be Filter over an
   uncorrelated plan (the common SQL lowering shape); Distinct and Project-of-
   plain-columns on top are tolerated by unwrapping. *)
let decorrelate_exists ~left_arity sub =
  match strip_distinct sub with
  | Filter (pred, inner) when not (plan_refers_outer ~depth:1 inner) -> (
    match decorrelate_pred ~left_arity pred with
    | None -> None
    | Some d ->
      let right =
        match d.d_sub_filters with
        | [] -> inner
        | fs -> Filter (conjoin fs, inner)
      in
      Some (d, right))
  | p when not (plan_refers_outer ~depth:1 p) ->
    (* Uncorrelated EXISTS: degenerate zero-key join. *)
    Some ({ d_lkeys = []; d_rkeys = []; d_sub_filters = []; d_residual = [] }, p)
  | _ -> None

(* NOT EXISTS σ[C ∧ (D1 ∨ … ∨ Dn)] R  =  ∧i NOT EXISTS σ[C ∧ Di] R. Exact
   under three-valued logic: a filter keeps the rows where its predicate is
   TRUE, and a disjunction is TRUE exactly when one of its disjuncts is. The
   split targets the first disjunctive conjunct that would otherwise be an OR
   residual (one reading both rows), and applies only when every piece
   decorrelates with at least one join key — each piece then costs a hash
   probe per outer row instead of a residual check per candidate. *)
let split_not_exists ~left_arity sub =
  match strip_distinct sub with
  | Filter (pred, inner) -> (
    let conj = conjuncts (factor_common_disjunction pred) in
    let splittable = function Or _ as c -> not (only_local c) | _ -> false in
    match List.find_index splittable conj with
    | None -> None
    | Some i ->
      let c = List.nth conj i in
      let rest = List.filteri (fun j _ -> j <> i) conj in
      let pieces =
        List.map
          (fun d ->
            decorrelate_exists ~left_arity (Filter (conjoin (rest @ [ d ]), inner)))
          (disjuncts c)
      in
      if List.for_all (function Some (d, _) -> d.d_lkeys <> [] | None -> false) pieces
      then Some (List.filter_map Fun.id pieces)
      else None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The rewriter                                                       *)
(* ------------------------------------------------------------------ *)

let is_true = function Const (Value.Bool true) -> true | _ -> false

(* Project over Project (level `Full) collapses into one projection by
   substituting the inner expressions into the outer ones. *)
let project ~level cols p =
  match p with
  | Project (inner, q)
    when level = `Full
         && (not (List.exists (fun (e, _) -> has_exists e) (cols @ inner)))
         && List.for_all
              (fun (e, _) -> Int_set.for_all (fun i -> i < List.length inner) (cols_used e))
              cols ->
    let arr = Array.of_list (List.map fst inner) in
    Project
      (List.map (fun (e, c) -> (fold_expr (subst_cols (fun i -> arr.(i)) e), c)) cols, q)
  | p -> Project (cols, p)

(* Is [c] the test [y.k IS NULL] on a right join-key column [y.k] of [j]? *)
let tests_null_key j c =
  match c with
  | Is_null (Col k) ->
    let la = Schema.arity (schema_of j.left) in
    List.exists (function Col i -> i + la = k | _ -> false) j.rkeys
  | _ -> false

(* Can [e] tell two equal values apart, such as [Int 3] and [Float 3.]?
   Arithmetic can (3 / 2 is 1, 3. / 2 is 1.5); a subquery may hold some. *)
let rec distinguishes = function
  | Arith _ | Exists _ -> true
  | e -> List.exists distinguishes (expr_children e)

(* [as_set p] drops each DISTINCT of [p] that no consumer can tell from its
   absence, for a consumer of [p] that ignores duplicates (EXCEPT's right
   input, a semi or anti join's right side): the set of rows a Project, a
   Filter, a UNION ALL or an inner join yields depends only on the sets of
   rows it reads, as long as its expressions treat equal values alike (see
   [distinguishes]); else the copy a DISTINCT keeps would matter. *)
let exprs_ok es = not (List.exists distinguishes es)

let join_ok j = exprs_ok (j.lkeys @ j.rkeys @ Option.to_list j.residual)

let rec as_set plan =
  match plan with
  | Distinct p -> as_set p
  | Project (cols, p) when exprs_ok (List.map fst cols) -> Project (cols, as_set p)
  | Filter (e, p) when exprs_ok [ e ] -> Filter (e, as_set p)
  | Union_all (l, r) -> Union_all (as_set l, as_set r)
  | Join ({ kind = Inner; _ } as j) when join_ok j ->
    Join { j with left = as_set j.left; right = as_set j.right }
  | p -> p

(* A semi or anti join reads its right side as a set, unless its keys or
   residual could tell the copies apart. *)
let semi_join j = Join (if join_ok j then { j with right = as_set j.right } else j)

let rec rewrite ~level plan =
  match plan with
  | Scan _ | Values _ -> plan
  | Filter (pred, p) -> rewrite_filter ~level (fold_expr pred) (rewrite ~level p)
  | Project (cols, p) ->
    project ~level (List.map (fun (e, c) -> (fold_expr e, c)) cols) (rewrite ~level p)
  | Cross (l, r) -> Cross (rewrite ~level l, rewrite ~level r)
  | Join ({ kind = Semi | Anti; _ } as j) when level = `Full ->
    semi_join { j with left = rewrite ~level j.left; right = rewrite ~level j.right }
  | Join j ->
    Join { j with left = rewrite ~level j.left; right = rewrite ~level j.right }
  | Union_all (l, r) -> Union_all (rewrite ~level l, rewrite ~level r)
  | Union (l, r) -> Union (rewrite ~level l, rewrite ~level r)
  | Except (l, r) when level = `Full -> Except (rewrite ~level l, as_set (rewrite ~level r))
  | Except (l, r) -> Except (rewrite ~level l, rewrite ~level r)
  | Intersect (l, r) -> Intersect (rewrite ~level l, rewrite ~level r)
  | Distinct (Distinct p) -> rewrite ~level (Distinct p)
  | Distinct p -> Distinct (rewrite ~level p)
  | Sort (keys, p) -> Sort (keys, rewrite ~level p)
  | Limit (n, p) -> Limit (n, rewrite ~level p)
  | Group g -> Group { g with input = rewrite ~level g.input }

and rewrite_filter ~level pred p =
  if is_true pred then p
  else begin
    let conj = conjuncts pred in
    (* Decorrelate (NOT) EXISTS conjuncts first (level `Full). *)
    let plan, remaining =
      if level <> `Full then (p, conj)
      else
        let left_arity = Schema.arity (schema_of p) in
        List.fold_left
          (fun (plan, remaining) c ->
            let join kind plan (d, right) =
              let residual =
                match d.d_residual with [] -> None | rs -> Some (conjoin rs)
              in
              semi_join
                {
                  kind;
                  lkeys = List.rev d.d_lkeys;
                  rkeys = List.rev d.d_rkeys;
                  residual;
                  left = plan;
                  right = rewrite ~level right;
                }
            in
            let attempt kind sub =
              match decorrelate_exists ~left_arity sub with
              | Some piece -> (join kind plan piece, remaining)
              | None -> (plan, c :: remaining)
            in
            match c with
            | Exists sub -> attempt Semi sub
            | Not (Exists sub) -> (
              match split_not_exists ~left_arity sub with
              | Some pieces -> (List.fold_left (join Anti) plan pieces, remaining)
              | None -> attempt Anti sub)
            | c -> (plan, c :: remaining))
          (p, []) conj
        |> fun (plan, rem) -> (plan, List.rev rem)
    in
    push_conjuncts ~level remaining plan
  end

(* Push each conjunct as far down as it goes, then try join detection. *)
and push_conjuncts ~level conj plan =
  match plan with
  | Cross (l, r) when level <> `None ->
    let la = Schema.arity (schema_of l) in
    let ra = Schema.arity (schema_of r) in
    let left_only, rest =
      List.partition (fun c -> Int_set.for_all (fun i -> i < la) (cols_used c)) conj
    in
    let right_only, middle =
      List.partition
        (fun c -> Int_set.for_all (fun i -> i >= la && i < la + ra) (cols_used c))
        rest
    in
    let l =
      match left_only with [] -> l | cs -> rewrite_filter ~level (conjoin cs) l
    in
    let r =
      match right_only with
      | [] -> r
      | cs ->
        let shifted = List.map (map_cols (fun i -> i - la)) cs in
        rewrite_filter ~level (conjoin shifted) r
    in
    (* Equi-conjuncts across the boundary become hash join keys. *)
    let keys, residual =
      List.partition
        (fun c ->
          match c with
          | Cmp (Eq, a, b) ->
            let ca = cols_used a and cb = cols_used b in
            (not (has_exists a)) && not (has_exists b)
            && ((Int_set.for_all (fun i -> i < la) ca
                 && Int_set.for_all (fun i -> i >= la) cb
                 && not (Int_set.is_empty cb))
               || (Int_set.for_all (fun i -> i < la) cb
                   && Int_set.for_all (fun i -> i >= la) ca
                   && not (Int_set.is_empty ca)))
          | _ -> false)
        middle
    in
    if keys = [] then
      match residual with
      | [] -> Cross (l, r)
      | cs -> Filter (conjoin cs, Cross (l, r))
    else begin
      let lkeys, rkeys =
        List.split
          (List.map
            (function
              | Cmp (Eq, a, b) ->
                let ca = cols_used a in
                if Int_set.for_all (fun i -> i < la) ca && not (Int_set.is_empty (cols_used b)) then
                  (a, map_cols (fun i -> i - la) b)
                else (b, map_cols (fun i -> i - la) a)
              | _ -> assert false)
            keys)
      in
      let residual = match residual with [] -> None | cs -> Some (conjoin cs) in
      Join { kind = Inner; lkeys; rkeys; residual; left = l; right = r }
    end
  | Project (cols, q)
    when level <> `None
         && List.for_all (fun c -> not (has_exists c)) conj
         && List.for_all (fun (e, _) -> not (has_exists e)) cols ->
    (* Push the filter through the projection by substitution. *)
    let arr = Array.of_list (List.map fst cols) in
    let substituted =
      List.map (fun c -> subst_cols (fun i -> arr.(i)) c) conj
    in
    project ~level cols (rewrite_filter ~level (conjoin substituted) q)
  | Join ({ kind = Left; _ } as j)
    when level = `Full && List.exists (tests_null_key j) conj ->
    (* σ[y.k IS NULL ∧ P] (x ⟕[x.j = y.k] y), with y.k a right join-key
       column, keeps exactly the left rows without a match, padded with
       NULLs: a NULL key never joins, so every matched row has y.k non-NULL.
       That is the anti-join x ▷ y under a NULL-padding projection; the
       conjuncts of P that read only x move under the join. *)
    let la = Schema.arity (schema_of j.left) in
    let conj = List.filter (fun c -> not (tests_null_key j c)) conj in
    let left_only, above =
      List.partition
        (fun c ->
          (not (has_exists c)) && Int_set.for_all (fun i -> i < la) (cols_used c))
        conj
    in
    let left =
      match left_only with
      | [] -> j.left
      | cs -> rewrite_filter ~level (conjoin cs) j.left
    in
    let padded =
      Array.to_list
        (Array.mapi
           (fun i c -> ((if i < la then Col i else Const Value.Null), c))
           (Schema.concat (schema_of j.left) (schema_of j.right)))
    in
    let anti = Project (padded, Join { j with kind = Anti; left }) in
    if above = [] then anti else push_conjuncts ~level above anti
  | Union_all (l, r) when level <> `None && not (List.exists has_exists conj) ->
    Union_all
      (rewrite_filter ~level (conjoin conj) l, rewrite_filter ~level (conjoin conj) r)
  | Distinct q when level <> `None -> Distinct (push_conjuncts ~level conj q)
  | _ -> (
    match conj with [] -> plan | cs -> Filter (conjoin cs, plan))

let split_join_on ~left_arity on =
  let conj = conjuncts (factor_common_disjunction on) in
  let left_side e =
    Int_set.for_all (fun i -> i < left_arity) (cols_used e) && not (has_exists e)
  in
  let right_side e =
    let cs = cols_used e in
    Int_set.for_all (fun i -> i >= left_arity) cs
    && (not (Int_set.is_empty cs))
    && not (has_exists e)
  in
  let keys, residual =
    List.partition
      (function
        | Cmp (Eq, a, b) ->
          (left_side a && right_side b) || (left_side b && right_side a)
        | _ -> false)
      conj
  in
  let lkeys, rkeys =
    List.split
      (List.map
         (function
           | Cmp (Eq, a, b) ->
             if left_side a then (a, map_cols (fun i -> i - left_arity) b)
             else (b, map_cols (fun i -> i - left_arity) a)
           | _ -> assert false)
         keys)
  in
  let residual = match residual with [] -> None | cs -> Some (conjoin cs) in
  (lkeys, rkeys, residual)

let optimize ?(level = `Full) plan =
  match level with
  | `None -> plan
  | `Basic | `Full ->
    (* A couple of passes reach the fixpoint for every plan the SQL
       front-end emits; the guard stops pathological ping-pong. *)
    let rec go n plan =
      if n = 0 then plan
      else
        let plan' = rewrite ~level plan in
        if plan_size plan' = plan_size plan then plan' else go (n - 1) plan'
    in
    go 4 plan
