open Ra

type node_stats = {
  label : string;
  rows : int;
  time : float;
  children : node_stats list;
}

let label_of = function
  | Scan (t, _) -> "Scan(" ^ Table.name t ^ ")"
  | Values _ -> "Values"
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Cross _ -> "Cross"
  | Join { kind; _ } -> (
    match kind with
    | Inner -> "INNERJoin"
    | Left -> "LEFTJoin"
    | Semi -> "SEMIJoin"
    | Anti -> "ANTIJoin")
  | Union_all _ -> "UnionAll"
  | Union _ -> "Union"
  | Except _ -> "Except"
  | Intersect _ -> "Intersect"
  | Distinct _ -> "Distinct"
  | Sort _ -> "Sort"
  | Limit (n, _) -> Printf.sprintf "Limit(%d)" n
  | Group _ -> "Group"

let now = Hook.now

let set_section_observer obs = Hook.set obs

let timed label f =
  let t0 = now () in
  let res = f () in
  let dt = now () -. t0 in
  Hook.note label dt;
  (res, dt)

(* Replace an evaluated child by its materialized rows. *)
let freeze child rows = Values (schema_of child, rows)

let rec profile plan =
  let timed_leaf () =
    let t0 = now () in
    let rows = Eval.run plan in
    let stats =
      { label = label_of plan; rows = List.length rows; time = now () -. t0; children = [] }
    in
    (rows, stats)
  in
  let unary child rebuild =
    let child_rows, child_stats = profile child in
    let t0 = now () in
    let rows = Eval.run (rebuild (freeze child child_rows)) in
    ( rows,
      {
        label = label_of plan;
        rows = List.length rows;
        time = now () -. t0;
        children = [ child_stats ];
      } )
  in
  let binary l r rebuild =
    let l_rows, l_stats = profile l in
    let r_rows, r_stats = profile r in
    let t0 = now () in
    let rows = Eval.run (rebuild (freeze l l_rows) (freeze r r_rows)) in
    ( rows,
      {
        label = label_of plan;
        rows = List.length rows;
        time = now () -. t0;
        children = [ l_stats; r_stats ];
      } )
  in
  match plan with
  | Scan _ | Values _ -> timed_leaf ()
  | Filter (e, (Scan _ as scan)) ->
    (* One unit, as Eval runs it: an index probe narrows the scan, so the
       scan child reports the probe's candidates, not the whole table. *)
    let t0 = now () in
    let candidates = Eval.candidates e scan in
    let rows = List.filter (fun row -> Eval.truthy (Eval.eval_expr ~row e)) candidates in
    ( rows,
      {
        label = label_of plan;
        rows = List.length rows;
        time = now () -. t0;
        children =
          [
            {
              label = label_of scan;
              rows = List.length candidates;
              time = 0.;
              children = [];
            };
          ];
      } )
  | Filter (e, p) -> unary p (fun p -> Filter (e, p))
  | Project (cols, p) -> unary p (fun p -> Project (cols, p))
  | Distinct p -> unary p (fun p -> Distinct p)
  | Sort (keys, p) -> unary p (fun p -> Sort (keys, p))
  | Limit (n, p) -> unary p (fun p -> Limit (n, p))
  | Group g -> unary g.input (fun input -> Group { g with input })
  | Cross (l, r) -> binary l r (fun l r -> Cross (l, r))
  | Union_all (l, r) -> binary l r (fun l r -> Union_all (l, r))
  | Union (l, r) -> binary l r (fun l r -> Union (l, r))
  | Except (l, r) -> binary l r (fun l r -> Except (l, r))
  | Intersect (l, r) -> binary l r (fun l r -> Intersect (l, r))
  | Join j when (match j.right with Scan _ -> true | _ -> false) ->
    (* Keep the base-table right side: the index fast path should be what
       gets measured. *)
    let l_rows, l_stats = profile j.left in
    let r_stats =
      {
        label = label_of j.right;
        rows =
          (match j.right with Scan (t, _) -> Table.row_count t | _ -> 0);
        time = 0.;
        children = [];
      }
    in
    let t0 = now () in
    let rows = Eval.run (Join { j with left = freeze j.left l_rows }) in
    ( rows,
      {
        label = label_of plan;
        rows = List.length rows;
        time = now () -. t0;
        children = [ l_stats; r_stats ];
      } )
  | Join j ->
    binary j.left j.right (fun left right -> Join { j with left; right })

let run plan = profile plan

let render stats =
  let buf = Buffer.create 256 in
  let rec go indent s =
    Buffer.add_string buf
      (Printf.sprintf "%s%s  rows=%d  %.3f ms\n" indent s.label s.rows
         (1000. *. s.time));
    List.iter (go (indent ^ "  ")) s.children
  in
  go "" stats;
  Buffer.contents buf
