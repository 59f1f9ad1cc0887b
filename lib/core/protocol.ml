open Ds_model
open Ds_relal

type guarantee = Serializable | Read_committed | Fifo_only | Custom of string

type t = {
  name : string;
  description : string;
  guarantee : guarantee;
  language : [ `Sql | `Datalog | `Ocaml ];
  spec_loc : int;
  prepare : Relations.t -> unit -> (int * int) list;
}

let find_col schema name =
  match Schema.find schema ~rel:None ~name with
  | Ok i -> i
  | Error _ ->
    invalid_arg (Printf.sprintf "Protocol: query output lacks column %s" name)

(* Turns a plan into a per-cycle thunk yielding ordered (TA, INTRATA) keys:
   shared by the static and dynamic SQL constructors. *)
let key_runner ~ordered plan =
  let schema = Ra.schema_of plan in
  let ta_col = find_col schema "ta" in
  let intrata_col = find_col schema "intrata" in
  let id_col = if ordered then -1 else find_col schema "id" in
  fun () ->
    let rows = Eval.run plan in
    let rows =
      if ordered then rows
      else
        List.stable_sort
          (fun (a : Value.t array) b -> Value.compare a.(id_col) b.(id_col))
          rows
    in
    List.map
      (fun (row : Value.t array) ->
        match (row.(ta_col), row.(intrata_col)) with
        | Value.Int ta, Value.Int intrata -> (ta, intrata)
        | _ -> invalid_arg "Protocol: non-integer ta/intrata in query result")
      rows

(* A protocol plan lives as long as its scheduler, so at [`Full] its
   stateful subplans over the relations (Listing 1's lock tables) become
   views kept up to date from the tables' change feeds; the lower levels
   stay as the references. *)
let standing ~optimize plan =
  if optimize = `Full then View.materialize plan else plan

let of_sql ?(optimize = `Full) ?(description = "") ~name ~guarantee ~ordered sql =
  let prepare (rels : Relations.t) =
    key_runner ~ordered
      (standing ~optimize (Ds_sql.Exec.prepare ~optimize rels.Relations.catalog sql))
  in
  {
    name;
    description;
    guarantee;
    language = `Sql;
    spec_loc = Queries.spec_loc sql;
    prepare;
  }

let of_sql_dynamic ?(optimize = `Full) ?(description = "") ~name ~guarantee
    ~ordered ~initial sql =
  (* Every preparation registers its placeholder cells here so the setter
     reaches all schedulers using this protocol. *)
  let current = ref initial in
  let all_binders : (Value.t -> unit) list ref = ref [] in
  let prepare (rels : Relations.t) =
    let prepared =
      Ds_sql.Exec.prepare_params ~optimize rels.Relations.catalog sql
    in
    let plan = Ds_sql.Exec.prepared_plan prepared in
    (* Bind every placeholder to the current value now and remember the
       binder for future updates. *)
    let bind v =
      let k = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        match Ds_sql.Exec.bind prepared !k v with
        | () -> incr k
        | exception Ds_sql.Exec.Exec_error _ -> continue_ := false
      done
    in
    bind !current;
    all_binders := bind :: !all_binders;
    (* Subplans reading a placeholder are never views, so a new binding
       takes effect on the next cycle. *)
    key_runner ~ordered (standing ~optimize plan)
  in
  let set v =
    current := v;
    List.iter (fun bind -> bind v) !all_binders
  in
  ( {
      name;
      description;
      guarantee;
      language = `Sql;
      spec_loc = Queries.spec_loc sql;
      prepare;
    },
    set )

let of_datalog ?(description = "") ~name ~guarantee program_text =
  let program = Ds_datalog.Dl_parser.parse_program program_text in
  let prepare (rels : Relations.t) =
    let engine = Ds_datalog.Dl_engine.create program in
    fun () ->
      Ds_datalog.Dl_engine.clear_facts engine;
      let load (r : Request.t) target_data target_terminal =
        match r.Request.obj with
        | Some obj ->
          Ds_datalog.Dl_engine.add_fact engine target_data
            [
              Value.Int r.Request.id;
              Value.Int r.Request.ta;
              Value.Int r.Request.intrata;
              Value.Str (String.make 1 (Op.to_char r.Request.op));
              Value.Int obj;
            ]
        | None ->
          Ds_datalog.Dl_engine.add_fact engine target_terminal
            [
              Value.Int r.Request.id;
              Value.Int r.Request.ta;
              Value.Int r.Request.intrata;
              Value.Str (String.make 1 (Op.to_char r.Request.op));
            ]
      in
      let pending = Relations.pending rels in
      List.iter (fun r -> load r "requests" "terminal_requests") pending;
      List.iter
        (fun r -> load r "history" "history_terminal")
        (Relations.history_requests rels);
      let qualified = Ds_datalog.Dl_engine.query engine "qualified" in
      let key_set = Hashtbl.create 64 in
      List.iter
        (fun tuple ->
          match tuple with
          | [| Value.Int ta; Value.Int intrata |] ->
            Hashtbl.replace key_set (ta, intrata) ()
          | _ -> invalid_arg "Protocol: qualified/2 must yield integer pairs")
        qualified;
      (* Order by request id, taken from the pending list. *)
      List.filter_map
        (fun (r : Request.t) ->
          let k = Request.key r in
          if Hashtbl.mem key_set k then Some (r.Request.id, k) else None)
        pending
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
  in
  {
    name;
    description;
    guarantee;
    language = `Datalog;
    spec_loc = Queries.spec_loc program_text;
    prepare;
  }

let of_fn ?(description = "") ~name ~guarantee ~spec_loc fn =
  let prepare rels () = fn rels in
  { name; description; guarantee; language = `Ocaml; spec_loc; prepare }

let guarantee_to_string = function
  | Serializable -> "serializable"
  | Read_committed -> "read-committed"
  | Fifo_only -> "fifo"
  | Custom s -> s

let pp ppf t =
  Format.fprintf ppf "%s (%s, %s, %d spec lines)" t.name
    (match t.language with `Sql -> "SQL" | `Datalog -> "Datalog" | `Ocaml -> "OCaml")
    (guarantee_to_string t.guarantee)
    t.spec_loc
