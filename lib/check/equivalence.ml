open Ds_model

type violation =
  | Unknown_request of { ta : int; intrata : int }
  | Duplicate_delivery of { ta : int; intrata : int }
  | Conflict_reordered of {
      obj : int;
      first : int * int;
      second : int * int;
    }
  | Cross_shard_conflict of {
      obj : int;
      first : int * int;
      second : int * int;
      shard_a : int;
      shard_b : int;
    }

type report = {
  reference_len : int;
  candidate_len : int;
  pairs_checked : int;
  violations : violation list;
}

let is_equivalent r = r.violations = []

let pp_key ppf (ta, intrata) = Format.fprintf ppf "(ta=%d,intrata=%d)" ta intrata

let pp_violation ppf = function
  | Unknown_request { ta; intrata } ->
    Format.fprintf ppf "candidate delivered %a which the reference never admitted"
      pp_key (ta, intrata)
  | Duplicate_delivery { ta; intrata } ->
    Format.fprintf ppf "candidate delivered %a more than once" pp_key
      (ta, intrata)
  | Conflict_reordered { obj; first; second } ->
    Format.fprintf ppf
      "conflicting pair on object %d reordered: reference runs %a before %a, \
       candidate the other way"
      obj pp_key first pp_key second
  | Cross_shard_conflict { obj; first; second; shard_a; shard_b } ->
    Format.fprintf ppf
      "conflicting pair on object %d split across shard lanes: %a on lane %d \
       vs %a on lane %d (the router must escalate such transactions to the \
       global lane)"
      obj pp_key first shard_a pp_key second shard_b

let pp_report ppf r =
  Format.fprintf ppf "reference=%d candidate=%d conflicting pairs=%d %s"
    r.reference_len r.candidate_len r.pairs_checked
    (if is_equivalent r then "equivalent"
     else
       Format.asprintf "violations=%d [%a]" (List.length r.violations)
         (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_violation)
         (List.filteri (fun i _ -> i < 3) r.violations))

(* Abort markers are bookkeeping rows, not executed operations; neither side
   of the comparison should see them. *)
let executed rs = List.filter (fun r -> not (Request.is_abort_marker r)) rs

(* [shard] is [(s_count, shard_of)] when checking a sharded run: any
   conflicting reference pair whose transactions sit on two {e distinct
   shard lanes} (neither being the global lane [s_count]) is a router
   soundness failure — per-lane SS2PL cannot order a conflict it never
   sees, so such pairs must have been escalated to the global lane. *)
let check_gen ?shard ~reference ~candidate () =
  let reference = executed reference and candidate = executed candidate in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Membership discipline: candidate keys are unique and drawn from the
     reference. *)
  let ref_keys = Hashtbl.create (2 * List.length reference) in
  List.iter (fun r -> Hashtbl.replace ref_keys (Request.key r) ()) reference;
  let seen = Hashtbl.create (2 * List.length candidate) in
  List.iter
    (fun r ->
      let ta, intrata = Request.key r in
      if Hashtbl.mem seen (ta, intrata) then add (Duplicate_delivery { ta; intrata })
      else Hashtbl.replace seen (ta, intrata) ();
      if not (Hashtbl.mem ref_keys (ta, intrata)) then
        add (Unknown_request { ta; intrata }))
    candidate;
  (* Order discipline: for every pair of conflicting requests present in
     both schedules, the candidate keeps the reference's relative order.
     Group by object; read-only prefixes commute so only pairs with at least
     one write conflict (delegated to {!Request.conflicts}). *)
  let cand_pos = Hashtbl.create (2 * List.length candidate) in
  List.iteri (fun i r -> Hashtbl.replace cand_pos (Request.key r) i) candidate;
  let by_obj : (int, Request.t list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Request.t) ->
      match r.Request.obj with
      | None -> ()
      | Some o ->
        (match Hashtbl.find_opt by_obj o with
        | Some l -> l := r :: !l
        | None -> Hashtbl.add by_obj o (ref [ r ])))
    reference;
  let pairs = ref 0 in
  Hashtbl.iter
    (fun obj group ->
      (* in reference order *)
      let group = List.rev !group in
      let rec walk = function
        | [] -> ()
        | (a : Request.t) :: rest ->
          List.iter
            (fun (b : Request.t) ->
              if Request.conflicts a b then begin
                incr pairs;
                (match
                   ( Hashtbl.find_opt cand_pos (Request.key a),
                     Hashtbl.find_opt cand_pos (Request.key b) )
                 with
                | Some pa, Some pb when pa > pb ->
                  add
                    (Conflict_reordered
                       { obj; first = Request.key a; second = Request.key b })
                | _ -> ());
                match shard with
                | None -> ()
                | Some (s_count, shard_of) -> (
                  match
                    (shard_of a.Request.ta, shard_of b.Request.ta)
                  with
                  | Some sa, Some sb
                    when sa <> sb && sa < s_count && sb < s_count
                         && a.Request.ta <> b.Request.ta ->
                    add
                      (Cross_shard_conflict
                         {
                           obj;
                           first = Request.key a;
                           second = Request.key b;
                           shard_a = sa;
                           shard_b = sb;
                         })
                  | _ -> ())
              end)
            rest;
          walk rest
      in
      walk group)
    by_obj;
  {
    reference_len = List.length reference;
    candidate_len = List.length candidate;
    pairs_checked = !pairs;
    violations = List.rev !violations;
  }

let check ~reference ~candidate () = check_gen ~reference ~candidate ()

let check_sharded ~shards ~shard_of ~reference ~candidate () =
  if shards < 2 then
    invalid_arg "Equivalence.check_sharded: needs at least 2 shards";
  check_gen ~shard:(shards, shard_of) ~reference ~candidate ()

(* ------------------------------------------------------------------ *)
(* failover durability                                                *)
(* ------------------------------------------------------------------ *)

type failover_report = {
  sync : bool;
  watermark : int;
  acked : int;
  survived_acked : int;
  lost_below_watermark : (int * int) list;
  lost_above_watermark : (int * int) list;
}

let check_failover ~sync ~watermark ~acked ~survived () =
  let below = ref [] and above = ref [] and kept = ref 0 in
  List.iter
    (fun (ta, lsn) ->
      if survived ta then incr kept
      else if lsn <= watermark then below := (ta, lsn) :: !below
      else above := (ta, lsn) :: !above)
    acked;
  let order = List.sort compare in
  {
    sync;
    watermark;
    acked = List.length acked;
    survived_acked = !kept;
    lost_below_watermark = order !below;
    lost_above_watermark = order !above;
  }

let failover_ok r =
  r.lost_below_watermark = [] && ((not r.sync) || r.lost_above_watermark = [])

let pp_failover_report ppf r =
  Format.fprintf ppf
    "mode=%s watermark=%d acked=%d survived=%d lost(below)=%d lost(above)=%d \
     %s"
    (if r.sync then "sync" else "async")
    r.watermark r.acked r.survived_acked
    (List.length r.lost_below_watermark)
    (List.length r.lost_above_watermark)
    (if failover_ok r then "ok"
     else if r.lost_below_watermark <> [] then
       "VIOLATION: acked transactions at or below the watermark were lost"
     else "VIOLATION: sync mode lost acked transactions")
