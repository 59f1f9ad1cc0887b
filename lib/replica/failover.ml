open Ds_core

type report = {
  mode : Session.mode;
  epoch : int;
  recovered : Journal.recovered;
}

let promote dir =
  if not (Session.is_repl_dir dir) then
    failwith
      (Printf.sprintf "%s: not a replication session directory (no REPL manifest)"
         dir);
  let mode = Session.mode_of_dir dir in
  let path = Session.standby_path_of dir in
  if not (Sys.file_exists path) then
    failwith (Printf.sprintf "%s: no standby journal" dir);
  let recovered, j = Journal.promote ~after:0 path in
  let epoch = Journal.writer_epoch j in
  Journal.close j;
  { mode; epoch; recovered }
