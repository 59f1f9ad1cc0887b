(** Plans of optional knobs written as [key=value,...], or [none] for the
    plan with every knob off: the fault plan and the replication-link plan.
    A plan is a record; one table row per key says how to read and set its
    field, the range its value must lie in and a line of help. Parsing,
    printing, range checks and the help text all come from the table, so a
    new key is a record field, its default and one row. *)

(** A knob's value type and range. Floats print with [%g]. *)
type _ kind =
  | Rate : float kind  (** a probability in [0,1]; on above 0 *)
  | Seconds : float kind
      (** a non-negative duration; with a gate, written only when it is on *)
  | Cycle : int option kind  (** a positive cycle; on when set *)
  | Time : float option kind  (** a non-negative virtual time; on when set *)
  | Period : float option kind  (** a positive period; on when set *)

type 'p row =
  | Row : {
      key : string;
      kind : 'a kind;
      get : 'p -> 'a;
      set : 'p -> 'a -> 'p;
      gate : 'p row option;  (** the knob a duration belongs to *)
      doc : string;
    }
      -> 'p row

type 'p t = {
  what : string;  (** names the plan in "unknown <what> key" errors *)
  none : 'p;  (** every knob off; the defaults a parse starts from *)
  rows : 'p row list;  (** in the order [to_string] writes them *)
}

(** [row ?gate kind key doc get set]. *)
val row :
  ?gate:'p row -> 'a kind -> string -> string -> ('p -> 'a) ->
  ('p -> 'a -> 'p) -> 'p row

(** Whether [to_string] writes the row: a knob that is on, or a duration
    whose gate is on. *)
val shown : 'p row -> 'p -> bool

(** No row is shown: [to_string] writes ["none"]. *)
val is_none : 'p t -> 'p -> bool

(** The shown rows as [key=value], in table order, joined by commas. *)
val to_string : 'p t -> 'p -> string

val pp : 'p t -> Format.formatter -> 'p -> unit

(** [Error "<key> must be ..."] for the first row out of range; NaN is out
    of every range. *)
val validate : 'p t -> 'p -> (unit, string) result

(** Sets the given keys on [none] and validates the result. Empty items and
    ["none"] set nothing; a key given twice keeps its last value. *)
val of_string : 'p t -> string -> ('p, string) result

(** The keys, their values and ranges, for command-line help. *)
val help : 'p t -> string
