(** Global timing-section observer shared by {!Table} (index-maintenance
    sections) and {!Profile} (query sections). Install through
    {!Profile.set_section_observer}; this module exists only to break the
    [Table] -> [Profile] dependency cycle. *)

val set : (string -> float -> unit) option -> unit
val enabled : unit -> bool

(** [note label dt] notifies the observer, if any, that a section [label]
    took [dt] seconds. No-op (and allocation-free) when no observer is
    installed. *)
val note : string -> float -> unit

(** Monotonic host clock, in seconds from an arbitrary origin; re-exported
    as {!Profile.now}. *)
val now : unit -> float
