(** Artifact stamping: every swarm and benchmark JSON artifact carries
    the git commit, the seed and the configuration that produced it, so result
    trajectories are comparable across PRs without guessing which build a
    file came from.

    The commit is resolved without spawning a process: [DS_GIT_COMMIT] (CI
    can inject it) wins, else [.git/HEAD] is read (walking up from the
    working directory and following one level of [ref:] indirection), else
    ["unknown"]. No timestamps — artifacts from the same commit and seed
    must be byte-identical. *)

(** The resolved commit hash, or ["unknown"]. *)
val git_commit : unit -> string

(** [fields ~seed ~config ()] — the standard stamp object:
    [{"commit": .., "seed": .., "config": ..}]. *)
val fields :
  seed:int -> config:(string * Ds_obs.Json.t) list -> unit -> Ds_obs.Json.t

(** [add ~seed ~config payload] prepends a ["stamp"] member to a JSON
    object payload (returns non-objects unchanged). *)
val add :
  seed:int ->
  config:(string * Ds_obs.Json.t) list ->
  Ds_obs.Json.t ->
  Ds_obs.Json.t
