(** Plan (de)serialization.

    A chosen plan travels inside the query authorization certificate and
    can be archived/replayed by the CLI ([arb plan --json]); round-tripping
    is property-tested. *)

val plan_to_json : Plan.t -> Arb_util.Json.t
val plan_of_json : Arb_util.Json.t -> Plan.t
(** Raises [Arb_util.Json.Parse_error] on malformed input. *)

val metrics_to_json : Cost_model.metrics -> Arb_util.Json.t
val metrics_of_json : Arb_util.Json.t -> Cost_model.metrics

val plan_to_string : ?pretty:bool -> Plan.t -> string
val plan_of_string : string -> Plan.t

(** {2 Versioned file persistence}

    Plans written to disk carry a [formatVersion] field so stale or foreign
    files are rejected with a reason instead of a crash — the service's
    on-disk plan cache (and any external tooling) must survive format
    evolution. *)

val format_version : int
(** The version stamped into every file this build writes. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. Tolerates concurrent
    creators: a directory that another process creates first counts as
    success. Raises [Sys_error] when it cannot be created. *)

val save_versioned : string -> (string * Arb_util.Json.t) list -> unit
(** Write a JSON object with [formatVersion] prepended to the given fields.
    Raises [Sys_error] when the path is not writable. *)

val load_versioned : string -> (Arb_util.Json.t, string) result
(** Read a file written by {!save_versioned}: [Error] (never an exception)
    on an unreadable path, malformed JSON, or a version mismatch. *)

val save_plan : string -> Plan.t -> unit
(** Persist one plan. Raises [Sys_error] when the path is not writable. *)

val load_plan : string -> (Plan.t, string) result
(** Load a plan persisted by {!save_plan}; [Error] on unreadable, malformed
    or version-mismatched files. *)
