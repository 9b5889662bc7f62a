(** Incremental mechanism state carried across a recurring session's
    epochs.

    Two shapes, chosen by the query's mechanism class ({!kind_for}):
    exponential-mechanism queries (top-1/top-k winners) accumulate a
    heavy-hitter multiset of per-epoch winner sets; numeric aggregates
    (median, counts) feed a bounded quantile sketch. Both are pure values,
    one per session, held in the engine's immutable session records;
    {!to_json} is how the session routes serve them.

    Estimates are deterministic: the winners estimate breaks ties
    lexicographically and the sketch's compaction is deterministic
    decimation of the sorted sample list, so state bytes never depend on
    arrival order across equal inputs. *)

type kind = Winners | Sketch

type t

val create : ?capacity:int -> kind -> t
(** An empty state. [capacity] (default 512, minimum 2) bounds the sketch
    sample count; beyond it the sorted samples are decimated (every other
    sample kept). *)

val kind_for : Arb_queries.Registry.query -> kind
(** [Winners] for exponential-mechanism queries, [Sketch] otherwise. *)

val kind_name : kind -> string

val update : t -> outputs:string list -> t
(** Fold one epoch's lifecycle outputs in. Winners: count the full output
    list (JSON-encoded, so separators in outputs are safe). Sketch: parse
    numeric outputs into the sample set; non-numeric outputs are ignored. *)

val estimate : t -> string list option
(** The state's smoothed answer: the modal output list (winners) or the
    median sample (sketch). [None] before any informative update. *)

val to_json : t -> Arb_util.Json.t
