(** Plan cache: memoized {!Arb_planner.Search.plan} results keyed by a
    canonical hash of everything the search's outcome depends on.

    The planner is deterministic: the winning plan and its metrics are a
    pure function of (pricing model, query AST, deployment size N,
    category count, the query's error tolerance, optimization goal); the
    service always plans at {!Arb_planner.Constraints.no_limits}, so limits
    are not part of the key. The cache key is the SHA-256 of a canonical
    rendering of exactly that tuple — the model's
    {!Arb_planner.Calibration.fingerprint} and the query's {e program text}
    (pretty-printed canonical form), not its registry name, so two
    differently-named submissions of the same program share an entry while
    any change to the model, AST, epsilon, row shape, N, C, tolerance or
    goal misses. Entries filed under one model
    stay in memory and on disk when another is installed; they are reached
    again only once their model is.

    Entries optionally persist to a directory as versioned
    {!Arb_planner.Plan_io} JSON files ([<key>.json]) so the cache survives
    restarts; unreadable, malformed or version-mismatched files are
    treated as misses (logged, never fatal). All access is
    mutex-protected, so worker domains may consult the cache freely. *)

type key = string
(** 64-char lowercase hex. *)

type entry = {
  plan : Arb_planner.Plan.t;
  metrics : Arb_planner.Cost_model.metrics;
  cols : int;  (** category count the plan was priced against *)
}

type t

val create : ?dir:string -> unit -> t
(** [dir] enables disk persistence; it is created if missing (recursively,
    tolerating concurrent creators — two processes may share a cache
    directory). Stale [*.tmp] files stranded by writers that crashed
    mid-save are swept on creation. *)

val key :
  model:string ->
  goal:Arb_planner.Constraints.goal ->
  query:Arb_queries.Registry.query ->
  n:int ->
  unit ->
  key
(** Canonical cache key (tag [arb-plan-cache-key-v4]). [model] is the
    fingerprint of the cost model the search prices with
    ({!Arb_planner.Calibration.fingerprint}). *)

val find : t -> key -> entry option
(** Memory first, then (when persisting) the entry's file on disk —
    loaded entries are promoted into memory. *)

val add : t -> key -> query_name:string -> entry -> unit
(** Insert and, when persisting, write the entry's file atomically via a
    per-writer temp file (pid + sequence number, so concurrent writers of
    the same key never clobber each other mid-write) + rename.
    [query_name] is written to the file as informational metadata only; it
    is not part of the key. *)

val mem : t -> key -> bool

val size : t -> int
(** In-memory entry count. *)

val revived : t -> int
(** How many entries were promoted from disk over this cache's lifetime. *)
