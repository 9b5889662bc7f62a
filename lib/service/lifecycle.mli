(** Per-query lifecycle records and aggregate counters — the service's
    observability surface.

    One record per submission, covering the whole pipeline
    (queue → admit → plan/cache → execute). The canonical JSON rendering
    ({!to_json} with [timings:false], the default) contains only
    deterministic fields: for a fixed workload and service seed it is
    byte-identical at any worker count, which the determinism property
    tests rely on. Wall-clock stage timings are observability-only and
    must be requested explicitly. *)

type status =
  | Refused of string
      (** rejected at admission — certification failure or insufficient
          remaining budget; nothing was planned or executed and the
          session is untouched *)
  | Plan_failed of string  (** the planner found no feasible plan *)
  | Exec_failed of string
      (** execution failed closed; budget and chain intact *)
  | Executed of { outputs : string list }

type timings = {
  admit_s : float;  (** certification + admission decision, at enqueue *)
  plan_s : float;  (** planner wall clock (0 on a cache hit) *)
  exec_s : float;  (** end-to-end execution *)
}

type record = {
  index : int;  (** 0-based submission order *)
  query : string;
  categories : int;
  epsilon : float;
  cache_key : Cache.key;
      (** the key the drain filed the plan under; [""] when refused at
          admission, before any key was computed *)
  cache_hit : bool;
      (** the plan came from the cache (an earlier submission or a
          persisted entry) rather than a fresh search *)
  cost : Arb_dp.Budget.t;
      (** for an executed submission, what its certificate deducted
          ({!Arb_planner.Plan.charged}: the certified cost, amplified when
          the plan samples devices), so [cost] equals [budget_before]
          less [budget_after]; otherwise the certified cost (zero when
          refused before certification succeeded) *)
  budget_before : Arb_dp.Budget.t;
  budget_after : Arb_dp.Budget.t;
  status : status;
  timings : timings;
}

type counters = {
  submitted : int;
  refused : int;
  planned : int;  (** cold searches actually run *)
  cache_hits : int;
  executed : int;
  failed : int;  (** plan or execution failures *)
  plan_seconds : float;
  exec_seconds : float;
  spent : Arb_dp.Budget.t;  (** sum of the executed records' [cost] *)
}

val status_name : status -> string
(** "refused" | "planFailed" | "execFailed" | "executed". *)

val to_json : ?timings:bool -> record -> Arb_util.Json.t
(** Canonical (deterministic) rendering; [timings:true] adds the
    wall-clock stage fields. *)

val records_to_string : ?timings:bool -> record list -> string
(** The canonical JSON list, one compact record per call — what
    byte-identity is asserted over. *)

val counters_of : record list -> counters
val counters_to_json : counters -> Arb_util.Json.t

val pp : Format.formatter -> record -> unit
(** One human-readable line per record, timings included. *)
