(** The continual-analytics engine: epoch-indexed recurring sessions over
    the one-shot service (DESIGN.md §13).

    Register recurring workload entries ([every]/[window]) as named
    sessions, then drive epochs with {!tick} — from a deterministic loop
    in tests and benches, a wall-clock ticker or [POST /v1/epoch] in
    [arb serve --listen]. Each tick, in registration order:

    + advance every session's sliding budget window to the new epoch,
      collecting exact expiry refunds;
    + for due sessions ([every] divides the epochs since registration):
      certify for cost ({!Arb_service.Service.certified_cost}), prescreen
      against the window (refusal leaves both the window and the service
      budget byte-identical), then decide {e re-validation} (submit; the
      plan cache hits) versus a forced {e re-plan} (evict the cache entry
      first) when, since the plan's fingerprint, the population estimate
      moved by more than 20%, the service's calibration fingerprint
      ({!Arb_service.Service.calibration_fingerprint}, read once at the
      start of the tick) changed, or the relevant budget balance moved by
      more than 50%;
    + drain the service once and settle from the service's lifecycle
      records ({!Arb_service.Service.record}): charge windows for executed
      queries, fold outputs into carried mechanism state ({!Mstate},
      round-tripped through its serialized form every epoch), refresh
      fingerprints, and append per-session epoch records. A submission
      whose drain raised settles as ["missing"].

    Emits [arb_continual_*] counters (cold plans / replans by reason /
    revalidations / window refusals / epochs) and per-session
    [arb_budget_window_*] gauges into the service's metrics registry.

    Ticks are serialized on an internal lock; views may be read from other
    domains (the HTTP routes do). Epoch records are byte-identical at any
    [workers] count — the engine inherits the service pipeline's
    canonical ordering and adds none of its own nondeterminism. *)

type planned = Cold | Revalidated | Replanned of string

val planned_name : planned -> string

type outcome =
  | Skipped  (** not due this epoch *)
  | Window_refused of string  (** window prescreen refused; nothing ran *)
  | Ran of {
      index : int;  (** service submission index *)
      planned : planned;
      status : string;  (** {!Arb_service.Lifecycle.status_name} *)
      outputs : string list;
    }

type epoch_record = {
  er_epoch : int;
  er_session : string;
  er_outcome : outcome;
  er_refunded : Arb_dp.Budget.t;  (** expired from the window this epoch *)
  er_window : (Arb_dp.Budget.t * Arb_dp.Budget.t) option;
      (** (spent, balance) after settling, for windowed sessions *)
  er_estimate : string list;
      (** carried-state estimate (state-carrying sessions) or this epoch's
          raw outputs *)
}

type t

val create : service:Arb_service.Service.t -> unit -> t
(** An engine over [service]. The service owns the calibration, the global
    budget and every lifecycle record; the engine owns only its sessions. *)

val epoch : t -> int
(** Epochs start at 1; 0 before the first {!tick}. *)

val register :
  t ->
  ?name:string ->
  carry_state:bool ->
  Arb_service.Workload.submission ->
  (string, string) result
(** Register a recurring submission as a session; returns its name
    ([name], defaulting to the query name, suffixed [#2], [#3], … when
    taken — an explicit duplicate [name] is an error). The submission must
    pass {!Arb_service.Workload.validate_recurring} and carry [every].
    [carry_state] enables mechanism-state carryover across epochs. *)

val observe_population : t -> int -> unit
(** Feed a fresh population estimate (drift input for re-validation). *)

val set_tolerance : t -> string -> float option -> unit
(** Change session [name]'s analyst error tolerance ([None] = exact). A
    changed tolerance forces exactly one re-plan ("tolerance drift") on
    the session's next due epoch; subsequent epochs revalidate as usual.
    Raises [Invalid_argument] on unknown sessions or tolerances outside
    (0, 1]. *)

val tick :
  ?tracer:Arb_obs.Tracer.t -> ?workers:int -> t -> epoch_record list
(** Advance one epoch. Returns this epoch's record for every registered
    session (including skips and window refusals), in registration order. *)

val run_epochs :
  ?tracer:Arb_obs.Tracer.t -> ?workers:int -> t -> int -> epoch_record list list
(** [n] consecutive ticks. *)

type session_view = {
  v_name : string;
  v_query : string;
  v_every : int;
  v_carry : bool;
  v_kind : Mstate.kind;
  v_runs : int;
  v_cold : int;
  v_replans : int;
  v_revalidations : int;
  v_window_refusals : int;
  v_estimate : string list;
  v_state : Arb_util.Json.t;  (** the serialized carried state *)
  v_window : Arb_dp.Budget.Window.t option;
  v_compose : int option;
  v_last_cost : Arb_dp.Budget.t option;
  v_history : epoch_record list;  (** oldest first *)
}

val sessions : t -> session_view list
val session : t -> string -> session_view option

val record_json : epoch_record -> Arb_util.Json.t

val records_string : epoch_record list -> string
(** Canonical bytes (no wall-clock content) — the multi-epoch analogue of
    {!Arb_service.Lifecycle.records_to_string}, used by the worker-count
    byte-identity gates. *)

val session_summary_json : session_view -> Arb_util.Json.t
val session_json : session_view -> Arb_util.Json.t
(** Summary plus full epoch history. *)

val to_json : t -> Arb_util.Json.t
(** The [GET /v1/sessions] payload: epoch + session summaries, each with
    its live window, composed loss and projected loss. *)
