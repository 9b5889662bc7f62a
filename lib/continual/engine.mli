(** The continual-analytics engine: epoch-indexed recurring sessions over
    the one-shot service (DESIGN.md §13).

    Register recurring workload entries ([every]/[window]) as named
    sessions, then drive epochs with {!tick} — from a deterministic loop
    in tests, benches and [arb serve -w], or [POST /v1/epoch] in
    [arb serve --listen]. Each tick, in registration order:

    + advance every session's sliding budget window to the new epoch,
      collecting exact expiry refunds;
    + for due sessions ([every] divides the epochs since registration):
      certify for cost ({!Arb_service.Service.certified_cost}), prescreen
      against the window (refusal leaves both the window and the service
      budget byte-identical), then submit;
    + drain the service once and settle from the service's lifecycle
      records ({!Arb_service.Service.record}): label each due epoch
      {e revalidated} when its plan-cache key hit, and otherwise {e cold}
      (the session's first plan) or {e replanned} — the key names every
      search input, the service's calibration included, so an install
      re-plans each due session once; charge windows for executed
      queries, fold outputs into the session's carried mechanism state
      ({!Mstate}, held in memory), and append per-session epoch records.
      A submission that another domain's drain took and raised on
      settles as ["missing"].

    Emits [arb_continual_*] counters (cold plans / replans /
    revalidations / window refusals / epochs) and per-session
    [arb_budget_window_*] gauges into the service's metrics registry.

    Sessions are immutable values. Ticks and registrations serialize on
    one internal lock and each publishes every session at once when it
    finishes; {!epoch}, {!sessions}, {!session} and {!to_json} read the
    last published sessions without locking, from any domain (the HTTP
    routes do), so a reader never sees half a tick. Epoch records are
    byte-identical at any [workers] count — the engine inherits the
    service pipeline's canonical ordering and adds none of its own
    nondeterminism. *)

type planned = Cold | Revalidated | Replanned

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
  er_estimate : string list;  (** the carried state's estimate *)
}

type t

val create : service:Arb_service.Service.t -> unit -> t
(** An engine over [service]. The service owns the calibration, the global
    budget and every lifecycle record; the engine owns only its sessions. *)

val epoch : t -> int
(** The last completed tick. Epochs start at 1; 0 before the first
    {!tick}. *)

val register :
  t -> Arb_service.Workload.submission -> (string, string) result
(** Register a recurring submission as a session; returns its name: the
    query name, suffixed [#2], [#3], … when taken. The submission must
    pass {!Arb_service.Workload.validate_recurring} and carry [every].
    Every session carries mechanism state across its epochs. *)

val tick :
  ?tracer:Arb_obs.Tracer.t -> ?workers:int -> t -> epoch_record list
(** Advance one epoch. Returns this epoch's record for every registered
    session (including skips and window refusals), in registration order.
    A tick whose drain raises publishes nothing: {!epoch} and
    {!sessions} stay at the last completed tick. *)

val run_epochs :
  ?tracer:Arb_obs.Tracer.t -> ?workers:int -> t -> int -> epoch_record list list
(** [n] consecutive ticks. *)

type session = private {
  name : string;
  sub : Arb_service.Workload.submission;
  every : int;
  start_epoch : int;  (** its first due epoch *)
  window : Arb_dp.Budget.Window.t option;
  compose : int option;
  kind : Mstate.kind;
  state : Mstate.t;  (** the carried mechanism state *)
  last_cost : Arb_dp.Budget.t option;
  cold : int;
  replans : int;
  revalidations : int;
  window_refusals : int;
  runs : int;  (** executed epochs *)
  history : epoch_record list;  (** newest first *)
}

val sessions : t -> session list
(** Every session as of the last completed tick, in registration order. *)

val session : t -> string -> session option

val estimate : session -> string list
(** The carried state's estimate ({!Mstate.estimate}); [[]] before any
    informative update. *)

val record_json : epoch_record -> Arb_util.Json.t

val records_string : epoch_record list -> string
(** Canonical bytes (no wall-clock content) — the multi-epoch analogue of
    {!Arb_service.Lifecycle.records_to_string}, used by the worker-count
    byte-identity gates. *)

val session_summary_json : session -> Arb_util.Json.t
val session_json : session -> Arb_util.Json.t
(** Summary plus full epoch history, oldest first. *)

val to_json : t -> Arb_util.Json.t
(** The [GET /v1/sessions] payload: epoch + session summaries, each with
    its live window, composed loss and projected loss. *)
