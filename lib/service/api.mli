(** The JSON API over {!Service}: routes {!Server} requests to the
    service core and owns the single executor domain that drains the
    submission queue.

    Endpoints:
    - [GET /healthz] — liveness: status (ok|stopping), pending, submitted,
      drain count.
    - [POST /v1/queries] — body is one workload query entry
      ({!Workload.submission_of_json}); 202 with the assigned submission
      index (each accepted copy already holds its certified cost), or
      429 (reason [queueFull] or [budget]) via {!Service.try_submit}
      with the budget untouched, 400 on malformed
      bodies or recurring entries ([every]/[window] — those are
      session-scoped, registered from workload files), 503 once stopping.
    - [GET /v1/queries/<index>] — poll one submission: its lifecycle
      record (wall-clock timings included) once drained, a pending stub
      before that, 404 for indices never assigned.
    - [GET /v1/records] — all lifecycle records in canonical form (no
      timings): byte-identical to {!Lifecycle.records_to_string} over the
      same submissions on the in-process path.
    - [GET /v1/counters] — aggregate lifecycle counters.
    - [GET /v1/budget] — the service's global balance, exactly the keys
      [epsilon] and [delta] ({!Arb_dp.Budget.to_json}).
    - [GET /v1/metrics] — Prometheus text (404 when the service has no
      registry).
    - [GET /v1/calibration] — the calibration pricing cold plans;
      [PUT /v1/calibration] installs one ({!Service.set_calibration}) and
      replies with exactly the keys [installed] (its fingerprint) and
      [changed]; 400 on a malformed or future-version body.
    - [POST /v1/stop] — request shutdown; the server's graceful drain
      then finishes in-flight requests.

    A known path with the wrong method is a 405; any other request goes
    to the [extra] handler of {!create}, and is a 404 when that declines.

    Handlers run on server worker domains concurrently; the service core
    is mutex-protected, and execution stays serialized on the certificate
    chain inside the one executor domain. *)

type config = {
  max_queue : int;  (** {!Service.try_submit} queue bound *)
  drain_workers : int;  (** planner pool size per drain *)
  check_budget : bool;
      (** answer 429 for a submission the available balance cannot hold;
          when false it is enqueued and the drain emits its refusal *)
}

val default_config : config
(** 1024-deep queue, single-worker drains, budget 429s on. *)

type t

val create :
  ?config:config ->
  ?tracer:Arb_obs.Tracer.t ->
  ?extra:(Http.request -> Http.response option) ->
  service:Service.t ->
  unit ->
  t
(** Spawns the executor domain immediately; it sleeps until a submission
    arrives (or {!request_stop}).

    [extra] answers the requests no built-in route takes ([None] makes
    them a 404): subsystems layered above the service — the continual
    engine's [/v1/sessions] family — mount endpoints without this module
    depending on them, and cannot replace a built-in route. It runs on
    server worker domains concurrently, so it must be thread-safe. *)

val handler : t -> Http.request -> Http.response
(** The route table — pass to {!Server.start}. *)

val preload : t -> Workload.submission list -> unit
(** Enqueue submissions directly (the [--workload] file on a listening
    server) and wake the executor. *)

val request_stop : t -> unit
(** Ask the executor to exit after a final drain of whatever is queued.
    Idempotent; also woken by [POST /v1/stop]. *)

val stop_requested : t -> bool

val join : t -> unit
(** {!request_stop} then join the executor domain: on return every
    accepted submission has drained into a lifecycle record. *)

val drains : t -> int
(** Completed drain batches (for tests and the health endpoint). *)
