(** HTTP routes for the continual engine, designed to be passed as
    {!Arb_service.Api.create}'s [?extra] handler:

    - [GET /v1/sessions] — epoch + one summary per session (counters,
      carried-state estimate, live window, composed and projected loss).
    - [GET /v1/sessions/<name>] — the summary plus the session's full
      epoch history; 404 for unknown names.
    - [POST /v1/epoch] — drive one epoch (by hand with curl, or from any
      external scheduler); responds with the epoch's records. Ticks
      serialize on the engine's internal lock.

    Any other request is declined ([None]). The service API answers its
    own routes before consulting this handler: [GET /v1/budget] is the
    global balance, and [PUT /v1/calibration] installs on the service,
    whose new fingerprint the engine reads at its next tick. *)

val handler :
  ?tracer:Arb_obs.Tracer.t ->
  ?workers:int ->
  Engine.t ->
  Arb_service.Http.request ->
  Arb_service.Http.response option
(** [workers] sizes the planning pool of drains triggered by
    [POST /v1/epoch]. *)
