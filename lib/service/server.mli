(** The HTTP/1.1 front door: a concurrent socket server on OCaml domains.

    One accept domain multiplexes the listening socket; accepted
    connections land in a bounded queue consumed by a fixed pool of worker
    domains that parse ({!Http}), dispatch the handler, and write
    responses. Backpressure is layered: over-capacity connections are
    answered [429] inline at the accept edge (the service is never
    touched), and the handler ({!Api}) adds its own admission checks.

    A whole-request deadline guards against slowloris clients: the bytes
    of one request must arrive within [request_timeout_s] (408 beyond),
    however slowly they trickle; the deadline resets between keep-alive
    requests. Malformed input fails the connection closed with the status
    {!Http.parse_request} assigns. Partial-request disconnects and peer
    resets are absorbed and counted, never raised.

    This is the only layer of the service allowed to read the wall clock:
    the handler runs on the deterministic core, so the same submissions
    produce byte-identical lifecycle records whether they arrive over a
    socket or from a workload file.

    With a {!Arb_runtime.Fault} injector attached, the chaos suite's
    network seams activate: [Accept_drop] loses just-accepted connections
    and [Response_truncate] cuts response writes short — clients see
    realistic churn while service state stays consistent. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int;  (** connection-handler domains *)
  max_pending : int;
      (** accepted connections allowed to wait for a worker; beyond this
          the accept edge answers 429 *)
  request_timeout_s : float;
      (** whole-request deadline (slowloris guard) and idle keep-alive
          expiry *)
  faults : Arb_runtime.Fault.t option;
  metrics : Arb_obs.Metrics.t option;
      (** [arb_http_*] counters/gauges (connections, responses by status,
          accept-edge rejections, timeouts, disconnects, queue depth) *)
}

val default_config : config
(** 127.0.0.1:ephemeral, 4 workers, 1024 pending, 10 s request deadline,
    no faults, no metrics. The listen backlog is 1024 and requests are
    parsed under {!Http.default_limits}. *)

type stats = {
  accepted : int;
  served : int;  (** requests answered (all statuses) *)
  rejected_busy : int;  (** 429s written at the accept edge *)
  bad_requests : int;  (** connections failed closed on malformed input *)
  timeouts : int;  (** whole-request deadline hits (408) *)
  client_disconnects : int;  (** peer vanished mid-request *)
  faults_injected : int;  (** network-seam faults fired by the injector *)
}

type t

val start : ?config:config -> handler:(Http.request -> Http.response) -> unit -> t
(** Bind, listen, and spawn the accept + worker domains. The handler runs
    on worker domains concurrently — it must be thread-safe. Exceptions it
    raises are mapped to 500 responses. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val stop : t -> unit
(** Graceful drain-then-close: stop accepting, serve everything already
    accepted or queued, join the domains, release the sockets.
    Idempotent; blocks until shutdown completes. *)

val stats : t -> stats
(** A snapshot of the counters. Each counter moves before the response
    that reveals its event is written, so a client that has read a
    response finds that response already counted. *)
