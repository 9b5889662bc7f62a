(** The multi-tenant analytics service: a long-lived deployment fielding a
    stream of analyst submissions against one device population and one
    shared privacy budget.

    Each submission is admitted once, when it is enqueued ({!submit},
    {!try_submit}): the registry query is resolved ({!resolve}), its
    tolerance checked and its program certified, and then, under the
    service lock, each copy either becomes a refusal record or places a
    {e hold}: its certified cost, reserved against the {e available}
    balance, which is the committed balance less every unsettled hold,
    charged in submission order. A refused copy leaves the budget and the
    certificate chain untouched. Every hold settles exactly once: when
    the submission executes, its hold is replaced by what its
    certificate deducted ({!Arb_planner.Plan.charged}), and whatever the
    charge did not use returns to the available balance; a submission
    whose plan or execution fails releases its hold, and so does a drain
    that raises, for every hold it had not settled.

    Queued submissions are processed in batches ({!drain}) through a
    fixed pipeline:

    + {b admit} — refusal records pass through; admitted submissions
      are keyed ({!Cache.key}) under the calibration the drain plans
      with and labeled against the plan cache in submission order (an
      earlier identical submission makes a later one a hit,
      deterministically).
    + {b plan} — the distinct cache misses are planned concurrently by a
      pool of OCaml domains. Each worker runs its own
      {!Arb_planner.Search.plan} at {!Arb_planner.Constraints.no_limits},
      under the query's own error tolerance; results land in per-task slots and are
      committed to the cache in canonical task order, so the cache contents and every
      lifecycle record are independent of the worker count and of domain
      scheduling.
    + {b execute} — sequential, in submission order, against the shared
      {!Arb_runtime.Session}, which runs the cached plan over the query's
      inputs: execution must stay serialized because each
      query's sortition consumes the randomness block minted by the
      previous certificate (§5.1–5.2) — the chain is inherently ordered.
      Per-query device inputs are synthesized deterministically from the
      service seed and the submission index.

    Planning parallelizes across submissions; each execution then fans
    its per-member and per-device stages out over the [workers] of its
    exec config (see {!create}). *)

type t

val create :
  ?exec_config:Arb_runtime.Exec.config ->
  ?cache:Cache.t ->
  ?metrics:Arb_obs.Metrics.t ->
  ?calibration:Arb_planner.Calibration.t ->
  ?snapshots:string ->
  budget:Arb_dp.Budget.t ->
  devices:int ->
  seed:int ->
  unit ->
  t
(** A service over [devices] simulated participants. [cache] defaults to a
    fresh in-memory cache (pass one built with [Cache.create ~dir] for
    persistence); [seed] drives per-query database synthesis.

    [metrics] attaches a registry: every {!drain} feeds it
    [arb_service_*] instruments (queue wait, per-outcome submission
    counts, hit/cold latency histograms, refusals, pool occupancy,
    cache size), the planner adds [arb_planner_*] for each cold search,
    each executed query's runtime trace is accumulated as
    [arb_runtime_*] counters, and predicted-vs-measured calibration
    samples as [arb_cal_*] (DESIGN.md §14).

    [calibration] selects the cost model pricing cold plans (default
    {!Arb_planner.Calibration.default}, i.e. the hand-anchored
    {!Arb_planner.Cost_model.default}). [snapshots] is a directory: every
    executed submission appends its calibration samples, with the
    fingerprint of the calibration its drain started under, to the
    residual log there ({!Arb_planner.Calibration.append}), so ground
    truth accumulates for [arb calibrate]. A failed append is logged as a
    warning and never fails the drain.

    [exec_config] (default {!Arb_runtime.Exec.default_config}) configures
    every execution: its [workers] are the domains each execution's
    keygen, certificate-check, sortition-check and inputs stages fan out
    over (records are byte-identical at any value), and a [tracer] set
    there records the execution's stage spans inside the drain's
    [execute] span when it is the tracer passed to {!drain}. [arb serve]
    passes its [--workers] and its [--trace-out] tracer here. *)

val submit : t -> Workload.submission -> int
(** Admit and enqueue ([repeat] is honored); returns the submission index
    of the first copy. Indices are global to the service, 0-based. A copy
    that does not resolve, has a tolerance outside (0, 1], fails
    certification or does not fit the available balance is enqueued as
    its refusal record, which the next {!drain} emits.

    [submit], [pending], [history], [record] and [drain] are safe to call
    concurrently from any domain (the HTTP front door's handlers do): the
    queue, index counter and history share one mutex, and whole drains
    are serialized on a second one because execution is inherently
    ordered on the certificate chain. *)

val pending : t -> int

val resolve : Workload.submission -> Arb_queries.Registry.query option
(** The registry query a submission names, carrying the submission's
    tolerance; [None] for an unknown name. The one mapping from a
    submission to its query: admission and the continual engine both go
    through it, so they compute the same certified cost. *)

val certified_cost : t -> Workload.submission -> Arb_dp.Budget.t option
(** The certified cost of one copy of a submission over this service's
    population; [None] when it does not resolve or certify. *)

type refusal =
  | Queue_full of int  (** the bound it hit *)
  | Over_budget of string

val refusal_message : refusal -> string

val try_submit :
  ?max_queue:int ->
  ?check_budget:bool ->
  t ->
  Workload.submission ->
  (int, refusal) result
(** Backpressure-aware {!submit}, through the same admission: refuse —
    enqueueing nothing, with the budget untouched — when the queue would
    exceed [max_queue] or (with [check_budget], the default) when the
    available balance cannot hold every copy's certified cost. Each copy
    it accepts holds its cost, so the drain never refuses it for budget.
    Submissions that do not resolve, have a bad tolerance or fail
    certification are enqueued anyway, so the drain emits the same
    canonical refusal record the workload-file path produces. With
    [check_budget:false] it is {!submit} with a queue bound. *)

val submitted : t -> int
(** Total submissions ever enqueued (the next index to be assigned). *)

val record : t -> int -> Lifecycle.record option
(** The lifecycle record for a submission index, once its batch drained. *)

val drain : ?tracer:Arb_obs.Tracer.t -> ?workers:int -> t -> Lifecycle.record list
(** Process the whole queue; returns this batch's records in submission
    order. A drain takes its batch and appends the batch's records to
    {!history} while it holds the drain lock, so when a [drain] call
    returns, every submission enqueued before the call has a {!record}
    (unless the drain that took it raised), whichever caller drained
    it. [workers] (default 1) is how many domains plan the distinct
    cache misses (execution takes its workers from the exec config); every
    value yields byte-identical canonical records
    ({!Lifecycle.records_to_string}).

    [tracer] records drain → admit (cache labeling) / per-cold-plan
    search / per-submission execute spans. Cold plans search under per-task child tracers grafted
    back in canonical task order, so — with a [Deterministic] clock, which
    also suppresses the registry's wall-clock instruments — trace bytes are
    identical across runs and across [workers] values. *)

val run_workload :
  ?tracer:Arb_obs.Tracer.t -> ?workers:int -> t -> Workload.t -> Lifecycle.record list
(** [submit] every expanded entry, then [drain]. *)

val history : t -> Lifecycle.record list
(** All records since creation, in submission order. *)

val counters : t -> Lifecycle.counters
val budget_left : t -> Arb_dp.Budget.t
val queries_executed : t -> int
val chain_verifies : t -> bool
(** The underlying session's certificate chain verifies end to end. *)

val cache : t -> Cache.t

val devices : t -> int
(** The device population the service was created over — the [n] that
    plan-cache keys and certificates are computed against. *)

val metrics : t -> Arb_obs.Metrics.t option
(** The registry passed at {!create} time, if any. *)

val calibration : t -> Arb_planner.Calibration.t
(** The calibration currently pricing cold plans. *)

val calibration_fingerprint : t -> string
(** Shorthand for [(calibration t).fingerprint] — surfaced in
    [GET /healthz] and the serve exit summary so operators can tell
    which calibration priced a session. *)

val set_calibration : t -> Arb_planner.Calibration.t -> bool
(** Install a calibration; [true] when its fingerprint differs from the
    current one (and then emits
    [arb_service_calibration_installs_total]). The fingerprint is part of
    every {!Cache.key}, so the next drain keys its submissions under the
    new model: each plans cold once, and entries of the old model stay
    cached for when it is installed again. A drain already in flight
    finishes under the model it started with. *)
