(** End-to-end execution of a chosen plan at simulation scale (§5).

    The runtime plays out the full protocol with real cryptography: devices
    are registered in a Merkle tree; committees are sortitioned; the
    key-generation committee checks the privacy budget, runs the (cost-
    charged) DKG producing a genuine BGV keypair, and signs the query
    authorization certificate; every device one-hot-encodes its row,
    encrypts it under the published key and attaches a (simulated-Groth16)
    well-formedness proof; the aggregator verifies proofs, drops Byzantine
    inputs, homomorphically aggregates, and commits every intermediate step
    to an audit tree that devices spot-check; a decryption committee
    threshold-decrypts (real partial decryptions combined); and the rest of
    the query runs inside an honest-majority MPC engine — noise sampling,
    comparisons, argmax — before the declassified outputs are released.

    Fidelity notes (DESIGN.md §1): operator-instantiation details that only
    affect cost (sum-tree fanout, committee chunking) are executed in their
    canonical form — the planner's metrics already capture their cost — and
    hand-offs between logical committees are charged VSR costs on one
    engine per committee type rather than thousands of real committees.

    {2 Cohort sharding}

    At the paper's 10^8–10^9 device scale, materializing every device is
    neither possible nor informative. [Sharded] execution splits the
    population into cohorts of consecutive device ids, runs a configured
    number of sampled cohorts through the full crypto path (encrypt, prove,
    verify, aggregate, audit), and streams the remaining cohorts without
    crypto: their exact honest plaintext sums are carried into the
    aggregate as one "residual" ciphertext, and their costs are
    extrapolated from the same closed-form per-device formulas the
    materialized path charges.

    The fidelity contract (DESIGN.md §11): decrypted outputs, DP noise,
    budget deductions and certificates are {e bit-identical} to a [Full]
    run at the same seed — only trace cost counters are (exact-formula)
    extrapolations, and injected faults land only inside sampled cohorts.
    This holds because (a) every device's private draws come from its own
    PRF stream ({!Arb_util.Rng.derive}), a pure function of (seed, id);
    (b) committee sortition is hierarchical over registry blocks
    ({!Arb_crypto.Sortition.Registry}), a function of (seed, N) alone; and
    (c) BGV addition is exact, so one ciphertext encrypting the residual
    sums (mod t) is algebraically indistinguishable from the per-device
    accumulation it replaces. Peak memory is O(cohort), not O(N). *)

(** How much of the population runs the real crypto path. [Full] (the
    default) materializes every device. [Sharded] materializes
    [sampled_cohorts] cohorts of [cohort_size] devices, spread evenly
    across the id space, and extrapolates the rest under the fidelity
    contract above. [Full] at population [n] behaves exactly like
    [Sharded] with [cohort_size >= n]: a single materialized cohort. *)
type sharding = Full | Sharded of { cohort_size : int; sampled_cohorts : int }

type config = {
  committee_size : int;  (** simulated committee size (small, e.g. 5) *)
  byzantine_fraction : float;  (** devices uploading malformed inputs *)
  churn : float;
      (** probability a selected committee member is offline when its
          vignette starts; committees below quorum are replaced (§5.1) *)
  bgv_n : int;  (** simulation ring degree (raised if the query needs more slots) *)
  latency : Net.profile;
  seed : int64;
  audit_p_max : float;
  auditing_devices : int;  (** how many devices spot-check the aggregator *)
  tamper_aggregator : bool;  (** test hook: Byzantine aggregator rewrites a step *)
  budget : Arb_dp.Budget.t;  (** standing privacy budget before this query *)
  block : string;  (** sortition randomness block B_i from the previous
      certificate (§5.1); "B0" for the trusted genesis *)
  query_id : int;  (** position in the query chain *)
  faults : Fault.spec;
      (** deterministic fault plan, driven by [seed]; {!Fault.no_faults}
          (the default) injects nothing *)
  tracer : Arb_obs.Tracer.t option;
      (** when set, the pipeline emits a span tree (exec → sortition /
          keygen / certificate-check / inputs / sortition-check / decrypt /
          vsr-handoff / interpret / audit, with
          per-mechanism and per-noise-committee spans inside [interpret]).
          Drive it with an {!Arb_obs.Clock.Simulated} clock and the spans
          sit on the protocol's simulated timeline (keygen/decrypt MPC
          estimates, upload latencies, per-vignette round costs); a
          [Deterministic] clock yields byte-identical traces across runs.
          [None] (the default) adds no work. *)
  workers : int;
      (** Domains of the shared {!Arb_util.Pool} for the per-member and
          per-device stages: keygen (each member's one-time key and
          signature), certificate-check (each signature),
          sortition-check (each member's recomputation), inputs (each
          device's draws from its own stream, row, proof and encryption)
          and the sum-tree group folds. Every session and fault-stream
          draw, verification, aggregation and trace counter stays on the
          calling domain in canonical order, so reports, traces and
          decrypted outputs are byte-identical at any worker count
          (regression-tested against recorded bytes at 1 and 2).
          Default 1. *)
  sharding : sharding;
      (** cohort structure of the input stage; [Full] by default. Does not
          affect decrypted outputs, budget deductions or certificates (see
          the fidelity contract above), and is invisible to committee
          selection — the registry's block structure is a protocol
          constant, so certificates carry the same root either way. *)
}

val default_config : config

type source = { n_devices : int; row : int -> int array }
(** A device database addressed by index instead of materialized as an
    array: [row i] computes device [i]'s input on demand. [row] must be
    pure — it is called from worker domains and its result must depend
    only on [i]. This is what lets a sharded run address 10^8+ devices
    while holding one cohort in memory. *)

val source_of_db : int array array -> source
(** Wrap a concrete database (one row per device). *)

type report = {
  outputs : Arb_lang.Interp.value list;
  trace : Trace.t;
  certificate : Setup.certificate;
  certificate_ok : bool;
  audit_root : Arb_crypto.Sha256.digest;
  audit_ok : bool;
  accepted_inputs : int;
  rejected_inputs : int;
  budget_left : Arb_dp.Budget.t;
  committee_wall_clock : (Trace.committee_kind * float) list;
      (** estimated wall-clock seconds per committee type under the
          configured network profile (§7.5 methodology: measured rounds x
          RTT + compute) *)
}

exception Execution_error of string

exception Execution_degraded of string
(** The run could not absorb its injected faults (lost device inputs, every
    auditing device offline, …) and refuses to release outputs. *)

val execute :
  config ->
  query:Arb_queries.Registry.query ->
  plan:Arb_planner.Plan.t ->
  db:int array array ->
  report
(** Run the query end to end over a concrete database (one row per
    device). Raises {!Setup.Budget_exhausted} when the budget is short,
    [Execution_error] for queries outside the runtime's supported shape,
    [Execution_degraded] when faults exceeded the recovery budget, and
    {!Arb_mpc.Engine.Cheating_detected} when share corruption exceeded the
    robust-decoding radius. *)

val execute_source :
  config ->
  query:Arb_queries.Registry.query ->
  plan:Arb_planner.Plan.t ->
  src:source ->
  report
(** {!execute} over an on-demand {!source} — the entry point for
    population sizes that cannot be materialized. Same exceptions. *)

type failure = { stage : string; reason : string }
(** Where a run failed closed ("certificate", "audit", "degraded",
    "execute", "mpc", "budget") and why. *)

val pp_failure : Format.formatter -> failure -> unit

val run :
  config ->
  query:Arb_queries.Registry.query ->
  plan:Arb_planner.Plan.t ->
  db:int array array ->
  (report, failure) result
(** {!execute} with every fault path reified as a typed [Error] instead of
    an exception, and the release gate applied: a report whose certificate
    or audit checks failed becomes an [Error] too, so [Ok] always means
    "outputs were legitimately released". The DP budget is only committed
    by callers on [Ok] (see {!Session.run}). *)

val run_source :
  config ->
  query:Arb_queries.Registry.query ->
  plan:Arb_planner.Plan.t ->
  src:source ->
  (report, failure) result
(** {!run} over an on-demand {!source}. *)

val plan_and_execute :
  config ->
  query:Arb_queries.Registry.query ->
  db:int array array ->
  report
(** Convenience: plan at the database's scale (no cost limits), then
    execute. *)

val plan_and_execute_source :
  config ->
  query:Arb_queries.Registry.query ->
  src:source ->
  report
(** {!plan_and_execute} over an on-demand {!source}. *)

val cost_samples :
  cm:Arb_planner.Cost_model.t ->
  plan:Arb_planner.Plan.t ->
  cols:int ->
  m:int ->
  report ->
  (string * float * float) list
(** Calibration ground truth for one finished run: (section, predicted,
    measured) triples pairing {!Arb_planner.Cost_model.section_costs}
    (priced at the {e executed} committee size [m], i.e.
    [config.committee_size]) with the report's simulated committee
    wall-clock, per-member MPC bytes, and device upload bytes. All values
    are deterministic functions of the run; sections without signal on
    both sides are dropped. Feed the result to
    {!Arb_planner.Calibration.record}. *)
