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
    An operation whose operands are all public (post-processing of a
    released value, loop arithmetic) runs in the clear on
    {!Arb_lang.Interp}'s primitives, so it means exactly what the
    reference interpreter says. A mechanism is the exception: it lifts a
    public operand to constant shares and noises it, and is charged, as
    it would a secret one.

    Fidelity notes (DESIGN.md §1): operator-instantiation details that only
    affect cost (sum-tree fanout, committee chunking) are executed in their
    canonical form — the planner's metrics already capture their cost — and
    hand-offs between logical committees are charged VSR costs on one
    engine per committee type rather than thousands of real committees.

    {2 Stages}

    {!run_source} runs one fixed pipeline of stages (DESIGN.md §5.2), each
    under a span of the same name nested in a root [exec] span when a
    tracer is configured: [sortition], [committee-select], [keygen],
    [certificate-check], [inputs], [residual-inject] (sharded runs with
    extrapolated cohorts only), [sum-tree] (plans that outsource the sum
    to devices only), [sortition-check], [mask] (sampled FHE plans only),
    [decrypt], [vsr-handoff], [interpret] (holding per-mechanism [laplace]
    / [em] spans, and [sketch-noise] or [noise-committee] spans inside
    [em]) and [audit].

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
  budget : Arb_dp.Budget.t;  (** standing privacy budget before this query *)
  block : string;  (** sortition randomness block B_i from the previous
      certificate (§5.1); "B0" for the trusted genesis *)
  query_id : int;  (** position in the query chain *)
  faults : Fault.spec;
      (** deterministic fault plan, driven by [seed]; {!Fault.no_faults}
          (the default) injects nothing *)
  tracer : Arb_obs.Tracer.t option;
      (** when set, the pipeline emits the span tree listed under Stages.
          Drive it with an {!Arb_obs.Clock.Simulated} clock and the spans
          sit on the protocol's simulated timeline (keygen/decrypt MPC
          estimates, upload latencies, per-vignette round costs); a
          [Deterministic] clock yields byte-identical traces across runs.
          [None] (the default) adds no work. *)
  workers : int;
      (** Domains of the shared {!Arb_util.Pool} for the per-member and
          per-device stages: keygen (each member's one-time key and
          signature), certificate-check (each signature), inputs (each
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
      (** the signed query certificate; its [budget_left] is the standing
          budget after this query *)
  certificate_ok : bool;
  audit_root : Arb_crypto.Sha256.digest;
  audit_ok : bool;
  accepted_inputs : int;
  rejected_inputs : int;
  committee_wall_clock : (Trace.committee_kind * float) list;
      (** estimated wall-clock seconds per committee type under the
          configured network profile (§7.5 methodology: measured rounds x
          RTT + compute) *)
}

type failure = { stage : string; reason : string }
(** Where a run failed closed and why. Stages:
    - ["execute"]: the run is outside the runtime's supported shape (too
      few devices for the committees, a bad sharding, an uncertifiable
      query, an unsupported operation on secret values, catastrophic
      churn, a failed sortition or VSR check), or the program stops where
      the reference interpreter stops ({!Arb_lang.Interp.Runtime_error}:
      a bad index, a division by zero, the log of a non-positive value);
    - ["budget"]: the query's certified cost exceeds [config.budget];
    - ["degraded"]: injected faults exceeded the recovery budget (a lost
      device upload, every auditing device offline);
    - ["mpc"]: share corruption beyond the robust-decoding radius;
    - ["certificate"]: the budget certificate's signatures did not verify;
    - ["audit"]: audit spot-checks failed (the reason counts them). *)

val pp_failure : Format.formatter -> failure -> unit
(** [[stage] reason]. *)

val run_source :
  config ->
  query:Arb_queries.Registry.query ->
  plan:Arb_planner.Plan.t ->
  src:source ->
  (report, failure) result
(** Execute [plan] for [query] end to end over [src] — the only way to run
    a plan. [Ok] always means the outputs were legitimately released:
    every fault path, and a report whose certificate or audit checks
    failed, comes back as an [Error] instead. The DP budget is only
    committed by callers on [Ok] (see {!Session.run}). Callers holding a
    database pass [source_of_db db]. *)

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
