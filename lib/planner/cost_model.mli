(** The planner's cost model (§4.6, §6).

    Built the way the paper builds it: benchmark each building block once on
    a reference platform, then score a candidate plan by summing the
    per-operation costs. The calibration constants below are anchored to
    the building-block numbers the paper reports for its reference cluster
    (PowerEdge R430) — e.g. a 42-member Gumbel-noise MPC at 73.8 s, a
    key-generation committee at ~700 MB and ~14 min, G16 verification at a
    few ms — and to our own substrate's relative op costs. They are fixed
    in {!default}; {!Calibration} fits scaled copies to the residuals of
    executed plans (DESIGN.md §1, §14).

    The model does not predict exact costs; it orders candidates (§4.6). *)

type metrics = {
  agg_time : float;  (** aggregator compute, single-core seconds *)
  agg_bytes : float;  (** bytes sent by the aggregator (incl. forwarding) *)
  part_exp_time : float;  (** expected per-participant compute, seconds *)
  part_max_time : float;  (** worst-case per-participant compute *)
  part_exp_bytes : float;  (** expected per-participant bytes sent *)
  part_max_bytes : float;  (** worst-case per-participant bytes sent *)
  est_error : float;
      (** estimated relative error introduced by approximation (device
          sampling, sketch operators); exactly 0.0 for exact plans *)
}

val zero_metrics : metrics
val pp_metrics : Format.formatter -> metrics -> unit

(** How a single vignette loads each actor; combined across a plan by
    {!combine} (committee-member maxima do not add — a device serves on at
    most one committee, §5.1). *)
type contribution = {
  c_agg_time : float;
  c_agg_bytes : float;
  c_all_time : float;  (** paid by every device *)
  c_all_bytes : float;
  c_member_time : float;  (** paid by each member of each instance *)
  c_member_bytes : float;
  c_instances : int;  (** parallel committee instances (0 if none) *)
  c_members : int;  (** members per instance: m for MPC, 2 for replicated HE *)
  c_kind : [ `Keygen | `Decryption | `Operations | `Base ];
      (** committee type for the Fig. 7 breakdown *)
  c_est_error : float;
      (** relative error this vignette introduces (sketch width/coarsening
          bounds); 0.0 for exact operators *)
}

type ring = {
  ring_n : int;  (** polynomial degree at deployment scale *)
  ct_bytes : float;
  pk_bytes : float;
}

(** The calibration constants. The record is exposed so the calibration
    fitter ({!Calibration}) can scale groups of constants from observed
    residuals and tests can plant known values; almost every caller should
    still treat a [t] as opaque and obtain one from {!default} or a fitted
    {!Calibration.t}. *)
type t = {
  felt_bytes : float;  (** serialized field element (135-bit modulus) *)
  he_add_ref : float;  (** s per ciphertext addition at n = 2^15 *)
  he_mul_plain_ref : float;
  he_rotate_ref : float;
  he_encrypt_ref : float;
  zk_prove_per_constraint : float;  (** device seconds per R1CS constraint *)
  zk_setup_per_constraint : float;  (** committee-member seconds *)
  zk_verify : float;
  proof_bytes : float;
  sig_time : float;  (** device signature for sortition *)
  kg_coeff_time : float;  (** keygen s per ring coefficient at m = 42 *)
  kg_coeff_bytes : float;
  dec_coeff_time : float;  (** threshold-decrypt s per coefficient at m = 42 *)
  gumbel_unit_time : float;  (** s per member per party per sample *)
  gumbel_unit_bytes : float;
  laplace_unit_time : float;
  laplace_unit_bytes : float;
  cmp_time_ref : float;  (** comparison at m = 42, after triples exist *)
  cmp_bytes_ref : float;
  triple_setup_time : float;  (** first-comparison surcharge (§6) *)
  triple_setup_bytes : float;
  exp_time_ref : float;
  exp_bytes_ref : float;
  share_op_time : float;  (** local linear op on shares *)
  vsr_overhead_bytes : float;  (** per member per MPC vignette hand-off *)
  round_latency : float;
  device_factor : float;  (** participant device vs reference server core *)
  post_flop : float;
  audit_bytes : float;  (** per-device certificate download + MHT challenges *)
  audit_time : float;
}

val default : t

val to_json : t -> Arb_util.Json.t
(** Canonical JSON object over every constant (field names as keys). *)

val of_json : Arb_util.Json.t -> (t, string) result
(** Inverse of {!to_json}; every field is required. *)

val fingerprint : t -> string
(** SHA-256 hex of the canonical constants JSON — the content identity a
    calibration install propagates to plan caches and continual sessions.
    Deterministic: two models with equal constants share a fingerprint. *)

val section_costs :
  t ->
  n_devices:int ->
  m:int ->
  cols:int ->
  Plan.vignette list ->
  (string * float) list
(** Predicted cost per calibration section, attributed the way the runtime
    measures it (one engine per committee kind; fused decrypt+noise
    vignettes split between the decryption and operations sections):
    [keygen_time]/[keygen_bytes], [decrypt_time], [ops_time]/[ops_bytes]
    (per-member seconds and bytes at committee size [m]), and
    [upload_bytes] (per device). Sections are emitted in that fixed order,
    zeros included. *)

val ring_for : t -> Plan.crypto -> cols:int -> ring
(** Deployment-scale BGV parameters for a query with [cols] categories:
    ring degree 2^12..2^15 (enough slots, 2^15 cap with multiple
    ciphertexts beyond that), ciphertext sizes matching the paper's
    reported parameters (135-bit modulus at degree 2^15). *)

val price :
  t ->
  n_devices:int ->
  m:int ->
  cols:int ->
  Plan.vignette ->
  contribution
(** Price one vignette for a deployment of [n_devices], committee size [m]
    and a query over [cols] categories. *)

type partial
(** Running aggregate of {!contribution}s — a commutative monoid (sums for
    the additive components, maxima for the per-member worst case). Seat
    weighting is kept unnormalized so a partial is independent of the
    deployment size until {!finalize}. The search prices each DFS node
    incrementally: it folds only the node's delta vignettes into the
    parent's partial instead of re-pricing the whole prefix. Every metric
    component is monotone under {!add_contributions} and in the committee
    size [m] used to price, so a partial priced at a lower-bound [m] over a
    plan prefix finalizes to a componentwise lower bound for every
    completion of that prefix. For the sequential fold
    ({!partial_of_contributions}, vignettes in plan order) this holds
    exactly in floats, since rounding is monotone and contributions are
    non-negative; the search's exact cut-offs rely on it. *)

val empty_partial : partial

val add_contributions : partial -> contribution list -> partial
(** Fold contributions into a partial one at a time, in list order. It
    allocates the result only, and its floats are those of a fold that
    builds a partial per contribution. *)

val combine_partial : partial -> partial -> partial
val partial_of_contributions : contribution list -> partial

val finalize : ?sample_phi:float -> n_devices:int -> partial -> metrics
(** Normalize the seat-weighted expected costs by the deployment size and
    add the member maxima to the worst-case components. [n_devices] is
    always the full population (sortition draws committees from everyone).
    [sample_phi], when given, is the device-sampling rate: it scales the
    every-device expected costs (a sampled-out device pays nothing) and
    adds the sampling term [2/sqrt(phi*n)] to [est_error]; the worst-case
    components are untouched — the unluckiest device is sampled in. *)

val combine : ?sample_phi:float -> n_devices:int -> contribution list -> metrics
(** [combine ?sample_phi ~n_devices cs =
     finalize ?sample_phi ~n_devices (partial_of_contributions cs)]. *)

val member_cost_by_kind :
  t ->
  n_devices:int ->
  m:int ->
  cols:int ->
  Plan.vignette list ->
  ([ `Keygen | `Decryption | `Operations | `Base ] * float * float) list
(** Per-committee-type (time, bytes) for a plan's committee vignettes —
    the series of Fig. 7. *)
