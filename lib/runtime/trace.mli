(** Execution trace: who did how much work during a simulated run.

    Fed by the runtime; consumed by the benchmark harness (Figs. 6–8, 11)
    and by tests asserting the cost structure (e.g. key generation is the
    most expensive committee). *)

type committee_kind = Keygen | Decryption | Operations

type t = {
  mutable device_upload_bytes : float;  (** per device: ciphertexts + proof *)
  mutable device_encrypt_ops : int;
  mutable device_proof_constraints : int;
  mutable agg_bytes_sent : float;
  mutable agg_he_adds : int;
  mutable agg_he_muls : int;
  mutable agg_proofs_verified : int;
  mutable agg_proofs_rejected : int;
  mutable committee_costs : (committee_kind * Arb_mpc.Cost.t) list;
  mutable audits_performed : int;
  mutable audits_failed : int;
  mutable vignettes_executed : int;
  mutable committees_reassigned : int;
      (** committees that lost their quorum to churn and were replaced (§5.1) *)
  mutable device_tree_adds : int;
      (** homomorphic additions performed by participant devices when the
          plan outsources the sum (sum-tree instantiation, §4.3) *)
  mutable sortition_checks : int;
      (** device-side verifications that committee members were
          legitimately selected *)
  mutable faults_injected : (string * int) list;
      (** injected fault counts keyed by {!Fault.kind_name}, zeros included *)
  mutable fault_recoveries : (string * int) list;
      (** how many of each kind the runtime absorbed rather than failing *)
  mutable fault_retries : int;  (** retry attempts charged to the backoff budget *)
  mutable fault_backoff_s : float;  (** total simulated backoff wait *)
  mutable upload_retries : int;  (** device uploads that needed more than one send *)
  mutable lost_uploads : int;  (** device inputs lost despite retries *)
  mutable upload_latency_s : float;  (** summed simulated transmission latency *)
  mutable audit_devices_failed : int;
      (** auditing devices that went offline; survivors take over their share *)
  mutable shares_corrected : int;
      (** corrupted Shamir shares repaired by robust (Berlekamp–Welch) decoding *)
  mutable devices_total : int;
      (** population size the run addressed (exported as the
          [arb_runtime_devices_total] gauge) *)
  mutable devices_materialized : int;
      (** devices that actually ran the crypto path — equal to
          [devices_total] in [Full] mode, [sampled cohorts * cohort size]
          when sharded (gauge [arb_runtime_devices_materialized]) *)
  mutable cohorts_total : int;  (** cohorts the population was split into *)
  mutable cohorts_sampled : int;
      (** cohorts executed with real crypto; the rest are extrapolated *)
  crypto_baseline : int * int * int * int;
      (** snapshot of the process-lifetime crypto kernel counters
          ({!Arb_crypto.Ntt.Stats} transforms / pointwise ops / reductions
          saved, plus {!Arb_crypto.Bgv.scratch_words_allocated}) taken at
          {!create}; {!export} emits the per-run deltas as
          [arb_crypto_*] gauges *)
}

val create : unit -> t
val record_committee : t -> committee_kind -> Arb_mpc.Cost.t -> unit

val mpc_rounds : t -> committee_kind -> int
val mpc_bytes : t -> committee_kind -> int
(** Per-member bytes summed over that kind's recorded committees. *)

val committee_wall_clock :
  t -> Net.profile -> committee_kind -> compute_per_round:float -> float
(** Wall-clock estimate for all of a kind's MPC work under a network
    profile. *)

val faults_total : t -> int
(** Sum of all injected-fault counts. *)

type field_value =
  | F_int of int
  | F_float of float
  | F_counts of (string * int) list
  | F_costs of (committee_kind * Arb_mpc.Cost.t) list

val fields : t -> (string * field_value) list
(** The single field list that {!pp}, {!to_json}, and {!export} all derive
    from. Its implementation destructures the record with no wildcard, so a
    counter added to [t] but missing here fails to compile — the drift
    where [pp] and [to_json] disagreed on coverage cannot reappear. *)

val field_names : t -> string list

val pp : Format.formatter -> t -> unit
(** One-line [name=value] summary covering every field in {!fields};
    count-map fields render their total with a [k:v] breakdown of the
    non-zero entries. *)

val to_json : t -> Arb_util.Json.t
(** Canonical JSON rendering of every field (committee costs in execution
    order). Two runs with identical traces serialize to identical strings,
    which is what the chaos suite's determinism property checks. *)

val export : t -> Arb_obs.Metrics.t -> unit
(** Feed every counter into a metrics registry as [arb_runtime_*] counters
    (count-maps become labeled counters, committee costs per-kind
    rounds/bytes). Adding a run's trace accumulates across runs — except
    the population-shape fields ([devices_total], [devices_materialized],
    [cohorts_total], [cohorts_sampled]), which describe configuration
    rather than work and export as gauges. *)
