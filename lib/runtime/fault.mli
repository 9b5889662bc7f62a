(** Deterministic fault injection for the execution runtime.

    Arboretum's correctness story (§5–§6) rests on surviving realistic
    failure: committee members churn mid-protocol, a byzantine minority
    corrupts shares, the network drops and delays messages, and the
    aggregator may tamper with ciphertexts. This module turns those
    failure modes into a replayable {e fault plan}: every injection
    decision is drawn from per-kind RNG streams derived from a single
    seed, so a faulted run can be reproduced exactly from [(seed, spec)]
    — independent of how the kinds interleave during execution.

    The runtime consults the injector at well-defined {e sites} (one
    [fires] call per opportunity); recovery actions (committee
    reassignment, VSR re-sends, upload retries, auditor takeover) are
    reported back so the trace records both the faults and what it took
    to absorb them. Retries are bounded by an exponential-backoff time
    budget: when the budget runs out the runtime fails closed with a
    typed error instead of looping. *)

type kind =
  | Committee_dropout  (** a selected committee loses its quorum at pick k *)
  | Share_corruption  (** a byzantine minority corrupts Shamir shares *)
  | Message_drop  (** a device upload is lost in transit *)
  | Message_delay  (** a device upload is delayed by [delay_s] *)
  | Ciphertext_tamper  (** the aggregator rewrites an aggregated ciphertext *)
  | Audit_failure  (** an auditing device goes offline before its challenges *)
  | Accept_drop
      (** network seam: the HTTP front door loses a just-accepted
          connection before reading a byte (socket churn) *)
  | Response_truncate
      (** network seam: the connection dies mid-response write — the
          client sees a truncated body then EOF *)

val all_kinds : kind list
val kind_name : kind -> string

type spec = {
  dropout_p : float;  (** per committee-pick probability of forced dropout *)
  dropout_at : int option;
      (** force a dropout at exactly the k-th pick (0-based), in addition
          to the probabilistic ones — "committee member dropout at round k" *)
  share_corrupt_p : float;  (** per engine-opening probability *)
  corrupt_parties : int;
      (** how many parties corrupt their share when the fault fires; above
          the decoding radius the run must fail closed *)
  message_drop_p : float;  (** per transmission-attempt probability *)
  message_delay_p : float;  (** per transmission-attempt probability *)
  delay_s : float;  (** extra latency when a delay fires *)
  tamper_p : float;  (** per-run probability the aggregator tampers *)
  audit_fail_p : float;  (** per auditing-device probability *)
  max_retries : int;  (** bounded retries for recoverable faults *)
  backoff_base_s : float;  (** first retry waits this long, then doubles *)
  backoff_budget_s : float;
      (** total backoff time allowed before the run fails closed *)
  accept_drop_p : float;
      (** per accepted-connection probability the front door drops it *)
  response_truncate_p : float;
      (** per-response probability the write is cut short *)
}

val no_faults : spec
(** All probabilities zero; [fires] never returns [true]. *)

val chaos : spec
(** A moderate every-fault-enabled spec used by the chaos suite. *)

type t

val create : seed:int64 -> spec -> t
(** Derive the per-kind decision streams from [seed]. Equal seeds and
    specs give byte-identical fault schedules. *)

val spec : t -> spec

val fires : t -> kind -> bool
(** One injection opportunity for [kind]: advances the kind's site counter
    and decision stream, returns whether the fault strikes here. *)

val record_recovery : t -> kind -> unit
(** The runtime absorbed an injected fault of this kind. *)

val backoff : t -> attempt:int -> float option
(** Exponential backoff for retry [attempt] (0-based):
    [backoff_base_s *. 2^attempt], charged against the backoff budget.
    [None] once the budget is exhausted — the caller must fail closed. *)

val injected : t -> (kind * int) list
(** Injection counts per kind, in [all_kinds] order, zeros included. *)

val recovered : t -> (kind * int) list
val retries : t -> int
val backoff_spent : t -> float
val total_injected : t -> int

val injected_named : t -> (string * int) list
(** [injected] with {!kind_name} keys — the shape {!Trace.t} stores. *)

val recovered_named : t -> (string * int) list
val pp : Format.formatter -> t -> unit
