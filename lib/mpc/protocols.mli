(** Committee-level MPC protocols used by Arboretum's vignettes.

    Each function runs on one {!Engine.t} (one committee) and both computes
    the correct result and accrues the protocol's cost into the engine's
    counters — the raw material for the planner's cost model and for the
    committee-cost figures (Fig. 7). *)

val sum : Engine.t -> Engine.sec array -> Engine.sec
(** Linear — free of communication. *)

val argmax : Engine.t -> Fixpoint_mpc.t array -> Engine.sec
(** Index of the maximum (shared int), by pairwise comparison sweep — the
    em-Gumbel instantiation's final loop (Fig. 4 right). First comparison
    costs more than the rest only through triple counts, matching §6. *)

val max : Engine.t -> Fixpoint_mpc.t array -> Fixpoint_mpc.t

val em_gumbel : Engine.t -> epsilon:float -> sensitivity:float ->
  Fixpoint_mpc.t array -> int
(** Exponential mechanism, Gumbel instantiation: noise each quality score
    with Gumbel(2*sens/eps), take the argmax, declassify (open) it. *)

val em_exponentiate : Engine.t -> epsilon:float -> sensitivity:float ->
  Fixpoint_mpc.t array -> int
(** Exponential mechanism, exponentiation instantiation (Fig. 4 left):
    normalize scores into a 16-bit window below the max, exponentiate in
    base 2, draw r in \[0, sum), return the index whose prefix interval
    contains r. *)

val prefix_sums : Engine.t -> Engine.sec array -> Engine.sec array
(** Inclusive prefix sums (linear, local). *)

val rank_select :
  Engine.t -> Engine.sec array -> rank:int -> Engine.sec
(** Smallest index whose inclusive prefix sum exceeds [rank] — the
    median/quantile selection step on a one-hot histogram. Shared int
    result. *)

(** {2 Cost charging for the BGV ceremonies} — the key-generation and
    threshold-decryption committees run their polynomial arithmetic inside
    the MPC; the real math happens in {!Arb_crypto.Bgv}, and these charge
    the corresponding per-member costs to the engine. Charges are counted
    in logical ring operations (n log n butterfly field-ops per RNS prime):
    in evaluation form the butterflies sit at the forward/inverse transform
    boundaries while the homomorphic middle is pointwise, but the per-op
    envelope — and hence every charged total — is unchanged. *)

val charge_bgv_keygen : Engine.t -> n:int -> rns_primes:int -> unit
val charge_bgv_decrypt : Engine.t -> n:int -> rns_primes:int -> ciphertexts:int -> unit
val charge_zk_setup : Engine.t -> constraints:int -> unit

val charge_vsr_retry : Engine.t -> unit
(** One extra round + re-sent subshare bytes when a VSR hand-off message
    failed verification and the honest sender re-sends (fault recovery). *)

val em_gumbel_gap :
  Engine.t -> epsilon:float -> sensitivity:float -> Fixpoint_mpc.t array ->
  int * Arb_util.Fixed.t
(** Exponential mechanism with free gap (Ding et al.): winner index plus the
    noisy gap to the runner-up, from one noise draw. *)
