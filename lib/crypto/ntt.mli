(** Negacyclic number-theoretic transform over Z_p\[X\]/(X^n + 1).

    The workhorse of the BGV substrate: multiplication in the negacyclic
    ring is pointwise multiplication in the NTT domain. We use the
    Longa–Naehrig formulation: forward transform with Cooley–Tukey
    butterflies over bit-reversed powers of psi (a primitive 2n-th root of
    unity), inverse with Gentleman–Sande butterflies — no separate
    bit-reversal pass or power-of-X pre/post scaling needed.

    The production kernels combine Barrett reduction against precomputed
    float twiddle ratios with Harvey-style lazy reduction (coefficients
    held in \[0, 4p) forward / \[0, 2p) inverse between stages, one final
    normalization pass), eliminating hardware division from every inner
    loop while staying bit-identical to the [mod]-based reference kernels
    (DESIGN.md §10; enforced by qcheck props in test_crypto). *)

type plan
(** Precomputed tables for a fixed (n, p): twiddles, their float ratios,
    and the Barrett magic constants. *)

val plan : n:int -> p:int -> plan
(** [plan ~n ~p] requires [n] a power of two and [p] prime with
    [2n | p - 1]. Also rejects moduli whose butterfly products could
    overflow a 62-bit native int: [(p-1)^2 <= max_int] and, for the lazy
    \[0, 4p) accumulators, [p <= 2^30]. Raises [Invalid_argument]
    otherwise. *)

val n : plan -> int
val p : plan -> int

val forward : plan -> int array -> unit
(** In-place forward negacyclic NTT. Array length must equal [n]. Input
    must be canonical (\[0, p)); output is canonical. *)

val inverse : plan -> int array -> unit
(** In-place inverse, including the 1/n scaling. Canonical in/out. *)

val multiply : plan -> int array -> int array -> int array
(** Negacyclic product of two coefficient-domain polynomials (fresh array;
    inputs are not modified). *)

val pointwise : plan -> int array -> int array -> int array
(** Slot-wise product of two NTT-domain vectors. *)

val pointwise_into : plan -> dst:int array -> int array -> int array -> unit
(** Allocation-free {!pointwise}: [dst.(i) <- a.(i)*b.(i) mod p]. [dst]
    may alias either input. *)

val pointwise_add_into :
  plan -> dst:int array -> int array -> int array -> unit
(** Fused multiply-accumulate: [dst.(i) <- dst.(i) + a.(i)*b.(i) mod p].
    The workhorse of NTT-domain relinearization and decryption. *)

(** {2 Reference kernels}

    The seed's hardware-[mod] butterflies, kept verbatim as differential
    oracles for the qcheck bit-equality props. Not for production use. *)

val forward_reference : plan -> int array -> unit
val inverse_reference : plan -> int array -> unit
val multiply_reference : plan -> int array -> int array -> int array

(** {2 Kernel counters}

    Process-lifetime totals, exported as [arb_crypto_*] metrics gauges by
    the runtime's [Trace.export]. *)
module Stats : sig
  val transforms : int Atomic.t
  val pointwise_ops : int Atomic.t

  val get : unit -> int * int * int
  (** [(transforms, pointwise_ops, reductions_saved)] snapshot.
      [reductions_saved] counts hardware divisions the seed kernels would
      have issued for the same call sequence (one per butterfly, per
      inverse-scaling coefficient, per pointwise slot). *)
end
