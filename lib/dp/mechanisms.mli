(** Cleartext reference implementations of the differential-privacy
    mechanisms Arboretum deploys (§2.1).

    These are the semantic ground truth the distributed/encrypted execution
    must match (up to sampling noise): the Laplace mechanism for numerical
    queries, and the exponential mechanism — in both the textbook
    exponentiation form and the Gumbel-noise form of Fig. 4 — for
    categorical queries, plus the top-k composition rules of Durfee–Rogers. *)

val laplace : Arb_util.Rng.t -> epsilon:float -> sensitivity:float -> float -> float
(** [laplace rng ~epsilon ~sensitivity v] = v + Lap(sensitivity/epsilon). *)

val exponential_gumbel :
  Arb_util.Rng.t -> epsilon:float -> sensitivity:float -> float array -> int
(** Exponential mechanism by adding Gumbel(2*sens/eps) noise to each quality
    score and returning the argmax — (eps, 0)-DP. *)

val exponential_sample :
  Arb_util.Rng.t -> epsilon:float -> sensitivity:float -> float array -> int
(** Textbook exponential mechanism: sample index i with probability
    proportional to exp(eps * q_i / (2 * sens)), computed stably in the log
    domain with a 16-bit window below the max (Fig. 4 left) — (eps, delta)-DP
    with the windowing delta. *)

val top_k :
  Arb_util.Rng.t -> epsilon:float -> sensitivity:float -> k:int ->
  ?fresh_noise:bool -> float array -> int array
(** Top-k selection. [fresh_noise = true] (default) draws Gumbel noise per
    round for (k*eps)-DP with eps per release; [false] noises once and
    releases the k best for (sqrt k * eps)-DP (Durfee–Rogers). *)

val noisy_max_gap :
  Arb_util.Rng.t -> epsilon:float -> sensitivity:float -> float array ->
  int * float
(** Exponential mechanism with free gap: the winning index together with the
    noisy gap to the runner-up, which is released for free (Ding et al.). *)

val geometric :
  Arb_util.Rng.t -> epsilon:float -> sensitivity:float -> int -> int
(** Discrete Laplace (two-sided geometric) mechanism on integers — exact
    integer noise, free of floating-point tail irregularities. *)

val exponential_base2 :
  Arb_util.Rng.t -> epsilon:float -> sensitivity:float -> float array -> int
(** Base-2 exponential mechanism (Ilvento, as adopted in §6): weights are
    exact powers of two on the 30.16 fixpoint lattice, so the output
    distribution is bit-identical across platforms. Uses the same 16-bit
    window as Fig. 4 (left), contributing the same small delta. *)
