(** Numerical helpers: log-domain probability arithmetic and binomial tails.

    Committee sizing (§5.1) needs the probability that a randomly sortitioned
    committee loses its honest majority, raised to the power of the committee
    count, compared against failure bounds as small as 1e-11. All of this is
    done in the log domain to avoid underflow. *)

val log_comb : int -> int -> float
(** [log_comb n k] = ln C(n, k), via lgamma. *)

val log_binom_cdf : n:int -> k:int -> p:float -> float
(** ln P\[Bin(n, p) <= k\]. [k < 0] gives [neg_infinity]. *)

val log_binom_tail : n:int -> k:int -> p:float -> float
(** ln P\[Bin(n, p) >= k\], computed directly in the log domain — accurate
    for tails far below double-precision cancellation limits, unlike
    [1 - cdf]. *)

val log_sum_exp : float -> float -> float
(** ln (e^a + e^b), stable. *)

val log1mexp : float -> float
(** ln (1 - e^x) for x < 0, stable near both ends. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance; 0 for arrays shorter than 2. *)

val percentile : float array -> float -> float
(** [percentile a p] for p in \[0, 100\], linear interpolation; the input
    need not be sorted. Raises on empty input. *)

val lgamma : float -> float
(** Log-gamma (Lanczos approximation) for positive arguments. *)
