(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    simulations, tests and benchmarks are reproducible from a single seed.
    The core generator is splitmix64, which has a 64-bit state, passes
    BigCrush, and supports cheap stream splitting — convenient for giving
    each simulated device an independent stream. *)

type t
(** Mutable generator state: the 64-bit splitmix state, held unboxed in
    an 8-byte buffer. A draw stores no pointer, so it never takes a write
    barrier, and the integer draws allocate nothing. {!next_int64} and
    {!uniform01} are marked for inlining, so a caller compiled against
    this module's implementation gets its raw or float draw unboxed too. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t]. *)

val derive : int64 -> int -> t
(** [derive seed i] is an independent generator for index [i] of [seed]:
    a pure function of its arguments that advances no other generator.
    Unlike {!split}, which consumes state from a parent stream, [derive]
    lets a simulation address any of billions of per-index streams (one
    per device) without materializing the draws in between. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val uniform01 : t -> float
(** Uniform in (0, 1) — never exactly 0, safe for [log]. *)

val bool : t -> bool

val laplace : t -> scale:float -> float
(** Sample from Laplace(0, scale). *)

val gumbel : t -> scale:float -> float
(** Sample from Gumbel(0, scale): [-scale *. log (-. log u)]. *)

val exponential : t -> rate:float -> float
(** Sample from Exp(rate). *)

val gaussian : t -> sigma:float -> float
(** Sample from N(0, sigma^2) (Box–Muller). *)

val geometric : t -> p:float -> int
(** Number of failures before the first success, success probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct indices from
    \[0, n), in random order. Requires [k <= n]. *)
