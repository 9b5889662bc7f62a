(** Fixed-point arithmetic matching the paper's MPC number format.

    Arboretum's MPC programs use a fixpoint type with 30 bits of integer part
    and 16 bits of fractional precision (§6, "Precision"). Values are stored
    as a native [int] scaled by 2^16, giving exact addition and deterministic
    rounding for multiplication/division — the properties differential-privacy
    implementations need to avoid floating-point irregularities (Mironov 2012).

    The representable range is about ±2^46 in raw terms, far wider than the
    nominal 30.16 format. *)

type t = private int
(** Scaled representation: the rational value is [t / 2^16]. *)

val frac_bits : int
(** Number of fractional bits (16). *)

val int_bits : int
(** Number of integer bits in the nominal format (30). *)

val one : t
val zero : t
val of_int : int -> t
val of_float : float -> t
(** Rounds to nearest representable value. *)

val to_float : t -> float
val to_int : t -> int
(** Truncates toward zero. *)

val of_raw : int -> t
val to_raw : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Rounds the 2^32-scaled product back to 2^16 scale (round half away
    from zero). *)

val div : t -> t -> t
(** Raises [Division_by_zero] on zero divisor. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val abs : t -> t

val exp2 : t -> t
(** Base-2 exponential 2^x, computed with integer shifts plus a degree-4
    minimax polynomial on the fractional part — mirrors the base-2 design of
    Ilvento's exponential mechanism (§6). Saturates at the 30.16 range. *)

val log2 : t -> t
(** Base-2 logarithm for positive inputs; raises [Invalid_argument] otherwise. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
