(** Human-readable cost units used across benches and reports. *)

val bytes_to_string : float -> string
(** "132.0 kB", "3.1 MB", "1.4 TB", ... (SI, powers of 1000 like the paper). *)

val seconds_to_string : float -> string
(** "7.1 s", "14.2 min", "9.8 h", "3.2 d". *)

val core_hours : float -> float
(** Seconds of single-core compute -> core-hours. *)

val mb : float
val tb : float
