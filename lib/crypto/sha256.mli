(** SHA-256, implemented from scratch (FIPS 180-4).

    Used for Merkle trees, sortition hashes, deterministic signatures and
    commitment schemes throughout the runtime. The implementation is pure
    OCaml: each 32-bit word is held in a native [int] (a 63-bit int is
    required), so compressing a block allocates nothing; a digest
    allocates only its context and result. It is validated against the
    FIPS vectors, digests at every padding boundary and RFC 4231 in the
    test suite (DESIGN.md §10, "Hashing kernel"). *)

type digest = string
(** 32-byte raw digest. *)

val digest_length : int
(** 32. *)

val digest : string -> digest
(** Hash of a full string. *)

val digest_bytes : bytes -> digest

val hmac : key:string -> string -> digest
(** HMAC-SHA256 (RFC 2104); used as a keyed PRF for deterministic
    device signatures in sortition. The padded key and the message stream
    through one context; no concatenated input is built. *)

val to_hex : digest -> string
(** Lowercase hex rendering (64 chars). *)

val compare_le : digest -> digest -> int
(** Lexicographic comparison of raw digests — the sortition order. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val finalize : ctx -> digest
(** [finalize] may be called once; the context must not be reused after. *)
