(** SHA-256, implemented from scratch (FIPS 180-4).

    Used for Merkle trees, sortition hashes, deterministic signatures and
    commitment schemes throughout the runtime. The implementation is pure
    OCaml: each 32-bit word is held in a native [int] (a 63-bit int is
    required), so compressing a block allocates nothing; a digest
    allocates only its context and result, and a context reused through
    {!reset} and {!finalize_into} allocates nothing at all. It is
    validated against the FIPS vectors, digests at every padding boundary
    and RFC 4231 in the test suite (DESIGN.md §10, "Hashing kernel"). *)

type digest = string
(** 32-byte raw digest. *)

val digest : string -> digest
(** Hash of a full string. *)

val seed_of : string -> int64
(** A 64-bit RNG seed derived from [s]: the first 8 bytes of
    [digest s], folded as [acc * 131 + byte] starting at 7. Sessions derive
    each query's execution seed with it, and the service each submission's
    database seed. *)

type hmac_key
(** An HMAC key with its two pad blocks already compressed: the chaining
    states after the ipad block and after the opad block. *)

val hmac_key : string -> hmac_key
(** Two compressions, once per key (a key over 64 bytes is hashed
    first, as RFC 2104 requires). *)

val hmac_keyed : hmac_key -> string -> digest
(** HMAC-SHA256 (RFC 2104) under a prepared key. Resumes from the pad
    states, so a message of at most 55 bytes costs two compressions where
    {!hmac} costs four. Sortition derives every member seed of a ranked
    registry block under the block's one key. *)

val hmac : key:string -> string -> digest
(** HMAC-SHA256 (RFC 2104): [hmac_keyed (hmac_key key) msg]. Used as a
    keyed PRF for deterministic device signatures in sortition. *)

val to_hex : digest -> string
(** Lowercase hex rendering (64 chars). *)

val compare_le : digest -> digest -> int
(** Lexicographic comparison of raw digests — the sortition order. *)

type ctx
(** Incremental hashing context. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Back to the empty message. A context can be reused after [reset],
    including after {!finalize}: one context can hash many messages in
    turn without allocating. *)

val feed : ctx -> string -> unit

val feed_sub : ctx -> string -> int -> int -> unit
(** [feed_sub ctx s off len] feeds bytes [off .. off + len - 1] of [s]. *)

val feed_bytes : ctx -> bytes -> int -> int -> unit
(** [feed_bytes ctx b off len] feeds bytes [off .. off + len - 1] of [b];
    they are copied or compressed before it returns. *)

val finalize : ctx -> digest

val finalize_into : ctx -> bytes -> int -> unit
(** [finalize_into ctx out off] writes the 32-byte digest to
    [out.[off .. off + 31]] and allocates nothing. After {!finalize} or
    [finalize_into] the context must be {!reset} before it is fed
    again. *)
