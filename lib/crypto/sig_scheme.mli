(** Deterministic hash-based signatures (Lamport one-time scheme).

    Sortition (§5.1) requires each device to sign the random block [B_i] with
    a {e deterministic} signature scheme so devices cannot grind for low
    hashes. The paper deploys RSA with deterministic padding; this container
    has no bignum library, so we substitute Lamport one-time signatures built
    on our SHA-256 — a real, verifiable scheme, deterministic by
    construction. Signatures are larger than RSA's (8 KiB vs 256 B), so the
    cost model charges RSA-2048's 256 bytes to match the deployed scheme
    (documented substitution; DESIGN.md §1). Keys are one-time: the runtime
    derives a fresh per-query key from a device's long-term seed. *)

type secret
(** Everything {!keygen} derived: the 512 per-bit preimages, kept as one
    16 KiB buffer, and the 16 KiB commitment string (32 KiB per one-time
    key), so {!sign} need not derive them again. Still one-time: signing
    two messages with one key reveals both preimages of every bit where
    their digests differ. *)

type public = string
(** Compact public key: SHA-256 digest of the 512 per-bit commitments. *)

type keypair = { secret : secret; public : public }

val keygen : seed:string -> keypair
(** Deterministic keypair from a seed; the runtime uses
    [seed = device_secret ^ query_tag] to get per-query one-time keys.
    Costs 1,281 SHA-256 compressions when the seed is at most 41 bytes:
    512 preimages, 512 commitments and the 257-block public digest. One
    context, reset between hashes, writes the preimages and commitments
    straight into their two buffers. *)

val sign : secret:secret -> string -> string
(** Deterministic signature (8 KiB + commitment material). Hashes only
    the message; the revealed preimages and the commitments are copied
    from the secret. *)

val verify : public:public -> msg:string -> signature:string -> bool
(** Hashes the signature's commitment block and each revealed preimage
    where they lie in [signature], through one reused context: no
    substring is built. *)
