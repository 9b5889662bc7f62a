(** BGV-style RLWE homomorphic encryption, built from scratch.

    The scheme follows Brakerski–Gentry–Vaikuntanathan with least-
    significant-bit message encoding: a ciphertext (c0, c1) under secret s
    satisfies c0 + c1·s = m + t·e (mod q), where t is the plaintext modulus
    and e a small error. Additions are componentwise; multiplication tensors
    two ciphertexts into a degree-2 ciphertext that can either be decrypted
    directly (with s^2) or relinearized back to degree 1 via an RNS-gadget
    key-switching key.

    The ciphertext modulus q is a product of one or two NTT-friendly primes
    below 2^31, held in RNS form so that every coefficient operation stays in
    native 63-bit ints (DESIGN.md §1: scaled-down parameters, real algorithm).
    One prime gives the cheap additive profile the planner calls AHE; two
    primes give enough noise budget for depth-1 multiplication (FHE profile).

    Plaintexts are vectors of up to n values mod t, packed into slots via an
    NTT over Z_t (t is chosen with 2n | t-1 so the plaintext ring splits
    completely); slot-wise addition and multiplication are then the
    homomorphic operations, exactly what the paper's one-hot-encoded
    aggregation needs.

    Representation (DESIGN.md §10): ciphertexts, public keys and key-switch
    keys are held in NTT (evaluation) form end-to-end — homomorphic add is
    a coefficient-wise map, mul/relinearize are pointwise products with no
    redundant transforms — with conversion to coefficient form only at the
    encode/decode, serialize and relin-digit/galois boundaries. The wire
    format is coefficient-form and byte-identical to the seed's. *)

type params = {
  n : int;  (** ring dimension, a power of two *)
  q_primes : int list;  (** RNS basis of the ciphertext modulus *)
  t : int;  (** plaintext modulus, prime, 2n | t-1 *)
  sigma : float;  (** error std-dev *)
}

val ahe_params : ?n:int -> ?min_t:int -> unit -> params
(** Single-prime additive profile. Default n = 2048; [min_t] lower-bounds the
    plaintext modulus (default 12289-class). *)

val fhe_params : ?n:int -> ?min_t:int -> unit -> params
(** Two-prime profile with depth-1 multiplicative budget. Default n = 2048. *)

val validate : params -> unit
(** Raises [Invalid_argument] on inconsistent parameters. *)

val find_plaintext_modulus : n:int -> min_t:int -> int
(** Smallest prime t >= min_t with 2n | t-1. *)

type secret_key
type public_key
type relin_key
type ciphertext

val ciphertext_degree : ciphertext -> int
(** 1 for fresh/added ciphertexts, 2 after an unrelinearized multiply. *)

val noise_budget_bits : ciphertext -> float
(** Estimated remaining bits before decryption failure (log-domain model,
    validated by tests). Negative means decryption may fail. *)

val keygen : params -> Arb_util.Rng.t -> secret_key * public_key
val relin_keygen : params -> Arb_util.Rng.t -> secret_key -> relin_key

val encrypt : public_key -> Arb_util.Rng.t -> int array -> ciphertext
(** Encrypt a slot vector (length <= n; padded with zeros). Values are
    reduced mod t. Equivalent to {!sample_encrypt_randomness} followed by
    {!encrypt_with_randomness}. *)

type encrypt_randomness
(** The random tape one encryption consumes: ternary u, Gaussian e1, e2. *)

val sample_encrypt_randomness :
  public_key -> Arb_util.Rng.t -> encrypt_randomness
(** Draw an encryption's randomness from [rng] (in the exact order
    {!encrypt} would), so callers can sample sequentially in canonical
    order and run the deterministic arithmetic half in parallel. *)

val encrypt_with_randomness :
  public_key -> encrypt_randomness -> int array -> ciphertext
(** Deterministic compute half of {!encrypt}: no RNG access, safe to fan
    out over domains. [encrypt pk rng slots] and
    [encrypt_with_randomness pk (sample_encrypt_randomness pk rng) slots]
    produce identical ciphertexts. *)

val encrypt_with_sk : secret_key -> Arb_util.Rng.t -> int array -> ciphertext
(** Symmetric-key encryption (slightly less noise); used in tests. *)

val decrypt : secret_key -> ciphertext -> int array
(** Full slot vector (length n), entries in \[0, t). Handles degree 1 and 2. *)

val add : ciphertext -> ciphertext -> ciphertext
val sub : ciphertext -> ciphertext -> ciphertext

val accumulate : ciphertext -> ciphertext -> ciphertext
(** [accumulate acc ct] is {!add} but reuses [acc]'s coefficient storage
    in place (allocation-free steady state for long aggregation folds);
    [acc] must not be used by the caller afterwards. Result values and
    noise bookkeeping are identical to [add acc ct]. *)

val mul_plain : ciphertext -> int array -> ciphertext
(** Slot-wise product with a cleartext vector. *)

val mul : ciphertext -> ciphertext -> ciphertext
(** Tensor product; result has degree 2. Requires both inputs degree 1. *)

val relinearize : relin_key -> ciphertext -> ciphertext
(** Degree 2 -> degree 1 via RNS-gadget key switching. *)

val public_key_bytes : params -> int

(** {2 Threshold decryption} — used by decryption committees (§5.2/§5.4). *)

val share_secret_key :
  params -> Arb_util.Rng.t -> secret_key -> parties:int -> secret_key array
(** Additive sharing of s: the shares sum to s coefficient-wise. Each share
    is itself a (large-norm) secret key fragment. *)

val partial_decrypt :
  params -> Arb_util.Rng.t -> secret_key -> ciphertext -> int array list
(** One party's decryption share for a degree-1 ciphertext: c1·s_i plus
    smudging noise, per RNS prime. *)

val combine_partials : params -> ciphertext -> int array list list -> int array
(** Combine all parties' shares with c0 to recover the plaintext slots. *)

(** {2 Galois automorphisms / slot rotations}

    A ciphertext can be mapped through x -> x^k (k odd), which permutes its
    plaintext slots; a key-switch with a Galois key returns it to the
    original secret key. For power-of-two cyclotomics the subgroup
    generated by k = 3 rotates the two slot "rows" — the primitive behind
    homomorphic prefix sums (the planner's heRotate instantiation). *)

type galois_key

val rotation_generator : params -> int
(** The rotation generator (3). *)

val galois_keygen :
  params -> Arb_util.Rng.t -> secret_key -> k:int -> galois_key
(** Key-switching key for sigma_k; [k] must be odd. *)

val apply_galois : galois_key -> ciphertext -> ciphertext
(** Apply sigma_k homomorphically (degree-1 ciphertexts). The slots are
    permuted by {!slot_rotation_of_galois}. *)

val slot_rotation_of_galois : params -> k:int -> int array
(** [perm] such that input slot [i] lands in output slot [perm.(i)];
    derived from the encoding and cached. *)

(** {2 Serialization} — the wire format devices upload; its length is what
    the byte accounting charges (validated against {!serialized_bytes} by
    tests). *)

val serialize_ciphertext : ciphertext -> string

val serialize_public_key : public_key -> string
(** Canonical coefficient-form bytes of (a, b) with a small parameter
    header; representation-independent, suitable for certificate
    digests. *)

val deserialize_ciphertext : params -> string -> ciphertext
(** Raises [Invalid_argument] on parameter mismatch, truncation, or
    non-canonical coefficients (a malformed upload). *)

val serialized_bytes : params -> int -> int
(** Exact wire size for a given degree: a 14-byte header plus (degree+1)
    polynomials of 4 bytes per residue coefficient. Use this (not [String.length] of
    {!serialize_ciphertext}) when only the byte count is needed — e.g. the
    runtime's upload accounting. *)

val scratch_words_allocated : unit -> int
(** Words of scratch workspace per parameter context created so far (the
    allocation gauge exported as [arb_crypto_scratch_words] by the
    runtime). Counted once per context rather than per worker domain, so
    the value is independent of how many domains fan out. *)
