(** Execution setup: device population, sortition, and the key-generation
    ceremony (§5.1–§5.2).

    The population is derived entirely from [(seed, n)] — sortition
    secrets come from the hierarchical registry's block PRF seeds
    ({!Arb_crypto.Sortition.Registry}), and every device's protocol
    randomness is its own per-index stream ({!Arb_util.Rng.derive}). No
    per-device state is materialized up front, which is what lets the
    runtime address 10^8+ devices while only executing a few sampled
    cohorts: a device's draws are a pure function of its id, identical
    whether or not its cohort is ever materialized.

    The key-generation committee checks the privacy budget, generates the
    BGV keypair, hands the secret key to the decryption committee as Shamir
    shares via VSR, and signs a query authorization certificate containing
    the public key, query/plan digests, the remaining budget, the device
    registry's Merkle root, and the next sortition block. *)

type certificate = {
  query_id : int;
  pk_digest : Arb_crypto.Sha256.digest;
  plan_digest : Arb_crypto.Sha256.digest;
  budget_left : Arb_dp.Budget.t;
  registry_root : Arb_crypto.Sha256.digest;
  next_block : string;
  signatures : (Arb_crypto.Sig_scheme.public * string) list;
      (** per keygen-committee member: (one-time public key, signature) *)
}

exception Budget_exhausted

type population
(** The derived device population. O(n / block_size) memory regardless of
    [n]. *)

val population :
  seed:int64 -> n:int -> byzantine_fraction:float -> population

val device_seed : population -> int -> string
(** Sortition/signing secret of device [id], derived on demand. *)

val registry_root : population -> Arb_crypto.Sha256.digest
(** Registry commitment for the certificate: a function of (seed, n) only,
    identical across sharded and fully materialized executions. *)

val device_input_rng : population -> int -> Arb_util.Rng.t
(** Device [id]'s private randomness stream. Protocol draw order:
    Byzantine flag, then bin choice, then per-ciphertext encryption
    randomness — streamed (extrapolated) passes stop after the bin draw
    without perturbing any other device's stream. *)

val device_sampled : population -> phi:float option -> int -> bool
(** Whether device [id] participates under device-sampling rate [phi]
    ([None] = exact plan, everyone participates). The draw comes from the
    device's own sampling-inclusion stream, separate from
    {!device_input_rng}, so a sampled plan perturbs no input draw. Pure in
    [(population seed, id)], hence byte-identical across worker counts and
    cohort geometries. *)

val residual_rng : population -> Arb_util.Rng.t
(** Dedicated stream for encrypting the residual (extrapolated-cohort)
    aggregate; independent of the session and of every device stream. *)

val run_sortition :
  population ->
  block:string ->
  query_id:int ->
  committees:int ->
  size:int ->
  Arb_crypto.Sortition.assignment

val verify_member :
  population ->
  block:string ->
  query_id:int ->
  committees:int ->
  size:int ->
  id:int ->
  int option
(** Device-side spot-check of a committee assignment (two-level
    recomputation; agrees with {!run_sortition}). *)

val verify_members :
  population ->
  block:string ->
  query_id:int ->
  committees:int ->
  size:int ->
  int array ->
  int option array
(** {!verify_member} of each id, from one ranking of the block list and
    one of each distinct block among the ids. *)

val certificate_payload : certificate -> string
(** The signed byte string (everything except the signatures). *)

val keygen_ceremony :
  ?workers:int ->
  Arb_util.Rng.t ->
  device_seed:(int -> string) ->
  committee:int array ->
  params:Arb_crypto.Bgv.params ->
  query_id:int ->
  plan_digest:Arb_crypto.Sha256.digest ->
  budget:Arb_dp.Budget.t ->
  cost:Arb_dp.Budget.t ->
  registry_root:Arb_crypto.Sha256.digest ->
  engine:Arb_mpc.Engine.t ->
  Arb_crypto.Bgv.secret_key * Arb_crypto.Bgv.public_key * certificate
(** Raises [Budget_exhausted] if [cost] exceeds [budget]. The returned
    secret key is the ceremony's output held only as shares in a real
    deployment; the simulation hands it to the decryption step directly
    (which re-shares it). MPC costs are charged to [engine]. Committee
    members sign with one-time keys derived from [device_seed].

    [workers] (default 1) is how many domains derive the members' one-time
    keys and signatures ({!Arb_util.Pool}); every RNG draw stays on the
    calling domain, so the certificate is byte-identical at any value. *)

val verify_certificate : ?workers:int -> certificate -> bool
(** Every member signature checks out against the payload. [workers]
    (default 1) is how many domains check the signatures; the answer does
    not depend on it. *)
