(** Committee selection by cryptographic sortition (§5.1).

    Generalizes Honeycrisp's mechanism: for query [i] with public random
    block [B_i], every registered device deterministically signs
    [(B_i, i, 0)] and hashes the signature; devices are ranked by these
    hashes (in two levels, see {!Registry}) and the first [c*m] form the
    committees, the x-th ranked device joining committee [x / m].
    Determinism prevents grinding; the secret block prevents
    precomputation; each device serves on at most one committee. The
    registered-device set is committed in a Merkle tree that travels
    inside the query authorization certificate, blocking the
    "computational grinding" attack described in §5.2. *)

type assignment = {
  committees : int array array;  (** committee -> member device ids *)
  registry_root : Sha256.digest;  (** Merkle root over the device set *)
}

val reassign_failed : assignment -> failed:int -> assignment
(** Committee [failed] lost too many members: move its tasks to committee
    [(failed + 1) mod c] by merging membership (§5.1). *)

(** Hierarchical, seed-derived registry for billion-device sortition.

    Ranking every device is O(N) hashing, hopeless at the paper's
    10^8–10^9 scale. A [Registry.t] derives the whole population
    from a seed: devices live in blocks of the fixed canonical size
    {!Registry.block_size}, each block holding a PRF seed from which its
    members' signing secrets are derived on demand. Sortition runs in two
    levels — blocks are ranked by a per-block ticket, then only the few
    winning blocks expand their members — so committee selection touches
    O(N / block_size + seats) devices. The Merkle root commits to the
    block-level seed commitments and is therefore computable (and equal)
    whether or not the execution ever materializes the full population:
    certificates from a cohort-sharded run are byte-identical to a fully
    materialized one. *)
module Registry : sig
  type t

  val block_size : int
  (** Canonical registry block size (4096). A protocol constant — the
      certificate's registry root commits to the block structure, so this
      is independent of any runtime cohort/sharding configuration. *)

  val create : seed:int64 -> n:int -> t
  (** Derive the registry for a population of [n] devices. O(n /
      block_size) work and memory. Raises [Invalid_argument] if [n <= 0]. *)

  val root : t -> Sha256.digest
  (** The registry commitment carried in the query authorization
      certificate. Depends only on (seed, n). *)

  val device_seed : t -> int -> string
  (** The long-term signing secret of device [id], derived from its
      block's PRF seed. O(1); raises [Invalid_argument] out of range. *)

  val select :
    t -> block:string -> query_id:int -> committees:int -> size:int ->
    assignment
  (** Two-level sortition: rank blocks by ticket, expand winning blocks in
      order, rank their members, take the first [committees * size].
      Committees are a function of (seed, n, block, query_id) only, so the
      grinding-resistance argument above holds. Raises [Invalid_argument]
      if [committees] or [size] is not positive or the registry has fewer
      than [committees * size] devices. *)

  val verify_member :
    t -> block:string -> query_id:int -> committees:int -> size:int ->
    id:int -> int option
  (** Third-party recomputation of a device's committee, touching only the
      ranked block list plus the device's own block. Agrees with
      {!Registry.select}. *)

  val verify_members :
    t -> block:string -> query_id:int -> committees:int -> size:int ->
    int array -> int option array
  (** [verify_members t ... ids] is [verify_member] of each id in turn —
      its committee, or [None] for an unselected or out-of-range id — but
      ranks the block list once and each distinct block among [ids] once,
      where [verify_member] ranks both again for every id. It recomputes
      from [t] and the block alone and shares nothing with
      {!Registry.select}, so it stays an independent check. *)
end
