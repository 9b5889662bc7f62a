(** Committee selection by cryptographic sortition (§5.1).

    Generalizes Honeycrisp's mechanism: for query [i] with public random
    block [B_i], every registered device deterministically signs
    [(B_i, i, 0)] and hashes the signature; the [c*m] devices with the
    lowest hashes form the committees, the device with the x-th lowest hash
    joining committee [x / m]. Determinism prevents grinding; the secret
    block prevents precomputation; each device serves on at most one
    committee. The registered-device set is committed in a Merkle tree that
    travels inside the query authorization certificate, blocking the
    "computational grinding" attack described in §5.2. *)

type device = { id : int; seed : string }
(** A registered device; [seed] is its long-term signing secret. *)

type assignment = {
  committees : int array array;  (** committee -> member device ids *)
  registry_root : Sha256.digest;  (** Merkle root over the device set *)
}

val ticket : device -> block:string -> query_id:int -> Sha256.digest
(** The device's sortition hash for this query (hash of its deterministic
    signature on (block, query id, 0)). *)

val select :
  devices:device array -> block:string -> query_id:int -> committees:int ->
  size:int -> assignment
(** Pick [committees] committees of [size] members each. Raises
    [Invalid_argument] if there are fewer than [committees * size]
    devices. *)

val verify_member :
  devices:device array -> block:string -> query_id:int -> committees:int ->
  size:int -> device:device -> int option
(** Recompute (as any third party can) which committee a given device
    belongs to; [None] if it was not selected. Agrees with [select]. *)

val reassign_failed : assignment -> failed:int -> assignment
(** Committee [failed] lost too many members: move its tasks to committee
    [(failed + 1) mod c] by merging membership (§5.1). *)

(** Hierarchical, seed-derived registry for billion-device sortition.

    The flat {!select} ranks every device — O(N) hashing, hopeless at the
    paper's 10^8–10^9 scale. A [Registry.t] derives the whole population
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

  val size : t -> int
  val n_blocks : t -> int

  val root : t -> Sha256.digest
  (** The registry commitment carried in the query authorization
      certificate. Depends only on (seed, n). *)

  val device_seed : t -> int -> string
  (** The long-term signing secret of device [id], derived from its
      block's PRF seed. O(1); raises [Invalid_argument] out of range. *)

  val device : t -> int -> device

  val select :
    t -> block:string -> query_id:int -> committees:int -> size:int ->
    assignment
  (** Two-level sortition: rank blocks by ticket, expand winning blocks in
      order, rank their members, take the first [committees * size]. Same
      grinding-resistance argument as the flat {!select}; committees are a
      function of (seed, n, block, query_id) only. *)

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
