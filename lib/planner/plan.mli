(** Query-plan intermediate representation: vignettes (§4.4).

    A plan is a sequence of vignettes — short computation segments, each
    assigned to the aggregator, to (possibly many parallel) committees of
    participant devices, or to the participant devices themselves. A
    vignette that is data-parallel carries the number of parallel instances
    (e.g. one committee per category chunk for Gumbel noising, Fig. 5).

    The [work] payload is abstract enough for the cost model to price and
    concrete enough for the runtime to execute. *)

type crypto = Ahe | Fhe

type location =
  | Aggregator
  | Committees of int  (** this many parallel committee instances *)
  | Participants  (** every device, in parallel (e.g. input encryption) *)

type work =
  | W_keygen of crypto  (** DKG + query authorization certificate (§5.2) *)
  | W_zk_setup of { constraints : int }  (** Groth16 trusted setup (§6) *)
  | W_encrypt_input of {
      crypto : crypto;
      cts_per_device : int;
      zk_constraints : int;
    }  (** each device encrypts its row and attaches a ZKP (§5.3) *)
  | W_verify_inputs of { devices : int }
      (** aggregator checks one proof per device *)
  | W_he_sum of {
      crypto : crypto;
      cts : int;  (** ciphertexts per input *)
      inputs : int;  (** how many encrypted inputs this instance sums *)
    }
  | W_he_affine of { crypto : crypto; cts : int; muls : int; adds : int }
      (** public-coefficient linear map on ciphertexts *)
  | W_he_rotate_sum of { crypto : crypto; cts : int; rotations : int }
      (** slot-wise prefix/suffix sums via rotations *)
  | W_he_sketch of { crypto : crypto; cts : int; width : int; depth : int }
      (** Count-Min projection of the encrypted histogram into depth x width
          counters (public HE work — CMS is linear); point estimates are
          within e/width of the true relative mass *)
  | W_he_coarsen of { crypto : crypto; cts : int; groups : int }
      (** fold the encrypted histogram into [groups] coarse buckets by
          rotate-and-add; rank queries lose at most 1/groups *)
  | W_mpc_decrypt of { crypto : crypto; cts : int }
      (** threshold decryption of [cts] ciphertexts into shares *)
  | W_mpc_decrypt_noise of {
      crypto : crypto;
      cts : int;
      kind : [ `Gumbel | `Laplace ];
      count : int;
    }
      (** the §4.4 exception: consecutive committee vignettes fused — the
          same committee decrypts and noises, saving a VSR hand-off and a
          committee from the count *)
  | W_mpc_affine of { elements : int }
  | W_mpc_scan of { elements : int }
  | W_mpc_nonlinear of { elements : int }
      (** per-element comparison/abs work on shares *)
  | W_mpc_noise of { kind : [ `Gumbel | `Laplace ]; count : int }
  | W_mpc_argmax of { inputs : int }
      (** one round of an argmax tournament over [inputs] shared values *)
  | W_mpc_exp of { count : int }
      (** base-2 exponentiations for the em-exponentiate variant *)
  | W_mpc_sample_index of { inputs : int }
      (** draw r and scan prefix intervals (Fig. 4 left, second half) *)
  | W_mpc_output of { values : int }  (** reconstruct and release (§5.5) *)
  | W_post of { flops : int }  (** cleartext postprocessing on public data *)

type vignette = { location : location; work : work }

type t = {
  query : string;
  crypto : crypto;
  vignettes : vignette list;
  (* Derived when the plan is completed: *)
  sample_bins : int option;  (** secrecy-of-the-sample bin count (§6), when the query samples *)
  device_sample : float option;
      (** Bernoulli device-sampling rate phi in (0,1); [None] = every
          device participates (exact). Sampling amplifies privacy: the
          charged epsilon shrinks (see {!charged}). *)
  committee_count : int;  (** total committees across all vignettes *)
  committee_size : int;  (** minimum m for this plan's committee count *)
  em_variant : [ `Gumbel | `Exponentiate | `Sketch | `None ];
}

val committee_count : vignette list -> int
(** Total parallel committee instances across the vignettes (the [c] that
    drives committee sizing, §5.1). *)

val charged : t -> Arb_dp.Budget.t -> Arb_dp.Budget.t
(** [charged plan cost] is what executing [plan] deducts from the budget
    for a query of certified cost [cost]: [cost] itself, or its
    amplification by subsampling ({!Arb_dp.Budget.amplify}) when the plan
    samples devices. The key-generation committee charges this amount,
    and {!Arb_runtime.Verify} re-derives it. *)

val crypto_name : crypto -> string
val describe_work : work -> string
val pp : Format.formatter -> t -> unit
