(** Operator instantiation: the per-operator choice lists (§4.3–§4.5).

    Each abstract operator can be realized in several ways — a sum by an
    aggregator loop or by a device sum-tree of some fanout; an exponential
    mechanism by its Gumbel or exponentiation form; committee work split
    into chunks of different sizes; prefix scans homomorphically (slot
    rotations) or on shares. A choice also moves the data between the
    {e encrypted} domain (held by the aggregator) and the {e shared} domain
    (spread over committees in chunks), inserting threshold-decryption
    vignettes at the transition — the planner's version of the paper's
    encryption-type inference (§4.5). *)

type domain =
  | D_enc  (** data lives in ciphertexts at the aggregator *)
  | D_shares of int  (** data secret-shared across committees, chunk size *)

type ctx = {
  n_devices : int;
  cols : int;  (** total category count of the query *)
  crypto : Plan.crypto;  (** global cryptosystem under consideration *)
  bins : int option;  (** secrecy-of-the-sample bin count for this candidate *)
  cm : Cost_model.t;
  redundant_boundaries : bool;
      (** ablation: disable the §4.4 merging heuristics, inflating the
          space with equivalent re-segmentations *)
  tolerance : float option;
      (** analyst error tolerance; [None] disables the approximate variants
          entirely, so the enumeration is unchanged without one *)
}

type item = {
  vignette : Plan.vignette;
  mutable priced : (int * Cost_model.contribution) list;
      (** [vignette]'s contribution per committee size m, as {!Search}
          prices it; every call below returns items with this empty, and
          nothing but {!Search} writes it *)
}
(** A vignette as one call below built it. A call builds each of its
    vignettes once, however many of its choices hold it, and those
    choices share the item: the EM expansion over 2^15 categories holds
    67 items in 3,724 places (68 in 19,992 places at five rounds). The
    search therefore prices a vignette once per item and committee size,
    by a lookup in the item's own short list. *)

type choice = {
  items : item list;  (** in plan order *)
  domain_after : domain;
  needs_fhe : bool;
  em_variant : [ `Gumbel | `Exponentiate | `Sketch | `None ];
}

val prefix : ctx -> sampled_bins:int option -> item list
(** The fixed plan prelude: ZK trusted setup, key generation, input
    encryption (+ per-device proofs), aggregator proof verification. *)

val choices : ctx -> domain -> Extract.aop -> choice list
(** All instantiations of one operator from a given domain state. The list
    is never empty for supported operators. *)

val forced_items : ctx -> Extract.aop -> item list
(** The items every instantiation of an operator holds, from whatever
    domain it is reached: those of the single choice of cleartext
    post-processing and public masking, none for the other operators. *)

val sampled_bins_options : Extract.aop list -> int option list
(** Bin-count choices for secrecy-of-the-sample queries ([None] when the
    query does not sample). *)
