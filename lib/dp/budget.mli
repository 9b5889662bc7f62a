(** Privacy-budget accounting (§5.2).

    The key-generation committee checks, before authorizing a query, that
    the remaining (epsilon, delta) balance covers the query's certified
    cost; the new balance travels inside the query authorization
    certificate. Composition is basic/sequential — the conservative rule
    the paper's lineage (Honeycrisp/Orchard) applies. *)

type t = { epsilon : float; delta : float }

val create : epsilon:float -> delta:float -> t
(** Raises [Invalid_argument] on negative components. *)

val zero : t

val charge : t -> cost:t -> t option
(** [charge balance ~cost] is the remaining balance, or [None] if the cost
    exceeds it (the query must be refused). *)

val can_afford : t -> cost:t -> bool
val spend_all : t -> t -> t
(** Sequential composition: add two costs. *)

val scale : t -> float -> t
(** k-fold sequential composition of the same cost. *)

val amplified_epsilon : epsilon:float -> phi:float -> float
(** Secrecy of the sample (§2.1): running an eps-DP query on a secret
    phi-sample is ln(1 + phi(e^eps - 1))-DP. *)

val amplify : t -> phi:float -> t
(** Privacy amplification by subsampling: the effective cost of running a
    [(epsilon, delta)] mechanism over a uniform phi-sample of the
    population — [(amplified_epsilon, phi * delta)]. Strictly below the
    full cost for [phi < 1] and [epsilon > 0]. Raises [Invalid_argument]
    when [phi] is outside (0,1]. *)

val equal : t -> t -> bool
(** Exact (epsilon, delta) equality — used by tests asserting a failed
    query left the remaining budget untouched. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Arb_util.Json.t
val of_json : Arb_util.Json.t -> t
(** Raise [Json.Parse_error] / [Invalid_argument] on malformed input. *)

val advanced_composition :
  epsilon:float -> delta:float -> k:int -> delta_slack:float -> t
(** Dwork–Rothblum–Vadhan advanced composition: the total cost of [k]
    (epsilon, delta)-DP mechanisms at the price of an extra [delta_slack]:
    eps' = eps * sqrt(2k ln(1/delta_slack)) + k eps (e^eps - 1). Tighter
    than sequential composition when eps is small and k large — an
    extension beyond the paper's basic accounting. *)

(** Sliding-window accounting for continual (epoch-indexed) analytics:
    "ε = L per H epochs". A window is an immutable value: charges are
    recorded against the current epoch, and advancing the window past
    [horizon] epochs expires old charges and refunds them exactly, each
    returning a new window. Per-epoch totals are computed over a
    canonically sorted charge list, so charge order within an epoch never
    changes the serialized state. *)
module Window : sig
  type budget = t
  type t

  val create : horizon:int -> limit:budget -> t
  (** Raises [Invalid_argument] when [horizon < 1]. Starts at epoch 0 with
      no charges. *)

  val horizon : t -> int
  val limit : t -> budget
  val epoch : t -> int

  val advance : t -> int -> t * budget
  (** [advance t e] is the window moved to epoch [e] (idempotent at the
      current epoch; raises [Invalid_argument] on a backwards move) and
      the exact total refunded by expiring epochs [<= e - horizon]. *)

  val can_afford : t -> cost:budget -> bool
  (** Prescreen against the live-window balance. *)

  val charge : t -> cost:budget -> t option
  (** The window with [cost] recorded against the current epoch, or [None]
      when the live window cannot afford it. *)

  val spent : t -> budget
  (** Canonical sum of all live charges (ascending epoch, each epoch's
      charges sorted by (epsilon, delta)). *)

  val balance : t -> budget
  val charges : t -> (int * budget) list
  (** Live per-epoch totals, ascending epoch. *)

  val next_expiry : t -> (int * budget) option
  (** The epoch at which the oldest live charges expire, and the exact
      amount that will be refunded then. *)

  val composed : ?delta_slack:float -> t -> budget
  (** Privacy loss over the live window: the tighter of sequential
      composition and Dwork–Rothblum–Vadhan advanced composition over the
      individual live charges (using their max epsilon/delta). [zero] for
      an empty window. *)

  val equal : t -> t -> bool
  val to_json : t -> Arb_util.Json.t
  val pp : Format.formatter -> t -> unit
end
