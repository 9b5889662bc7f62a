(** Comparison systems (Table 1, Figs. 6–8).

    Orchard and Honeycrisp are modeled as restricted Arboretum plans —
    exactly one committee that performs key generation, noising and
    decryption, with the aggregator doing all homomorphic sums — priced by
    the same cost model, which is how the paper frames them ("the original
    systems were custom-designed for these queries, whereas Arboretum was
    able to find these query plans independently"). Böhler–Kerschbaum and
    the Table 1 strawmen (FHE-only, all-to-all MPC) are analytic models
    built from the paper's own extrapolations (§3.2, §7.1). *)

val orchard_plan :
  crypto:Arb_planner.Plan.crypto ->
  n:int ->
  cols:int ->
  noise_count:int ->
  cm:Arb_planner.Cost_model.t ->
  Arb_planner.Plan.t
(** A single-committee plan: keygen, aggregator HE sum, committee decrypt +
    Laplace-noise [noise_count] values, output. *)

val orchard_metrics :
  n:int -> cols:int -> noise_count:int -> cm:Arb_planner.Cost_model.t ->
  Arb_planner.Cost_model.metrics
(** The Orchard plan's metrics. Honeycrisp is the same plan at the
    count-mean-sketch width: [cols] and [noise_count] both the sketch's
    column count. *)

type boehler = {
  committee_bytes : float;  (** per committee member *)
  committee_time : float;
  participant_bytes : float;  (** non-member upload *)
}

val boehler_median : n:int -> m:int -> boehler
(** Böhler–Kerschbaum single-committee MPC median, extrapolated as the
    paper does (§7.1): 1.41 GB per member at N = 1e6, m = 10, scaling at
    least linearly in N and m. *)

type strawman = {
  agg_compute_seconds : float;
  participant_bytes_typical : float;
  participant_bytes_worst : float;
  description : string;
}

val fhe_only : n:int -> cols:int -> strawman
(** Upload everything under FHE; the aggregator evaluates the query
    homomorphically — a ~40-trillion-gate circuit at N = 1e8 (§3.2). *)

val all_to_all_mpc : n:int -> strawman
(** Every participant joins one giant MPC: per-participant traffic scales
    at least linearly with N (§3.2). *)
