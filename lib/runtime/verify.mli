(** Independent post-hoc verification of a run.

    Anyone holding the public artifacts of a query — the chosen plan, the
    standing budget, and the execution report with its signed certificate —
    can re-check what the protocol promised without trusting the
    aggregator: the certificate's signatures, that the certificate commits
    to exactly this plan, that the budget arithmetic matches what the plan
    charges for the query's certified privacy cost
    ({!Arb_planner.Plan.charged}), that the aggregator's audit held, and
    that every device's input was adjudicated. For a sampled plan the
    sample is secret, so the last check asks only that the adjudicated
    count be at most [n_devices] and a plausible Binomial([n_devices], phi)
    draw: an honest sample fails it with probability below 2e-9. *)

type finding = { check : string; ok : bool; detail : string }

val verify_report :
  query:Arb_queries.Registry.query ->
  plan:Arb_planner.Plan.t ->
  budget_before:Arb_dp.Budget.t ->
  n_devices:int ->
  Exec.report ->
  finding list
(** All checks, pass or fail. *)

val all_ok : finding list -> bool

val pp_findings : Format.formatter -> finding list -> unit
