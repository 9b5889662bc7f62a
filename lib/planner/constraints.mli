(** Analyst-supplied optimization goals and limits (§4.2). *)

type goal =
  | Min_agg_time
  | Min_agg_bytes
  | Min_part_exp_time
  | Min_part_max_time
  | Min_part_exp_bytes
  | Min_part_max_bytes

type limits = {
  max_agg_time : float option;  (** single-core seconds *)
  max_agg_bytes : float option;
  max_part_exp_time : float option;
  max_part_max_time : float option;
  max_part_exp_bytes : float option;
  max_part_max_bytes : float option;
}
(** Resource caps only. The error tolerance is not a limit: it is declared
    on the query ([Arb_queries.Registry.query.error_tolerance]), and
    {!Search.plan} reads it there. *)

val no_limits : limits

val evaluation_limits : limits
(** The §7.2 setting: participants send at most 4 GB and compute at most
    20 minutes; the aggregator spends at most 1,000 core-hours. *)

val with_agg_core_hours : limits -> float -> limits

val satisfies : limits -> tolerance:float option -> Cost_model.metrics -> bool
(** Every cap holds, and [est_error] is at most [tolerance]. With no
    tolerance ([None]) only exact plans ([est_error = 0]) pass, keeping
    winners byte-identical to the exact-only planner. *)

val lower_bound_infeasible :
  limits -> tolerance:float option -> Cost_model.metrics -> bool
(** [lower_bound_infeasible l ~tolerance bound] is true when [bound] — a
    componentwise lower bound on some candidate's final metrics — already
    fails {!satisfies}. Because every limit and the tolerance are upper
    caps, no completion of that candidate can pass: pruning on this
    predicate is admissible. *)

val goal_value : goal -> Cost_model.metrics -> float
val goal_name : goal -> string
