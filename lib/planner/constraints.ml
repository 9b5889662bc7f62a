type goal =
  | Min_agg_time
  | Min_agg_bytes
  | Min_part_exp_time
  | Min_part_max_time
  | Min_part_exp_bytes
  | Min_part_max_bytes

type limits = {
  max_agg_time : float option;
  max_agg_bytes : float option;
  max_part_exp_time : float option;
  max_part_max_time : float option;
  max_part_exp_bytes : float option;
  max_part_max_bytes : float option;
}

let no_limits =
  {
    max_agg_time = None;
    max_agg_bytes = None;
    max_part_exp_time = None;
    max_part_max_time = None;
    max_part_exp_bytes = None;
    max_part_max_bytes = None;
  }

(* §7.2 caps participants at 4 GB / 20 min. The aggregator cap follows
   Fig. 8b's observed ~10 h on 1,000 cores (10,000 core-hours); the "1,000
   core hours" sentence in §7.2 is inconsistent with the paper's own Fig. 8b
   numbers, so we take the figure as ground truth (see EXPERIMENTS.md). *)
let evaluation_limits =
  {
    max_agg_time = Some (10_000.0 *. 3600.0);
    max_agg_bytes = None;
    max_part_exp_time = None;
    max_part_max_time = Some (20.0 *. 60.0);
    max_part_exp_bytes = None;
    max_part_max_bytes = Some 4.0e9;
  }

let with_agg_core_hours limits h = { limits with max_agg_time = Some (h *. 3600.0) }

let le_opt v = function None -> true | Some limit -> v <= limit

(* [est_error] is capped by the tolerance when one is given. Unlike the
   resource caps, [None] does NOT mean "unconstrained": the analyst supplied
   no tolerance, so only exact plans pass. *)
let error_ok v = function None -> v <= 0.0 | Some limit -> v <= limit

let satisfies l ~tolerance (m : Cost_model.metrics) =
  le_opt m.Cost_model.agg_time l.max_agg_time
  && le_opt m.Cost_model.agg_bytes l.max_agg_bytes
  && le_opt m.Cost_model.part_exp_time l.max_part_exp_time
  && le_opt m.Cost_model.part_max_time l.max_part_max_time
  && le_opt m.Cost_model.part_exp_bytes l.max_part_exp_bytes
  && le_opt m.Cost_model.part_max_bytes l.max_part_max_bytes
  && error_ok m.Cost_model.est_error tolerance

(* Every limit is an upper cap, so a *lower bound* on a candidate's metrics
   that already violates one can never be repaired by completing the plan:
   pruning on this predicate is admissible. *)
let lower_bound_infeasible l ~tolerance m = not (satisfies l ~tolerance m)

let goal_value g (m : Cost_model.metrics) =
  match g with
  | Min_agg_time -> m.Cost_model.agg_time
  | Min_agg_bytes -> m.Cost_model.agg_bytes
  | Min_part_exp_time -> m.Cost_model.part_exp_time
  | Min_part_max_time -> m.Cost_model.part_max_time
  | Min_part_exp_bytes -> m.Cost_model.part_exp_bytes
  | Min_part_max_bytes -> m.Cost_model.part_max_bytes

let goal_name = function
  | Min_agg_time -> "min aggregator time"
  | Min_agg_bytes -> "min aggregator bytes"
  | Min_part_exp_time -> "min expected participant time"
  | Min_part_max_time -> "min max participant time"
  | Min_part_exp_bytes -> "min expected participant bytes"
  | Min_part_max_bytes -> "min max participant bytes"
