(** Arboretum: a planner for large-scale federated analytics with
    differential privacy (SOSP 2023) — public facade.

    The typical flow mirrors Fig. 1 of the paper:

    {[
      let query = Arboretum.query_of_source ~name:"top1"
          ~source:"aggr = sum(db); result = em(aggr); output(result);"
          ~row:(Arboretum.one_hot 1024) ~epsilon:0.5 ()
      in
      (* Planning phase: certify, explore the plan space, pick the best. *)
      let planned = Arboretum.plan ~n:1_000_000_000 query in
      print_string (Arboretum.explain planned);
      (* Execution phase, at simulation scale with real cryptography. *)
      let db = Arboretum.synthesize_database query ~n:512 in
      match Arboretum.run ~db planned with
      | Ok report -> List.iter print_endline (Arboretum.outputs_to_strings report)
      | Error f -> Format.eprintf "failed: %a@." Arb_runtime.Exec.pp_failure f
    ]}

    Submodules of the underlying libraries remain available for advanced
    use: [Arb_lang] (language), [Arb_planner] (planner internals),
    [Arb_crypto] / [Arb_mpc] (substrates), [Arb_runtime] (execution),
    [Arb_dp] (mechanisms and accounting), [Arb_baselines] (comparison
    systems). *)

type query = Arb_queries.Registry.query
type planned = {
  query : query;
  plan : Arb_planner.Plan.t;
  metrics : Arb_planner.Cost_model.metrics;
  alternatives : (Arb_planner.Plan.t * Arb_planner.Cost_model.metrics) list;
      (** ranked design-space sample the search kept (winner first) *)
  stats : Arb_planner.Search.stats;
  certification : Arb_lang.Certify.report;
  planned_n : int;  (** the deployment size this plan was chosen for *)
  cost_model : Arb_planner.Cost_model.t;
      (** the model that priced the search; {!explain} prices its table
          with it *)
}

exception Rejected of string
(** Certification or planning failure, with the reason. *)

val one_hot : int -> Arb_lang.Ast.row_shape
val bounded : width:int -> lo:int -> hi:int -> Arb_lang.Ast.row_shape

val query_of_source :
  ?error_tolerance:float ->
  name:string ->
  source:string ->
  row:Arb_lang.Ast.row_shape ->
  epsilon:float ->
  unit ->
  query
(** Parse an analyst query. Raises {!Rejected} on syntax errors.
    [error_tolerance] opts the query into approximate plans: the planner
    may then answer with sampled/sketched variants whose estimated relative
    error stays within the tolerance. *)

val builtin_query :
  ?epsilon:float -> ?error_tolerance:float -> ?categories:int -> string -> query
(** One of the ten evaluation queries (Table 2) by name; default categories
    follow §7.1. *)

val certify : query -> n:int -> Arb_lang.Certify.report
(** Differential-privacy certification (§4.2); never raises. *)

val plan :
  ?cm:Arb_planner.Cost_model.t ->
  ?goal:Arb_planner.Constraints.goal ->
  ?limits:Arb_planner.Constraints.limits ->
  ?tracer:Arb_obs.Tracer.t ->
  ?metrics:Arb_obs.Metrics.t ->
  n:int ->
  query ->
  planned
(** Certify then search for the best plan (§4). Raises {!Rejected} when
    the query's error tolerance lies outside (0, 1]
    ({!Arb_queries.Registry.check_tolerance}), when certification fails,
    when the planner cannot lower the certified program, or when no plan
    satisfies the limits (default {!Arb_planner.Constraints.no_limits})
    and the query's own error tolerance, which the search reads off the
    query. [cm] selects the cost model pricing candidates (default {!Arb_planner.Cost_model.default};
    pass a fitted [Calibration.t]'s constants — [arb plan --calibration]).
    [tracer] and [metrics] are handed to {!Arb_planner.Search.plan} for
    span-level profiling and [arb_planner_*] counters. *)

val explain : planned -> string
(** Human-readable plan: vignettes, placements, costs, committee sizing,
    all priced with the plan's own [cost_model]. *)

val synthesize_database :
  ?seed:int64 -> ?skew:float -> query -> n:int -> int array array
(** A synthetic Zipf-skewed database matching the query's row shape. *)

val run :
  ?config:Arb_runtime.Exec.config ->
  db:int array array ->
  planned ->
  (Arb_runtime.Exec.report, Arb_runtime.Exec.failure) result
(** Execute the plan end to end over a concrete database (§5), with real
    BGV/Shamir/ZKP machinery at simulation scale. [Error] carries the
    stage that failed closed. For populations far larger than memory, call
    {!Arb_runtime.Exec.run_source} with a [Sharded] config and an indexed
    source (see {!Arb_queries.Registry.device_source}). *)

val reference_outputs :
  ?seed:int64 -> db:int array array -> query -> Arb_lang.Interp.value list
(** The single-machine cleartext semantics (what the distributed run must
    match in distribution). *)

val outputs_to_strings : Arb_runtime.Exec.report -> string list
