(** The planner's search (§4.3–§4.6): enumerate candidate plans operator by
    operator with branch-and-bound, score with the cost model, re-solve the
    committee size for each complete candidate, and keep the best plan that
    satisfies the analyst's limits and the query's error tolerance.

    Pricing is incremental: a DFS node is a plan prefix whose bound, a
    {!Cost_model.partial} at the c = 1 committee size, is its parent's
    combined with its choice's delta, so root→leaf work is linear in depth.
    Each node also carries its canonical partial: the fold a complete plan
    is scored with, over the node's path, priced at the committee size m
    its committees already force. A complete candidate is scored on its
    own, at the true m (known once its committee count is).

    Pruning follows §4.4/§7.3 and is admissible: prefix bounds are priced
    with the c = 1 committee size — a lower bound on the size any completed
    plan is priced with, since the minimal safe m is monotone in the
    committee count — so a prefix is discarded only when no completion can
    beat the incumbent or satisfy a limit. The canonical partial, with the
    vignettes of the later single-choice operators folded in, is a tighter
    bound, exact in floats. It drops subtrees that could only hold
    infeasible plans or plans the full ranked list would drop (DESIGN.md
    §7.4). These cut-offs change only the counters, never the result.
    Disabling [heuristics] removes all pruning and enumerates redundant
    re-segmentations, reproducing the §7.3 ablation blowup; because the
    bounds are admissible, both settings find the same optimum.

    The outer (crypto × sampled-bins × sampling-rate) tasks run one after
    another in a canonical order, each with its own searcher. Only the
    incumbent passes from task to task, and it moves only on a strictly
    better plan, so an earlier task keeps ties. Every output but
    [stats.elapsed] is a pure function of the query, [n] and the
    arguments: the winner, the ranked alternatives, the counters and,
    under a deterministic tracer, the trace and metrics bytes (DESIGN.md
    §7.3). The service gets its parallelism by running several searches at
    once, one per domain. *)

type stats = {
  prefixes : int;  (** plan prefixes considered (§7.3), summed over tasks *)
  full_plans : int;  (** complete candidates scored *)
  pruned : int;
  elapsed : float;  (** seconds spent planning *)
  aborted : bool;  (** some task hit the exploration cap before finishing *)
}

type result = {
  plan : Plan.t option;  (** [None] when no candidate satisfies the limits *)
  metrics : Cost_model.metrics option;
  alternatives : (Plan.t * Cost_model.metrics) list;
      (** a ranked sample of the feasible design space: the winner plus up
          to four runners-up, deduplicated on plan identity. Under pruning
          the runners-up are best-effort: a runner-up whose subtree the
          incumbent prunes is never scored. They are exact with
          [heuristics:false] (no pruning). *)
  stats : stats;
}

val plan :
  ?cm:Cost_model.t ->
  ?limits:Constraints.limits ->
  ?goal:Constraints.goal ->
  ?heuristics:bool ->
  ?max_prefixes:int ->
  ?incremental:bool ->
  ?tracer:Arb_obs.Tracer.t ->
  ?metrics:Arb_obs.Metrics.t ->
  query:Arb_queries.Registry.query ->
  n:int ->
  unit ->
  result
(** The error tolerance is the query's own
    ([Arb_queries.Registry.query.error_tolerance]): with [Some t] the search
    also enumerates device-sampling rates and approximate variants and
    admits plans whose [est_error] is at most [t]; with [None] only exact
    plans qualify.

    Defaults: the §7 setting — [limits] = {!Constraints.evaluation_limits},
    [goal] = minimize expected participant time, heuristics on, 5M-prefix
    cap (per task); committees are sized by {!committee_size_for}.
    [incremental] (default true) turns on the memos and the exact
    cut-offs; [false], the reference the differential tests compare
    against, is the same search over the same nodes and bounds with every
    price, choice and fold computed afresh and no exact cut-off. Both
    modes return the same result; only the counters differ.

    [tracer] records a plan → search → expand → price span tree: one
    "search" span per (crypto × bins) task carrying its node/prune/memo
    counters as args, one "expand"/"price" span pair per choice-memo miss
    (so span count is bounded by the memo, not the node count). Each task
    writes to its own {!Arb_obs.Tracer.child}, grafted back in task order.
    [metrics] receives [arb_planner_*] counters (nodes, pruned, plans, memo
    hit/miss, pricing calls, per-depth nodes) plus — unless the tracer is
    deterministic, which suppresses all wall-clock readings — per-depth and
    scoring seconds and a planning-latency histogram. *)

val committee_size_for : int -> int
(** The smallest safe committee size for this many committees in the §7
    setting: f = 3% Byzantine devices, g = 0.15, and p1 from 1e-8 over
    1000 rounds ({!Arb_dp.Committee.min_size}). Memoized by committee
    count; domain-safe, the cache is mutex-protected, because the service
    runs several searches at once. *)
