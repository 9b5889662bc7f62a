(** Human-readable plan reports: the vignette table with per-vignette cost
    contributions (who pays what), the six-metric summary, and the ranked
    alternatives the search kept — the tooling face of "it is possible to
    build a query planner for federated analytics" (§3.4). *)

val summary : Plan.t -> Cost_model.metrics -> string
(** The headline: cryptosystem, committees, committee size, em variant and
    the six metrics in human units. *)

val full :
  cm:Cost_model.t ->
  n_devices:int ->
  cols:int ->
  Plan.t ->
  Cost_model.metrics ->
  (Plan.t * Cost_model.metrics) list ->
  string
(** Summary + vignette table (one row per vignette: location, operation,
    aggregator cost, per-member cost, instances) + the ranked design-space
    sample from {!Search.result.alternatives}. *)
