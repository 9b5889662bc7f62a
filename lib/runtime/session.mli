(** Multi-query sessions: the chain the paper's certificates form (§5.1–5.2).

    A deployment answers a sequence of queries. Each query's key-generation
    committee consumes the previous certificate's randomness block [B_i]
    (so sortition cannot be predicted ahead of time), checks and updates the
    shared privacy-budget balance, and emits the next block [B_{i+1}] inside
    its signed certificate. This module drives that chain: committees for
    query i+1 are selected with the block minted by query i, and a query is
    refused — with the budget intact — once the balance runs out.

    The per-round failure probability p1 used for committee sizing assumes
    a bounded number of rounds R (§5.1); the session enforces R.

    A session does not plan: it runs the plan it is handed (from
    [Arboretum.plan] or the service's plan cache) over the inputs it is
    handed, so a query's plan is chosen in one place, the planner. *)

type t

type query_result = {
  report : Exec.report;
  query_index : int;  (** 1-based position in the chain *)
  block_used : string;  (** the randomness block that drove sortition *)
}

val create :
  ?config:Exec.config ->
  ?max_rounds:int ->
  budget:Arb_dp.Budget.t ->
  devices:int ->
  unit ->
  t
(** A session over a device population of [devices] rows. [max_rounds]
    defaults to 1000 (the paper's R). The genesis block comes from the
    trusted setup (§3.1: the aggregator is honest at the start). *)

val budget_left : t -> Arb_dp.Budget.t
val queries_run : t -> int

val run :
  t ->
  db:int array array ->
  plan:Arb_planner.Plan.t ->
  Arb_queries.Registry.query ->
  (query_result, string) result
(** Execute the next query in the chain: [plan], chosen for this query at
    the session's deployment size, over [db], this query's device inputs
    (the same population answering a different question). [Error]
    (leaving the session unchanged — budget, block and index intact) when
    the round limit R is exhausted, when [db] does not have exactly
    [devices] rows, or when execution fails closed. The session does not
    certify or check the budget itself: {!Exec.run_source} certifies the
    query and its key-generation committee refuses a cost the balance
    cannot cover, so those refusals read like every other {!Exec} failure,
    e.g. ["[budget] privacy budget exhausted (session unchanged, budget
    intact)"]. *)

val chain_verifies : t -> bool
(** Every certificate in the chain verifies, and each query's sortition
    block equals the previous certificate's [next_block]. *)
