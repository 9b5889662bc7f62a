(** The ten evaluation queries (Table 2), written in Arboretum's language.

    The first six are the new queries (five exponential-mechanism queries
    plus secrecy of the sample); the rest are adapted from Honeycrisp
    ([cms]), Orchard ([bayes], [kmedians]) and Böhler–Kerschbaum
    ([median]). Category counts are parameters: the paper's evaluation uses
    C = 2^15 for most categorical queries, C = 115 for bayes, C = 10
    clusters for k-medians and C = 1 for hypotest/cms; tests and the
    small-scale runtime use small C. *)

type query = {
  name : string;
  action : string;  (** the "Action" column of Table 2 *)
  source : string;  (** citation key of the original mechanism *)
  program : Arb_lang.Ast.program;
  categories : int;  (** the C this instance was built with *)
  uses_em : bool;  (** exponential-mechanism query (vs Laplace) *)
  error_tolerance : float option;
      (** analyst-declared relative-error tolerance in (0,1]; [None] means
          exact answers only — the planner never considers approximate
          (sampled/sketched) variants for the query *)
}

val check_tolerance : float option -> (unit, string) result
(** The one rule for [error_tolerance]: absent, or in (0, 1]. The error
    reads ["must be in (0, 1], got TOL"]; each surface prefixes the name it
    knows the field by. *)

val names : string list
(** In Table 2 order: top1, topK, gap, auction, hypotest, secrecy, median,
    cms, bayes, kmedians. *)

val make :
  ?epsilon:float -> ?error_tolerance:float -> name:string -> c:int -> unit -> query
(** Build a query instance for a given category count. [c] is interpreted
    per query (histogram width for top1-like queries, sketch width for cms,
    cluster count for kmedians). Raises [Not_found] for unknown names. *)

val paper_instance : ?epsilon:float -> string -> query
(** The instance with the category count used in §7.1. *)

val test_instance : ?epsilon:float -> string -> query
(** A small instance (C <= 32) suitable for in-process execution. *)

val random_database :
  Arb_util.Rng.t -> query -> n:int -> ?skew:float -> unit -> int array array
(** Synthesize a plausible database for a query: [n] rows matching its row
    shape, with a Zipf-like skew over categories (default 1.1) so argmax
    queries have a meaningful winner. *)

val device_source : seed:int64 -> ?skew:float -> query -> int -> int array
(** [device_source ~seed query] is an indexed row generator: applying it to
    [i] yields device [i]'s row as a pure function of [(seed, i)] (via
    {!Arb_util.Rng.derive}), so any subset of an arbitrarily large
    population can be materialized independently and in any order. Same
    per-row distributions as {!random_database}, different draw sequence.
    Feed it to {!Arb_runtime.Exec.run_source} to run sharded queries
    over populations too large to hold in memory. *)
