(** Reference interpreter: the single-machine, cleartext semantics analysts
    write against (§4.1).

    Every distributed plan Arboretum produces must compute the same
    (distributionally, where mechanisms add noise) results as this
    interpreter on the same database — the end-to-end tests rely on that.
    Numbers are ints and 30.16 fixpoints ({!Arb_util.Fixed}); mixing
    promotes to fixpoint, matching the MPC runtime's number format. *)

type value =
  | V_int of int
  | V_fix of Arb_util.Fixed.t
  | V_bool of bool
  | V_arr of value array

exception Runtime_error of string

val run :
  Ast.program ->
  db:int array array ->
  ?sensitivity:float ->
  Arb_util.Rng.t ->
  value list
(** Execute a query against a cleartext database (one row per participant).
    Returns the outputs in order. [sensitivity] defaults to the certified
    sensitivity of the row shape (1.0 for one-hot rows). The predefined
    variables [db], [N] (participants), and [C] (row width) are in scope. *)

val value_to_string : value -> string
val as_int : value -> int
val as_float : value -> float
