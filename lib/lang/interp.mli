(** Reference interpreter: the single-machine, cleartext semantics analysts
    write against (§4.1).

    Every distributed plan Arboretum produces must compute the same
    (distributionally, where mechanisms add noise) results as this
    interpreter on the same database — the end-to-end tests rely on that.
    Numbers are ints and 30.16 fixpoints ({!Arb_util.Fixed}); mixing
    promotes to fixpoint, matching the MPC runtime's number format.

    This module is the only code that gives public values a meaning. The
    primitives below are what {!run} is built from, and the runtime's
    interpret stage ([Arb_runtime.Exec]) applies the same primitives to
    every operation whose operands are all public, keeping its own code
    only for secret operands. Each raises {!Runtime_error} where the
    program goes wrong (a bad index, a division by zero, the log of a
    non-positive value, ...); the runtime reports it as an [execute]
    failure. *)

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
    variables [db], [N] (participants), and [C] (row width) are in scope.
    Operands evaluate left to right; [&&] and [||] skip their right side
    once the left decides ({!short_circuit}). *)

val value_to_string : value -> string
val as_int : value -> int
val as_float : value -> float

val truthy : value -> bool
(** The branch a condition takes: a boolean, or a nonzero int. *)

val unop : Ast.unop -> value -> value

val binop : Ast.binop -> value -> value -> value
(** Arithmetic on two ints stays int; otherwise it is fixpoint.
    Comparisons compare as floats. *)

val short_circuit : Ast.binop -> value -> value option
(** [short_circuit op a] is the result of [a op _] when [a] alone decides
    it ([false &&], [true ||]). The right operand must then not run: it
    may draw noise or index past the guard. *)

val builtin : string -> value list -> value
(** A call of any builtin except [laplace], [em], [emGap] and
    [sampleUniform], which draw randomness. *)

val index : value -> int list -> value
(** [index a is] reads the element at path [is]. *)

val update : value -> int list -> value -> value
(** [update a is x] is [a] with the element at path [is] set to [x]; [a]
    itself is unchanged. Arrays grow with [V_int 0] to reach the index
    ({!grow_for_write}), and a non-array is read as the empty array. *)

val grow_for_write : 'a array -> int -> (unit -> 'a) -> 'a array
(** [grow_for_write a i zero] is a copy of [a] that reaches index [i],
    each new entry [zero ()]: how every indexed write, public or secret,
    makes room. An index below 0 or at or above 2^20 is a
    {!Runtime_error}, so no write allocates without bound; 2^20 is far
    above the 2^15 categories of the widest paper instance. *)
