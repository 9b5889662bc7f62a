(** Basic type and value-range inference (§4.4).

    Assigns every variable and expression a basic type ([int], [fix] or
    [bool]), an array shape, and a conservative value range; the planner's
    encryption-type inference uses the ranges to pick cryptosystem
    parameters (e.g. a plaintext modulus large enough for the biggest sum).
    Ranges follow {!Arb_util.Interval}: the bounds of [a*b] are corner
    products, loops are joined to a fixpoint with widening. *)

type base = Ty_int | Ty_fix | Ty_bool

type ty = {
  base : base;
  range : Arb_util.Interval.t;  (** element-wise for arrays *)
  dims : int list;  (** \[\] scalar; \[k\] vector; \[n; k\] matrix *)
}

exception Type_error of string

type env
(** Variable typing environment after inference. *)

val infer : Ast.program -> n:int -> env
(** Run inference for a deployment of [n] participants. Loop bounds must be
    statically evaluable (literals, [N], [C], loop variables and arithmetic
    on them). Raises [Type_error] on ill-typed programs. *)

val lookup : env -> string -> ty option

val range_of : env -> Ast.expr -> Arb_util.Interval.t option
(** Range of an expression under the final (post-fixpoint) environment —
    conservative, used by the certifier to bound untainted multipliers.
    [None] if the expression is ill-typed or array-valued. *)

val static_eval_expr : env -> Ast.expr -> int option
(** Evaluate a statically constant integer expression (loop bounds). *)

val plaintext_bits_needed : env -> int
(** Bits needed to represent every integer value occurring in the program —
    the driver for the BGV plaintext-modulus choice. *)

val max_category_count : env -> int
(** Largest vector length flowing through the program (e.g. the histogram
    width) — drives ciphertext packing. *)
