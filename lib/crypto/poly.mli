(** Dense polynomials over Z_p, as coefficient arrays of fixed length n.

    Thin helpers shared by the BGV cryptosystem and tests. All arrays have
    the ring dimension as their length. The [_into] variants write into a
    caller-supplied destination (which may alias an input) so hot loops
    allocate nothing; the plain variants allocate fresh arrays. *)

val add : Field.t -> int array -> int array -> int array
val sub : Field.t -> int array -> int array -> int array
val neg : Field.t -> int array -> int array
val scale : Field.t -> int -> int array -> int array

val add_into : Field.t -> dst:int array -> int array -> int array -> unit
val sub_into : Field.t -> dst:int array -> int array -> int array -> unit
val neg_into : Field.t -> dst:int array -> int array -> unit
val scale_into : Field.t -> dst:int array -> int -> int array -> unit

val mul_naive : Field.t -> int array -> int array -> int array
(** Quadratic negacyclic product — the test oracle for the NTT path. *)

val random_uniform : Field.t -> Arb_util.Rng.t -> int -> int array
(** Uniform coefficients. *)

val equal : int array -> int array -> bool
(** Structural equality on coefficient arrays (explicitly monomorphic on
    [int array] — no polymorphic compare). *)
