(** Differential-privacy certification (§4.2).

    Before planning, Arboretum must certify the submitted query as
    differentially private and derive its sensitivity bound. The paper
    adopts Fuzzi's approach; we implement the analysis that approach rests
    on, specialized to this language: conservative taint tracking from [db]
    (explicit and implicit flows), linear sensitivity propagation, and a
    release rule — only mechanism results ([laplace], [em], [emGap]) or
    values explicitly passed through [declassify] inside a mechanism may
    reach [output]. Queries the analysis cannot certify are rejected (the
    paper notes CertiPriv-style analyst-supplied proofs as an alternative;
    out of scope here).

    Sensitivity is tracked per variable as the worst-case change from
    altering a single participant's row (L∞ over array elements, with the
    one-hot L1 rule for histogram sums), propagated linearly; any
    non-linear combination of tainted values lifts it to infinity, which
    certifies only if the value never reaches a mechanism. Implicit flows:
    branching on a tainted condition taints every variable assigned in
    either branch. *)

type report = {
  certified : bool;
  reason : string option;  (** populated when [certified = false] *)
  cost : Arb_dp.Budget.t;  (** total privacy cost across all mechanism calls *)
  sensitivity : float;  (** max sensitivity feeding any mechanism *)
  mechanism_calls : int;  (** loop-expanded count of laplace/em/emGap calls *)
}

val certify : Ast.program -> n:int -> report
(** Analyze the program for a deployment of [n] participants (loop bounds
    must be static, as in {!Types.infer}). Never raises on analysis
    failure — returns [certified = false] with a reason. A population [n]
    or a row width below 1 is refused so. *)

val check : Ast.program -> n:int -> (report, string) result
(** [Ok report] only when certified. *)
