(** Self-calibrating cost model: fit {!Cost_model} constants from observed
    predicted-vs-measured residuals (DESIGN.md §14).

    Every executed plan yields ground truth — simulated committee
    wall-clock per kind, per-member MPC bytes, device upload bytes — that
    {!Arb_runtime.Exec.cost_samples} pairs with the cost model's
    per-section predictions. The service records those pairs into its
    metrics registry ({!record}) and, with a store directory, appends them
    to the residual log ({!append}), one line per execution;
    {!fit_snapshots} folds the log back into a per-section multiplicative
    correction and applies it to a base model, producing a {e versioned}
    calibration: constants, a content fingerprint, and provenance (runs
    used, residual error before/after, per-section scales).

    The model orders candidate plans rather than predicting wall-clock
    (§4.6), so a per-section ratio fit is exactly the right strength: it
    aligns the model's relative weights with what execution actually
    charges without inventing precision the simulation cannot support. *)

type section_fit = {
  s_section : string;
  s_samples : int;  (** (run, section) pairs that informed the scale *)
  s_scale : float;  (** measured / predicted *)
  s_err_before : float;  (** mean relative error of the base model *)
  s_err_after : float;  (** same, after applying [s_scale] *)
}

type provenance = {
  p_runs : int;  (** executions contributing at least one sample *)
  p_skipped : int;
      (** residual-log lines skipped: torn, malformed, or priced under a
          model other than the base *)
  p_base : string;  (** fingerprint of the base model the fit scaled *)
  p_err_before : float;  (** mean relative error across all samples *)
  p_err_after : float;
  p_sections : section_fit list;
}

type t = {
  version : int;
  constants : Cost_model.t;
  fingerprint : string;  (** {!Cost_model.fingerprint} of [constants] *)
  provenance : provenance;
}

val current_version : int

(** Why a calibration file was rejected. Loaders fall back to
    {!Cost_model.default} via {!load_or_default}; the error stays typed so
    surfaces can report exactly what happened. *)
type error =
  | Unreadable of { path : string; reason : string }
  | Malformed of { path : string; reason : string }
  | Future_version of { path : string; found : int; supported : int }

val error_message : error -> string

val default : t
(** {!Cost_model.default} under its own fingerprint, empty provenance. *)

val make : ?provenance:provenance -> Cost_model.t -> t
(** Wrap constants as a current-version calibration (fingerprint derived). *)

val to_json : t -> Arb_util.Json.t
val of_json : ?path:string -> Arb_util.Json.t -> (t, error) result
(** Rejects versions newer than {!current_version} ([Future_version]) and
    payloads whose stored fingerprint does not match the constants
    ([Malformed]). *)

val save : string -> t -> unit
val load : string -> (t, error) result

val load_or_default : string -> t * error option
(** {!load}, demoting every failure to {!default} with the typed error. *)

(** {2 Recording and fitting residuals} *)

val sections : string list
(** The fixed section keys ({!Cost_model.section_costs} order). *)

val record : Arb_obs.Metrics.t -> (string * float * float) list -> unit
(** Accumulate (section, predicted, measured) pairs from one executed plan
    into a registry: [arb_cal_predicted_total]/[arb_cal_measured_total]
    counters per section plus an [arb_cal_residual_rel] histogram of
    relative errors. Deterministic given the same executions. *)

val fit :
  ?base:Cost_model.t ->
  runs:(string * float * float) list list ->
  unit ->
  (t, string) result
(** Fit per-section scales [sum measured / sum predicted] over one sample
    list per run, apply them to [base] (default {!Cost_model.default}),
    and wrap the result with provenance. [Error] when no run carries a
    usable sample. *)

val append :
  dir:string -> model:string -> (string * float * float) list ->
  (unit, string) result
(** Append one execution's samples, with the fingerprint of the model that
    priced them, as one line of [dir/residuals.jsonl], creating [dir] as
    needed. The line goes out in one [write] on an [O_APPEND] descriptor,
    so concurrent writers interleave whole lines. [Error] carries the
    reason the line could not be written. *)

val fit_snapshots :
  ?base:Cost_model.t -> dir:string -> unit -> (t, string) result
(** {!fit} over [dir]'s residual log, one run per line, using only the
    lines priced under [base] (by fingerprint). Torn or malformed lines
    and lines priced under another model are skipped and counted in
    [p_skipped]. *)
