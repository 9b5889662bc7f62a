(** Workload files: a scripted stream of analyst submissions for
    [arb serve].

    A workload is versioned JSON ({!Arb_planner.Plan_io.format_version}):

    {v
    { "formatVersion": 2,
      "budget":  { "epsilon": 3.0, "delta": 1e-6 },
      "devices": 64,
      "seed":    7,
      "epochs":  6,
      "queries": [
        { "query": "top1", "epsilon": 0.5 },
        { "query": "median", "epsilon": 0.4, "categories": 16,
          "goal": "part-exp-time", "repeat": 3, "tolerance": 0.05 },
        { "query": "top1", "epsilon": 0.5, "every": 1,
          "window": { "epochs": 24, "epsilon": 12.0, "delta": 0.01 } }
      ] }
    v}

    [budget], [devices] and [seed] are defaults the CLI may override;
    per-query [categories] defaults to the registry's small test instance
    (execution runs in-process), [goal] to minimizing expected participant
    time, [repeat] to 1.

    Entries with [every] are {e recurring}: the continual engine re-submits
    them every [every] epochs instead of running them once, optionally
    under a sliding-window budget ([window]). [epochs] is the default
    number of epochs [arb serve] drives for such a workload. *)

type window_spec = {
  w_epochs : int;  (** sliding-window horizon, in epochs *)
  w_budget : Arb_dp.Budget.t;  (** spend limit over any [w_epochs] window *)
  w_compose : int option;
      (** composition horizon: worst-case number of live charges the
          session advertises its composed privacy loss for; must fit in
          the window ([<= w_epochs]) *)
}

type submission = {
  query : string;  (** registry name (see [arb list]) *)
  epsilon : float;
  categories : int option;
  goal : Arb_planner.Constraints.goal;
  repeat : int;  (** submit this many consecutive copies *)
  every : int option;  (** recurring: re-submit every [every] epochs *)
  window : window_spec option;  (** sliding-window budget (recurring only) *)
  tolerance : float option;
      (** analyst error tolerance in (0, 1]: opts the query into the
          planner's approximate (sampled/sketched) variants; rejected at
          load when outside the range *)
}

type t = {
  budget : Arb_dp.Budget.t option;
  devices : int option;
  seed : int option;
  epochs : int option;  (** default epoch count for recurring workloads *)
  submissions : submission list;  (** in file order, [repeat] not expanded *)
}

type recurring_error =
  | Bad_every of { query : string; every : int }
  | Bad_window_epochs of { query : string; epochs : int }
  | Bad_compose of { query : string; compose : int }
  | Window_below_compose of { query : string; epochs : int; compose : int }
  | Window_without_every of { query : string }
  | Recurring_repeat of { query : string; repeat : int }
      (** Malformed recurring specs, caught at load/registration time so a
          bad workload file fails before the serve loop starts. *)

val recurring_error_message : recurring_error -> string
(** A one-line, CLI-ready description. *)

val validate_recurring : submission -> (unit, recurring_error) result
(** Ok for one-shot submissions and well-formed recurring ones. Rejects
    [every <= 0], window horizons below 1, composition horizons that are
    non-positive or exceed the window, windows without [every], and
    recurring entries with [repeat <> 1]. *)

val is_recurring : submission -> bool

val expand : t -> submission list
(** One-shot entries in file order with [repeat] expanded into consecutive
    copies ([repeat = 1] each). Recurring entries are excluded — they are
    the continual engine's to schedule. *)

val recurring : t -> submission list
(** Recurring entries in file order. *)

val goal_names : (string * Arb_planner.Constraints.goal) list
(** CLI-facing goal spellings: part-exp-time, part-max-time,
    part-exp-bytes, part-max-bytes, agg-time, agg-bytes. *)

val submission_of_json : Arb_util.Json.t -> (submission, string) result
(** One query entry (the element shape of ["queries"]) — also the request
    body of the HTTP front door's [POST /v1/queries]. Recurring fields are
    validated with {!validate_recurring}; the [Error] carries
    {!recurring_error_message}. *)

val submission_to_json : submission -> Arb_util.Json.t

val of_json : Arb_util.Json.t -> (t, string) result
val to_json : t -> Arb_util.Json.t
(** [to_json] emits the fields without the [formatVersion] envelope
    (callers wrap with {!Arb_planner.Plan_io.save_versioned}). *)

val load : string -> (t, string) result
(** Read a workload file; [Error] on unreadable paths, malformed JSON,
    version mismatches, unknown goals, non-positive repeat counts, or
    malformed recurring specs. *)

val save : string -> t -> unit
