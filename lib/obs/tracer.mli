(** Span-based structured tracer emitting Chrome [trace_event] JSON
    (loadable in [chrome://tracing] or Perfetto).

    Spans nest; {!with_span} records a complete event on the way out even
    when the thunk raises, so failed runs still serialize well-nested.
    Timestamps come from the injected {!Clock.t}: real wall time, simulated
    protocol time, or — in deterministic mode — a logical sequence counter,
    which makes trace bytes a pure function of structure.

    A tracer is meant to be driven from one domain. Parallel stages create
    one {!child} per task and {!graft} the children back in canonical task
    order; the merged trace is then independent of worker scheduling. *)

type t

val create : ?clock:Clock.t -> ?pid:int -> ?tid:int -> unit -> t
val deterministic : t -> bool
val clock : t -> Clock.t

val tid : t -> int
(** The thread id this tracer stamps on its events. Nested parallel stages
    derive collision-free child tids from it (e.g. [tid*100 + i + 1]). *)

val advance : t -> float -> unit
(** Advance a [Simulated] clock by [dt] seconds; a no-op for the other
    clocks, so instrumented code can advance unconditionally. *)

val with_span :
  t ->
  ?cat:string ->
  ?args:(string * Arb_util.Json.t) list ->
  string ->
  (unit -> 'a) ->
  'a

val span_begin :
  t -> ?cat:string -> ?args:(string * Arb_util.Json.t) list -> string -> unit

val span_end : t -> unit
(** Close the innermost open span. Raises if none is open. *)

val add_args : t -> (string * Arb_util.Json.t) list -> unit
(** Append args to the innermost open span (e.g. results computed inside
    it). Ignored when no span is open. *)

val instant :
  t -> ?cat:string -> ?args:(string * Arb_util.Json.t) list -> string -> unit

val child : t -> tid:int -> t
(** A buffer sharing the parent's clock and epoch but writing its own event
    list under its own thread id. Hand one to each parallel task. *)

val graft : t -> t -> unit
(** Append a finished child's events to the parent. In deterministic mode
    the child's logical ticks are spliced at the graft point, so the merged
    sequence depends only on graft order. Raises if the child still has
    open spans. *)

val event_count : t -> int

val to_json : t -> Arb_util.Json.t
(** Chrome trace_event array, ordered by (start, longest-first). *)

val to_string : t -> string
val save : t -> string -> unit

val totals : t -> (string * int * float) list
(** Per-span-name (count, total seconds), hottest first. In
    deterministic mode "seconds" are logical ticks. *)
