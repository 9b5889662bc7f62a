(** Metrics registry: named counters, gauges, and fixed-bucket histograms
    with Prometheus-style text exposition and canonical JSON export.

    Instruments are keyed by (name, sorted labels) and registration is
    idempotent: asking for an existing instrument returns the same cell.
    Mutation is mutex-protected, so handles may be bumped from worker
    domains. Exposition is sorted by (name, labels): two registries holding
    the same values serialize to identical bytes, which is what the
    deterministic-mode canonicality properties check. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  buckets:float list ->
  string ->
  histogram
(** [buckets] are strictly increasing, finite upper bounds; a trailing +Inf
    overflow bucket is implicit. Re-registering the same name with
    different buckets raises [Invalid_argument]. *)

val inc : ?by:float -> counter -> unit
(** Counters only move forward: negative or non-finite [by] raises. *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Underflow observations land in the first bucket, overflow in the +Inf
    bucket; non-finite observations raise. *)

(** One-shot forms (register + mutate) for end-of-run publishing. *)

val add : t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit
val set_gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit

val observe_in :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  buckets:float list ->
  string ->
  float ->
  unit

val latency_buckets : float list
(** Default seconds-scale latency buckets (1 ms … 60 s). *)

val size_buckets : float list
(** Default bytes-scale buckets (64 B … 1 MiB, powers of four) for
    message-size histograms such as the HTTP front door's request and
    response bytes. *)

val to_prometheus : t -> string
(** Prometheus text exposition format, canonically ordered. *)

val to_json : t -> Arb_util.Json.t
(** Canonical JSON rendering of every instrument, same order as the text
    form. *)

val save : t -> string -> unit
(** Write [to_prometheus] to a file. *)

val histogram_quantile :
  t -> ?labels:(string * string) list -> string -> float -> float option
(** [histogram_quantile t name q] estimates the [q]-quantile (e.g. [0.95])
    of a registered histogram by Prometheus-style linear interpolation
    inside the covering bucket. Ranks landing in the +Inf overflow bucket
    clamp to the highest finite bound; an all-underflow histogram
    interpolates inside [0, first bound]. [None] when the histogram does
    not exist or holds no observations; [q] outside [0, 1] raises. *)

val value_at : t -> ?labels:(string * string) list -> string -> float option
(** Current value of a counter or gauge series, if registered. *)

val label_values : t -> string -> label:string -> string list
(** Sorted distinct values a label takes across a name's series. *)
