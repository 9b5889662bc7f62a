(** Deterministic sketching helpers for the approximate plan variants and
    the continual engine's bounded quantile state. All functions are pure,
    so sketch contents are identical across workers and cohort geometries. *)

val cms_bucket : row:int -> width:int -> int -> int
(** [cms_bucket ~row ~width item] is the column [item] hashes to in row
    [row] of a count-min sketch of the given width, in [\[0, width)].
    Rows hash independently. Raises [Invalid_argument] if [width <= 0]. *)

val cms_estimate : depth:int -> width:int -> float array -> int -> float
(** Count-min point estimate for [item]: the minimum over the [depth] rows
    of the counter it hashes to. [counters] is row-major,
    [depth * width] long. *)

val coarsen : groups:int -> int array -> int array
(** Coarsen a histogram to [groups] groups of adjacent bins: each group's
    total mass lands on its first bin and the other bins zero. The result
    keeps the input's width. [groups >= length] returns a copy. *)

val merge_bounded : capacity:int -> float list -> float list -> float list
(** [merge_bounded ~capacity samples xs] merges [xs] into the sorted list
    [samples] and decimates until at most [capacity] elements remain. *)
