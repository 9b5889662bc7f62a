(** A process-wide pool of parked helper domains for index fan-outs.

    Helpers are spawned on first demand and then parked between jobs, so a
    fan-out pays a condition-variable wake-up rather than a domain spawn,
    and a helper reuses the minor heap and per-domain scratch it faulted in
    on earlier jobs. The pool grows to the largest [workers] it is asked
    for (up to the runtime's domain limit); there is no size option.

    Only one fan-out owns the pool at a time. A fan-out that finds it owned
    — a nested call from inside a job, or a concurrent call from another
    domain — runs all of its indices on the calling domain. Callers write
    each result at its own index, so the outcome is the same either way.

    A helper adopts the minor heap size of the domain that spawned it and
    keeps it: a program that sizes its minor heap with [Gc.set] should do
    so before its first fan-out. *)

val run : workers:int -> int -> (slot:int -> int -> unit) -> unit
(** [run ~workers n f] calls [f ~slot i] once for every [i] in [0, n), on
    the calling domain and up to [workers - 1] helpers, dealing indices in
    increasing order from a shared counter. [slot] names the participant
    making the call: 0 is the calling domain, helpers get [1 .. workers - 1].
    Calls with the same slot never overlap, so per-slot accumulators need no
    lock. With [workers <= 1] or [n <= 1] every call runs on the calling
    domain, in index order.

    [run] returns only after every helper has left the job. If any call
    raises, indices above the lowest failing one are no longer dealt, and
    the exception of the lowest failing index is re-raised (with its
    backtrace) — the same exception a sequential loop would raise. [f] must
    be safe to run concurrently with itself: it may write state owned by
    its index or its slot, but no other shared mutable state, and no shared
    RNG. *)

val map : workers:int -> int -> (int -> 'a) -> 'a array
(** [map ~workers n f] is [Array.init n f] computed with {!run}. The result
    array is built from index 0's value; above 256 elements the runtime
    empties the minor heap first when that value is freshly allocated, so
    long fan-outs on hot paths should {!run} into an array of their own
    created from a constant. *)
