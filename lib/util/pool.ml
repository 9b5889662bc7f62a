(* One process-wide pool of parked helper domains.

   A fan-out posts a job (a participant loop dealing indices from a shared
   counter) with [workers - 1] open seats, runs the loop itself on the
   calling domain, then closes the seats and waits only for the helpers
   that actually joined. A helper that wakes after the seats closed goes
   straight back to sleep, so a short job never waits on a slow wake-up.

   Helpers are spawned on first demand and never exit: a fresh domain
   faults in its minor heap and its per-domain scratch (Bgv workspaces,
   say) as it allocates, which costs more than the work of a small job.
   Only one fan-out owns the pool at a time; a fan-out that finds it owned
   (a nested call from inside a job, or a concurrent one from another
   domain) runs its indices on the calling domain. Every result lands at
   its own index, so the outcome does not depend on which domain ran it. *)

type job = { work : slot:int -> unit; mutable seats : int; mutable next_slot : int }

let lock = Mutex.create ()
let wake = Condition.create () (* a job was posted *)
let left = Condition.create () (* a helper left its job *)
let owned = ref false (* a fan-out owns the pool; guarded by [lock] *)
let current : job option ref = ref None
let inside = ref 0 (* helpers running the current job *)
let spawned = ref 0 (* touched only by the owner *)

let rec helper () =
  Mutex.lock lock;
  let rec seat () =
    match !current with
    | Some job when job.seats > 0 ->
        job.seats <- job.seats - 1;
        let slot = job.next_slot in
        job.next_slot <- slot + 1;
        (job, slot)
    | _ ->
        Condition.wait wake lock;
        seat ()
  in
  let job, slot = seat () in
  incr inside;
  Mutex.unlock lock;
  (* [work] records its own exceptions, so it always returns here. *)
  job.work ~slot;
  Mutex.lock lock;
  decr inside;
  if !inside = 0 then Condition.broadcast left;
  Mutex.unlock lock;
  helper ()

let sequential n f =
  for i = 0 to n - 1 do
    f ~slot:0 i
  done

let run ~workers n f =
  if workers <= 1 || n <= 1 then sequential n f
  else if not (Mutex.protect lock (fun () -> not !owned && (owned := true; true)))
  then sequential n f
  else begin
    (* Only the owner spawns, so [spawned] cannot move under us. A new
       domain starts with the runtime's initial minor heap, not the one
       [Gc.set] gave its spawner; a helper adopts the spawner's. Past the
       runtime's domain limit the job runs on the helpers there are: the
       results do not depend on how many domains compute them. *)
    let minor_words = (Gc.get ()).Gc.minor_heap_size in
    (try
       while !spawned < min workers n - 1 do
         ignore
           (Domain.spawn (fun () ->
                let gc = Gc.get () in
                if gc.Gc.minor_heap_size <> minor_words then
                  Gc.set { gc with Gc.minor_heap_size = minor_words };
                helper ()));
         incr spawned
       done
     with Failure _ -> ());
    let want = min (min workers n - 1) !spawned in
    let next = Atomic.make 0 in
    (* The lowest failing index so far (n while none): indices are dealt in
       increasing order, so every index below it was dealt already and
       runs to completion, and the one re-raised is the lowest failing
       index overall whatever the scheduling. *)
    let stop = Atomic.make n in
    let failure = ref None in
    let fail i e bt =
      Mutex.protect lock (fun () ->
          match !failure with
          | Some (j, _, _) when j < i -> ()
          | _ ->
              failure := Some (i, e, bt);
              Atomic.set stop i)
    in
    let work ~slot =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Atomic.get stop then begin
          (try f ~slot i with e -> fail i e (Printexc.get_raw_backtrace ()));
          go ()
        end
      in
      go ()
    in
    let job = { work; seats = want; next_slot = 1 } in
    Mutex.protect lock (fun () ->
        current := Some job;
        Condition.broadcast wake);
    work ~slot:0;
    Mutex.protect lock (fun () ->
        job.seats <- 0;
        while !inside > 0 do
          Condition.wait left lock
        done;
        current := None;
        owned := false);
    match !failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let map ~workers n f =
  let out = Array.make n None in
  run ~workers n (fun ~slot:_ i -> out.(i) <- Some (f i));
  Array.map (function Some v -> v | None -> assert false) out
