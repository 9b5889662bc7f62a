module B = Arb_dp.Budget
module Q = Arb_queries.Registry
module P = Arb_planner
module R = Arb_runtime

let src = Logs.Src.create "arb.service" ~doc:"Multi-tenant analytics service"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  session : R.Session.t;
  cache : Cache.t;
  devices : int;
  seed : int;
  metrics : Arb_obs.Metrics.t option;
  snapshots : string option;
      (* the residual log's directory: one line per execution (DESIGN.md §14) *)
  sim_m : int;
      (* executed committee size (exec config), the m calibration samples
         are priced at *)
  mutable calibration : P.Calibration.t;
      (* the cost model pricing cold plans; guarded by [lock] *)
  lock : Mutex.t;
      (* guards queue / next_index / history / committed / holds: HTTP
         handlers submit and poll from worker domains concurrently with
         drains *)
  drain_lock : Mutex.t;
      (* serializes whole drains — execution is inherently ordered on the
         certificate chain, so two concurrent drains would be a bug *)
  mutable queue : (int * float * queued) list;
      (* newest first; the float is the enqueue time (queue-wait metric) *)
  mutable next_index : int;
  mutable history : Lifecycle.record list;  (* newest first *)
  mutable committed : B.t;
      (* the session balance as of the last settle *)
  mutable holds : (int * B.t) list;
      (* (index, certified cost) of every admitted submission not yet
         settled, newest first *)
}

(* What admission decided for one queued copy. *)
and queued = Refusal of Lifecycle.record | Admitted of pending_query

(* An admitted submission's progress through the pipeline. *)
and pending_query = {
  p_index : int;
  p_sub : Workload.submission;
  p_query : Q.query;
  p_cost : B.t;  (* the certified cost its hold reserves *)
  p_admit_s : float;
  mutable p_key : Cache.key;  (* keyed by the drain, under its model *)
  mutable p_hit : bool;
  mutable p_plan_s : float;
}

let create ?exec_config ?cache ?metrics ?calibration ?snapshots ~budget
    ~devices ~seed () =
  {
    session = R.Session.create ?config:exec_config ~budget ~devices ();
    cache = (match cache with Some c -> c | None -> Cache.create ());
    devices;
    seed;
    metrics;
    snapshots;
    sim_m =
      (match exec_config with
      | Some c -> c.R.Exec.committee_size
      | None -> R.Exec.default_config.R.Exec.committee_size);
    calibration =
      (match calibration with Some c -> c | None -> P.Calibration.default);
    lock = Mutex.create ();
    drain_lock = Mutex.create ();
    queue = [];
    next_index = 0;
    history = [];
    committed = budget;
    holds = [];
  }

let pending t = Mutex.protect t.lock (fun () -> List.length t.queue)

let calibration t = Mutex.protect t.lock (fun () -> t.calibration)
let calibration_fingerprint t = (calibration t).P.Calibration.fingerprint

let set_calibration t calib =
  let changed =
    Mutex.protect t.lock (fun () ->
        let changed =
          t.calibration.P.Calibration.fingerprint
          <> calib.P.Calibration.fingerprint
        in
        t.calibration <- calib;
        changed)
  in
  if changed then begin
    Log.info (fun f ->
        f "calibration %s installed"
          (String.sub calib.P.Calibration.fingerprint 0 12));
    Option.iter
      (fun reg ->
        Arb_obs.Metrics.add reg
          ~help:"Calibration installs that changed the fingerprint"
          "arb_service_calibration_installs_total" 1.0)
      t.metrics
  end;
  changed

type refusal =
  | Queue_full of int  (** the bound it hit *)
  | Over_budget of string

let resolve (s : Workload.submission) =
  match
    match s.Workload.categories with
    | Some c -> Q.make ~epsilon:s.Workload.epsilon ~name:s.Workload.query ~c ()
    | None -> Q.test_instance ~epsilon:s.Workload.epsilon s.Workload.query
  with
  | exception Not_found -> None
  | q -> Some { q with Q.error_tolerance = s.Workload.tolerance }

let certify t query = Arb_lang.Certify.certify query.Q.program ~n:t.devices

let certified_cost t s =
  Option.bind (resolve s) (fun query ->
      let cert = certify t query in
      if cert.Arb_lang.Certify.certified then Some cert.Arb_lang.Certify.cost
      else None)

let refusal_message = function
  | Queue_full bound ->
      Printf.sprintf "submission queue is full (bound %d), retry later" bound
  | Over_budget m -> m

(* A per-submission RNG seed for database synthesis, derived off the
   service seed the same way the session derives execution seeds off the
   block chain. *)
let db_seed ~seed ~index =
  Arb_crypto.Sha256.seed_of (Printf.sprintf "arb-serve-db:%d:%d" seed index)

let now () = Unix.gettimeofday ()

let refusal_record ~index ~(sub : Workload.submission) ~categories ~cost
    ~balance ~admit_s reason =
  {
    Lifecycle.index;
    query = sub.Workload.query;
    categories;
    epsilon = sub.Workload.epsilon;
    cache_key = "";
    cache_hit = false;
    cost;
    budget_before = balance;
    budget_after = balance;
    status = Lifecycle.Refused reason;
    timings = { Lifecycle.admit_s; plan_s = 0.0; exec_s = 0.0 };
  }

let exhausted ~need ~have =
  Format.asprintf "admission: privacy budget exhausted (need %a, have %a)"
    B.pp need B.pp have

(* The committed balance less every unsettled hold, charged oldest first:
   the same sequential arithmetic the session applies as the holds
   settle. Holds were admitted against exactly this arithmetic, so the
   fallback is unreachable. *)
let available_locked t =
  List.fold_right
    (fun (_, hold) balance ->
      Option.value (B.charge balance ~cost:hold) ~default:B.zero)
    t.holds t.committed

let try_submit ?max_queue ?(check_budget = true) t (s : Workload.submission) =
  (* The lock-free half: resolve, check the tolerance and certify.
     Submissions that fail here are still enqueued, as refusal records,
     so every path produces the same canonical lifecycle record. *)
  let t0 = now () in
  let verdict =
    match resolve s with
    | None ->
        Error (0, Printf.sprintf "unknown query %S (see `arb list`)" s.Workload.query)
    | Some query -> (
        let categories = query.Q.categories in
        match Q.check_tolerance s.Workload.tolerance with
        | Error m -> Error (categories, "tolerance " ^ m)
        | Ok () ->
            let cert = certify t query in
            if not cert.Arb_lang.Certify.certified then
              Error
                ( categories,
                  "certification failed: "
                  ^ Option.value cert.Arb_lang.Certify.reason ~default:"?" )
            else Ok (query, cert.Arb_lang.Certify.cost))
  in
  (* Under the lock, each copy either becomes a refusal record or holds
     its certified cost against the available balance. *)
  Mutex.protect t.lock (fun () ->
      let first = t.next_index and enq = now () in
      let sub = { s with Workload.repeat = 1 } in
      let have = available_locked t in
      let available = ref have and holds = ref t.holds and short = ref None in
      let admit index =
        let refuse ?(cost = B.zero) categories reason =
          Refusal
            (refusal_record ~index ~sub ~categories ~cost ~balance:!available
               ~admit_s:(now () -. t0) reason)
        in
        match verdict with
        | Error (categories, reason) -> refuse categories reason
        | Ok (query, cost) -> (
            match B.charge !available ~cost with
            | None ->
                short := Some cost;
                refuse ~cost query.Q.categories
                  (exhausted ~need:cost ~have:!available)
            | Some rest ->
                available := rest;
                holds := (index, cost) :: !holds;
                Admitted
                  {
                    p_index = index;
                    p_sub = sub;
                    p_query = query;
                    p_cost = cost;
                    p_admit_s = now () -. t0;
                    p_key = "";
                    p_hit = false;
                    p_plan_s = 0.0;
                  })
      in
      let entries = List.init s.Workload.repeat (fun k -> admit (first + k)) in
      match (max_queue, !short) with
      | Some bound, _ when List.length t.queue + s.Workload.repeat > bound ->
          Error (Queue_full bound)
      | _, Some cost when check_budget ->
          Error
            (Over_budget
               (exhausted
                  ~need:(B.scale cost (float_of_int s.Workload.repeat))
                  ~have))
      | _ ->
          t.holds <- !holds;
          List.iteri (fun k e -> t.queue <- (first + k, enq, e) :: t.queue) entries;
          t.next_index <- first + s.Workload.repeat;
          Ok first)

let submit t s = Result.get_ok (try_submit ~check_budget:false t s)

(* Settle the holds of every index [settled] accepts: the session balance
   already carries what their executions charged (nothing, for a failed
   one), so dropping the holds returns whatever they reserved beyond
   that to the available balance. *)
let settle t settled =
  Mutex.protect t.lock (fun () ->
      t.committed <- R.Session.budget_left t.session;
      t.holds <- List.filter (fun (i, _) -> not (settled i)) t.holds)

let drain ?tracer ?(workers = 1) t =
  Mutex.protect t.drain_lock @@ fun () ->
  let batch =
    Mutex.protect t.lock (fun () ->
        let b = List.rev t.queue in
        t.queue <- [];
        b)
  in
  (* Earlier drains settled all of their holds, so every hold up to this
     batch's last index is this batch's. A drain that raises releases
     the ones it had not settled. *)
  let last = List.fold_left (fun m (i, _, _) -> max m i) (-1) batch in
  Fun.protect ~finally:(fun () -> settle t (fun i -> i <= last)) @@ fun () ->
  (* Wall-clock metrics (queue wait, latency histograms) are suppressed
     when tracing deterministically, so the metrics bytes reproduce too. *)
  let timed =
    match tracer with
    | Some tr -> not (Arb_obs.Tracer.deterministic tr)
    | None -> true
  in
  let spn ?args name f =
    match tracer with
    | None -> f ()
    | Some tr -> Arb_obs.Tracer.with_span tr ~cat:"service" ?args name f
  in
  spn
    ~args:[ ("submissions", Arb_util.Json.Int (List.length batch)) ]
    "drain"
  @@ fun () ->
  (match t.metrics with
  | Some reg when timed ->
      let drain_t0 = now () in
      List.iter
        (fun (_, enq, _) ->
          Arb_obs.Metrics.observe_in reg
            ~help:"Seconds submissions waited in the queue before draining"
            ~buckets:Arb_obs.Metrics.latency_buckets
            "arb_service_queue_wait_seconds"
            (Float.max 0.0 (drain_t0 -. enq)))
        batch
  | _ -> ());
  let n = t.devices in
  (* One cost model per drain: keys, cold plans and residual samples in
     this batch all see the same calibration even if an install lands
     mid-drain. *)
  let calib = calibration t in
  let cm = calib.P.Calibration.constants in
  (* ---- stage 1: keying and cache labeling, in submission order ---- *)
  let cold = ref [] (* (key, query, goal) newest first *) in
  let cold_keys : (Cache.key, unit) Hashtbl.t = Hashtbl.create 16 in
  let refused, admitted =
    spn "admit" (fun () ->
        List.partition_map
          (fun (_, _, entry) ->
            match entry with
            | Refusal r -> Left r
            | Admitted p ->
                p.p_key <-
                  Cache.key ~model:calib.P.Calibration.fingerprint
                    ~goal:p.p_sub.Workload.goal ~query:p.p_query ~n ();
                p.p_hit <-
                  Cache.mem t.cache p.p_key || Hashtbl.mem cold_keys p.p_key;
                if not p.p_hit then begin
                  Hashtbl.add cold_keys p.p_key ();
                  cold := (p.p_key, p.p_query, p.p_sub.Workload.goal) :: !cold
                end;
                Right p)
          batch)
  in
  (* ---- stage 2: plan the distinct misses across the worker pool ---- *)
  let tasks = Array.of_list (List.rev !cold) in
  let slots = Array.make (Array.length tasks) None in
  (* Each cold plan searches under its own child tracer, grafted back in
     canonical task order after the pool drains — trace bytes independent
     of the worker count. Child tids are spaced so the search's own
     per-(crypto × bins) children cannot collide across tasks. *)
  let children =
    match tracer with
    | None -> Array.map (fun _ -> None) tasks
    | Some tr ->
        Array.mapi
          (fun i _ ->
            Some
              (Arb_obs.Tracer.child tr
                 ~tid:((Arb_obs.Tracer.tid tr * 100) + i + 1)))
          tasks
  in
  let pool = max 1 (min workers (Array.length tasks)) in
  Arb_util.Pool.run ~workers:pool (Array.length tasks) (fun ~slot:_ i ->
      let _, query, goal = tasks.(i) in
      slots.(i) <-
        Some
          (P.Search.plan ~cm ~goal ~limits:P.Constraints.no_limits
             ?tracer:children.(i) ?metrics:t.metrics ~query ~n ()));
  (match tracer with
  | Some tr -> Array.iter (Option.iter (Arb_obs.Tracer.graft tr)) children
  | None -> ());
  Log.info (fun f ->
      f "planned %d cold quer%s on %d worker%s (%d submissions, %d cache hits)"
        (Array.length tasks)
        (if Array.length tasks = 1 then "y" else "ies")
        pool
        (if pool = 1 then "" else "s")
        (List.length batch)
        (List.length (List.filter (fun p -> p.p_hit) admitted)));
  (* Commit results in canonical task order so the cache (and its on-disk
     form) is independent of domain scheduling. *)
  let plan_failed : (Cache.key, string) Hashtbl.t = Hashtbl.create 4 in
  let plan_elapsed : (Cache.key, float) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i (key, query, _) ->
      match slots.(i) with
      | None -> assert false
      | Some r -> (
          Hashtbl.replace plan_elapsed key
            r.P.Search.stats.P.Search.elapsed;
          match (r.P.Search.plan, r.P.Search.metrics) with
          | Some plan, Some metrics ->
              Cache.add t.cache key ~query_name:query.Q.name
                { Cache.plan; metrics; cols = query.Q.categories }
          | _ ->
              Hashtbl.replace plan_failed key
                "planner found no plan for this query"))
    tasks;
  (* ---- stage 3: execute serially, in submission order ---- *)
  let executed =
    List.map
      (fun p ->
        spn
          ~args:
            [
              ("index", Arb_util.Json.Int p.p_index);
              ("query", Arb_util.Json.String p.p_sub.Workload.query);
              ( "path",
                Arb_util.Json.String (if p.p_hit then "hit" else "cold") );
            ]
          "execute"
        @@ fun () ->
        let sub = p.p_sub in
        p.p_plan_s <-
          (if p.p_hit then 0.0
           else Option.value ~default:0.0 (Hashtbl.find_opt plan_elapsed p.p_key));
        let balance = R.Session.budget_left t.session in
        let finish ?(cache_hit = p.p_hit) ?(exec_s = 0.0) ?(cost = p.p_cost)
            ~budget_after status =
          {
            Lifecycle.index = p.p_index;
            query = sub.Workload.query;
            categories = p.p_query.Q.categories;
            epsilon = sub.Workload.epsilon;
            cache_key = p.p_key;
            cache_hit;
            cost;
            budget_before = balance;
            budget_after;
            status;
            timings =
              {
                Lifecycle.admit_s = p.p_admit_s;
                plan_s = p.p_plan_s;
                exec_s;
              };
          }
        in
        (* Whatever happens below, the session balance ends up carrying
           this submission's charge or nothing, so its hold settles. *)
        Fun.protect ~finally:(fun () -> settle t (( = ) p.p_index))
        @@ fun () ->
        match Hashtbl.find_opt plan_failed p.p_key with
        | Some reason ->
            finish ~cache_hit:false ~budget_after:balance
              (Lifecycle.Plan_failed reason)
        | None -> (
            let entry =
              match Cache.find t.cache p.p_key with
              | Some e -> e
              | None -> assert false
            in
            let rng = Arb_util.Rng.create (db_seed ~seed:t.seed ~index:p.p_index) in
            let db = Q.random_database rng p.p_query ~n () in
            let t0 = now () in
            match
              R.Session.run t.session ~db ~plan:entry.Cache.plan p.p_query
            with
            | Ok qr ->
                let report = qr.R.Session.report in
                (* Calibration ground truth: predicted-vs-measured per
                   section. Deterministic given the run, so recording
                   never perturbs byte-identity contracts. *)
                let samples =
                  lazy
                    (R.Exec.cost_samples ~cm ~plan:entry.Cache.plan
                       ~cols:p.p_query.Q.categories ~m:t.sim_m report)
                in
                Option.iter
                  (fun reg ->
                    R.Trace.export report.R.Exec.trace reg;
                    P.Calibration.record reg (Lazy.force samples))
                  t.metrics;
                Option.iter
                  (fun dir ->
                    (* A failed append must not fail the drain. *)
                    match
                      P.Calibration.append ~dir
                        ~model:calib.P.Calibration.fingerprint
                        (Lazy.force samples)
                    with
                    | Ok () -> ()
                    | Error m ->
                        Log.warn (fun f -> f "could not append residuals: %s" m))
                  t.snapshots;
                finish
                  ~exec_s:(now () -. t0)
                  ~cost:(P.Plan.charged entry.Cache.plan p.p_cost)
                  ~budget_after:(R.Session.budget_left t.session)
                  (Lifecycle.Executed
                     {
                       outputs =
                         List.map Arb_lang.Interp.value_to_string
                           report.R.Exec.outputs;
                     })
            | Error reason ->
                finish ~exec_s:(now () -. t0) ~budget_after:balance
                  (Lifecycle.Exec_failed reason)))
      admitted
  in
  let records =
    List.sort
      (fun (a : Lifecycle.record) b -> compare a.Lifecycle.index b.Lifecycle.index)
      (refused @ executed)
  in
  Mutex.protect t.lock (fun () ->
      t.history <- List.rev_append records t.history);
  (match t.metrics with
  | None -> ()
  | Some reg ->
      let add ?labels name help v = Arb_obs.Metrics.add reg ?labels ~help name v in
      List.iter
        (fun (r : Lifecycle.record) ->
          add
            ~labels:[ ("status", Lifecycle.status_name r.Lifecycle.status) ]
            "arb_service_submissions_total" "Drained submissions by outcome" 1.0;
          match r.Lifecycle.status with
          | Lifecycle.Executed _ ->
              let path = if r.Lifecycle.cache_hit then "hit" else "cold" in
              add
                ~labels:[ ("path", path) ]
                "arb_service_plans_total" "Executed submissions by plan origin"
                1.0;
              if timed then
                Arb_obs.Metrics.observe_in reg
                  ~labels:[ ("path", path) ]
                  ~buckets:Arb_obs.Metrics.latency_buckets
                  ~help:
                    "Admit+plan+execute latency by plan origin (cache hits \
                     skip planning)"
                  "arb_service_latency_seconds"
                  (r.Lifecycle.timings.Lifecycle.admit_s
                  +. r.Lifecycle.timings.Lifecycle.plan_s
                  +. r.Lifecycle.timings.Lifecycle.exec_s)
          | Lifecycle.Refused _ ->
              add "arb_service_refusals_total"
                "Submissions refused at admission" 1.0
          | Lifecycle.Plan_failed _ | Lifecycle.Exec_failed _ -> ())
        records;
      add "arb_service_cold_plans_total" "Distinct cold plans searched"
        (float_of_int (Array.length tasks));
      Arb_obs.Metrics.set_gauge reg
        ~help:"Planner pool size used by the last drain"
        "arb_service_pool_workers" (float_of_int pool);
      Arb_obs.Metrics.set_gauge reg ~help:"Plan-cache entries"
        "arb_service_cache_entries"
        (float_of_int (Cache.size t.cache)));
  records

let run_workload ?tracer ?workers t workload =
  List.iter (fun s -> ignore (submit t s)) (Workload.expand workload);
  drain ?tracer ?workers t

let metrics t = t.metrics

let history t = Mutex.protect t.lock (fun () -> List.rev t.history)

let submitted t = Mutex.protect t.lock (fun () -> t.next_index)

let record t index =
  Mutex.protect t.lock (fun () ->
      List.find_opt (fun r -> r.Lifecycle.index = index) t.history)

let counters t = Lifecycle.counters_of (history t)
let budget_left t = R.Session.budget_left t.session
let queries_executed t = R.Session.queries_run t.session
let chain_verifies t = R.Session.chain_verifies t.session
let cache t = t.cache
let devices t = t.devices
