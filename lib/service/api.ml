(* The JSON API over {!Service}: request routing for submit / poll /
   records / counters / budget / metrics / health / stop, plus the
   executor domain that turns queued submissions into drains.

   Handlers run concurrently on {!Server} worker domains; everything they
   touch in {!Service} is mutex-protected. Admission is two-layered:
   {!Server} already refused over-capacity *connections* at the accept
   edge, and here {!Service.try_submit} refuses over-capacity or
   over-budget *submissions* with a 429 before anything is enqueued — the
   DP budget is untouched by construction (nothing was admitted, planned
   or executed). A 202 means every copy holds its certified cost, so the
   drain never refuses it for budget.

   Execution stays serialized: one executor domain wakes on submission,
   drains the whole queue through the deterministic service core, and
   loops. On stop it performs a final drain, so every accepted submission
   has a lifecycle record before {!join} returns. *)

module J = Arb_util.Json

let src = Logs.Src.create "arb.service.api" ~doc:"Service JSON API"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  max_queue : int;  (* Service.try_submit queue bound *)
  drain_workers : int;  (* planner pool per drain *)
  check_budget : bool;  (* 429 for what the available balance cannot hold *)
}

let default_config = { max_queue = 1024; drain_workers = 1; check_budget = true }

type t = {
  service : Service.t;
  config : config;
  tracer : Arb_obs.Tracer.t option;
  extra : Http.request -> Http.response option;
      (* consulted for paths no built-in route owns: subsystems layered on
         top of the service (the continual engine) add endpoints without
         Api depending on them *)
  lock : Mutex.t;
  wake : Condition.t;
  mutable stop_requested : bool;
  mutable drains : int;
  mutable executor : unit Domain.t option;
}

let executor_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while Service.pending t.service = 0 && not t.stop_requested do
      Condition.wait t.wake t.lock
    done;
    let work = Service.pending t.service > 0 in
    Mutex.unlock t.lock;
    if work then begin
      (match
         Service.drain ?tracer:t.tracer ~workers:t.config.drain_workers
           t.service
       with
      | records ->
          Mutex.protect t.lock (fun () -> t.drains <- t.drains + 1);
          Log.info (fun f -> f "drained %d submissions" (List.length records))
      | exception exn ->
          (* A drain must never kill the executor: the failure is logged
             and the affected submissions simply never gain records. *)
          Log.err (fun f -> f "drain raised: %s" (Printexc.to_string exn)));
      loop ()
    end
    (* else: stop requested and the queue is empty — exit. *)
  in
  loop ()

let create ?(config = default_config) ?tracer ?(extra = fun _ -> None)
    ~service () =
  let t =
    {
      service;
      config;
      tracer;
      extra;
      lock = Mutex.create ();
      wake = Condition.create ();
      stop_requested = false;
      drains = 0;
      executor = None;
    }
  in
  t.executor <- Some (Domain.spawn (fun () -> executor_loop t));
  t

let kick t = Mutex.protect t.lock (fun () -> Condition.broadcast t.wake)

let preload t subs =
  List.iter (fun s -> ignore (Service.submit t.service s)) subs;
  kick t

let request_stop t =
  Mutex.protect t.lock (fun () ->
      t.stop_requested <- true;
      Condition.broadcast t.wake)

let stop_requested t = Mutex.protect t.lock (fun () -> t.stop_requested)

let join t =
  request_stop t;
  match t.executor with
  | None -> ()
  | Some d ->
      t.executor <- None;
      Domain.join d

let drains t = Mutex.protect t.lock (fun () -> t.drains)

(* ---------------- routes ---------------- *)

let health t =
  Http.json_response ~status:200
    (J.Obj
       [
         ( "status",
           J.String (if stop_requested t then "stopping" else "ok") );
         ("pending", J.Int (Service.pending t.service));
         ("submitted", J.Int (Service.submitted t.service));
         ("drains", J.Int (drains t));
         ("calibration", J.String (Service.calibration_fingerprint t.service));
       ])

let get_calibration t =
  Http.json_response ~status:200
    (Arb_planner.Calibration.to_json (Service.calibration t.service))

(* PUT a full calibration file body: the install swaps the model, so the
   next drain keys (and plans) its submissions under it. *)
let put_calibration t (req : Http.request) =
  match
    match J.of_string req.Http.body with
    | j -> Arb_planner.Calibration.of_json ~path:"<body>" j
    | exception J.Parse_error m ->
        Error
          (Arb_planner.Calibration.Malformed { path = "<body>"; reason = m })
  with
  | Error e ->
      Http.error_response 400 (Arb_planner.Calibration.error_message e)
  | Ok calib ->
      let changed = Service.set_calibration t.service calib in
      Http.json_response ~status:200
        (J.Obj
           [
             ("installed", J.String calib.Arb_planner.Calibration.fingerprint);
             ("changed", J.Bool changed);
           ])

let submit t (req : Http.request) =
  if stop_requested t then
    Http.error_response ~reason:"stopping" 503 "service is shutting down"
  else
    match
      Result.bind
        (match J.of_string req.Http.body with
        | j -> Ok j
        | exception J.Parse_error m -> Error ("malformed JSON body: " ^ m))
        Workload.submission_of_json
    with
    | Error m -> Http.error_response 400 m
    | Ok sub when Workload.is_recurring sub ->
        Http.error_response 400
          "recurring submissions (\"every\"/\"window\") are session-scoped: \
           register them in a workload file, then poll /v1/sessions"
    | Ok sub -> (
        match
          Service.try_submit ~max_queue:t.config.max_queue
            ~check_budget:t.config.check_budget t.service sub
        with
        | Ok index ->
            kick t;
            Http.json_response ~status:202
              (J.Obj
                 [
                   ("index", J.Int index);
                   ("repeat", J.Int sub.Workload.repeat);
                   ("status", J.String "queued");
                 ])
        | Error refusal ->
            let reason =
              match refusal with
              | Service.Queue_full _ -> "queueFull"
              | Service.Over_budget _ -> "budget"
            in
            Http.error_response ~reason
              ~headers:[ ("retry-after", "1") ]
              429
              (Service.refusal_message refusal))

let poll t index_s =
  match int_of_string_opt index_s with
  | None -> Http.error_response 404 "submission indices are integers"
  | Some i when i < 0 || i >= Service.submitted t.service ->
      Http.error_response 404 (Printf.sprintf "no submission with index %d" i)
  | Some i -> (
      match Service.record t.service i with
      | Some r ->
          Http.json_response ~status:200 (Lifecycle.to_json ~timings:true r)
      | None ->
          Http.json_response ~status:200
            (J.Obj
               [ ("index", J.Int i); ("status", J.String "pending") ]))

let records t =
  (* Canonical form (no wall-clock timings): byte-identical to
     [Lifecycle.records_to_string] over the in-process workload path. *)
  Http.json_response ~status:200
    (J.List (List.map (Lifecycle.to_json ~timings:false) (Service.history t.service)))

let counters t =
  Http.json_response ~status:200
    (Lifecycle.counters_to_json (Service.counters t.service))

let metrics t =
  match Service.metrics t.service with
  | Some reg ->
      Http.text_response ~status:200 (Arb_obs.Metrics.to_prometheus reg)
  | None -> Http.error_response 404 "no metrics registry attached"

let stop_route t =
  request_stop t;
  Http.json_response ~status:200 (J.Obj [ ("stopping", J.Bool true) ])

let handler t (req : Http.request) =
  let meth = req.Http.meth and path = req.Http.path in
  match (meth, path) with
  | "GET", "/healthz" -> health t
  | "POST", "/v1/queries" -> submit t req
  | "GET", "/v1/records" -> records t
  | "GET", "/v1/counters" -> counters t
  | "GET", "/v1/budget" ->
      Http.json_response ~status:200
        (Arb_dp.Budget.to_json (Service.budget_left t.service))
  | "GET", "/v1/metrics" -> metrics t
  | "GET", "/v1/calibration" -> get_calibration t
  | "PUT", "/v1/calibration" -> put_calibration t req
  | "POST", "/v1/stop" -> stop_route t
  | _, ("/healthz" | "/v1/queries" | "/v1/records" | "/v1/counters"
       | "/v1/budget" | "/v1/metrics" | "/v1/calibration" | "/v1/stop") ->
      Http.error_response 405
        (Printf.sprintf "%s does not support %s" path meth)
  | _ -> (
      match (meth, Http.strip_prefix ~prefix:"/v1/queries/" path) with
      | "GET", Some index -> poll t index
      | _ -> (
          match t.extra req with
          | Some resp -> resp
          | None ->
              Http.error_response 404
                (Printf.sprintf "no such endpoint %s" path)))
