(* arb — command-line front end for the Arboretum planner and runtime.

   Subcommands:
     arb plan   --query top1 --n 1000000000        plan and explain
     arb run    --query top1 --devices 256         plan + execute at sim scale
     arb certify --query median                    certification report
     arb serve  --workload file.json --workers 4   multi-query service
     arb calibrate --from obs/ --out calib.json    fit the cost model
     arb list                                      the built-in queries

   `arb plan --json`, `arb list --json` and `arb serve --json` emit
   machine-readable output for workload tooling. *)

open Cmdliner

let query_arg =
  let doc = "Built-in query name (see `arb list`)." in
  Arg.(value & opt string "top1" & info [ "query"; "q" ] ~docv:"NAME" ~doc)

let n_arg =
  let doc = "Deployment size (number of participants) for planning." in
  Arg.(value & opt int 1_000_000_000 & info [ "n" ] ~docv:"N" ~doc)

let categories_arg =
  let doc = "Override the category count (default: the paper's setting)." in
  Arg.(value & opt (some int) None & info [ "categories"; "c" ] ~docv:"C" ~doc)

let epsilon_arg =
  let doc = "Per-mechanism epsilon." in
  Arg.(value & opt float 0.1 & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc)

let devices_arg =
  let doc = "Simulated device count for execution." in
  Arg.(value & opt int 128 & info [ "devices"; "d" ] ~docv:"D" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let goal_arg =
  let goals = Arb_service.Workload.goal_names in
  let doc = "Optimization goal: " ^ String.concat ", " (List.map fst goals) ^ "." in
  Arg.(
    value
    & opt (enum goals) Arb_planner.Constraints.Min_part_exp_time
    & info [ "goal" ] ~docv:"GOAL" ~doc)

let verbose_arg =
  let doc = "Log planner and runtime progress to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let tolerance_arg =
  let doc =
    "Analyst error tolerance in (0, 1]: admit approximate plan variants \
     (device sampling, sketches) whose estimated relative error stays \
     within $(docv). Omit for exact plans only."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "error-tolerance" ] ~docv:"TOL" ~doc)

let check_tolerance tol =
  Result.map_error
    (fun m -> `Msg ("--error-tolerance " ^ m))
    (Arb_queries.Registry.check_tolerance tol)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let build_query ?tolerance name categories epsilon =
  match check_tolerance tolerance with
  | Error e -> Error e
  | Ok () -> (
      try
        Ok
          (Arboretum.builtin_query ~epsilon ?error_tolerance:tolerance
             ?categories name)
      with Not_found ->
        Error (`Msg (Printf.sprintf "unknown query %S; try `arb list`" name)))

let json_arg =
  let doc = "Emit the chosen plan and its cost metrics as JSON." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* --- observability flags shared by plan/run/serve --- *)

let trace_out_arg =
  let doc =
    "Write a Chrome trace_event JSON file of the command's span tree \
     (load it in chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc = "Write a Prometheus-style text snapshot of the metrics registry." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_det_arg =
  let doc =
    "Deterministic observability: spans carry logical ticks instead of wall \
     timestamps and wall-clock instruments are suppressed, so the trace and \
     metrics bytes are identical across runs (and across --workers values)."
  in
  Arg.(value & flag & info [ "trace-deterministic" ] ~doc)

(* A tracer exists when a trace file was requested or deterministic mode is
   on (the flag also gates the registry's wall-clock instruments). *)
let obs_tracer ~clock ~trace_out ~deterministic =
  if trace_out <> None || deterministic then
    Some
      (Arb_obs.Tracer.create
         ~clock:(if deterministic then Arb_obs.Clock.Deterministic else clock)
         ())
  else None

(* Notes go to stderr so --json stdout stays machine-readable. *)
let obs_save ~trace_out ~metrics_out tracer metrics =
  (match (tracer, trace_out) with
  | Some tr, Some path ->
      Arb_obs.Tracer.save tr path;
      Printf.eprintf "trace: %d events written to %s\n%!"
        (Arb_obs.Tracer.event_count tr)
        path
  | _ -> ());
  match (metrics, metrics_out) with
  | Some reg, Some path -> Arb_obs.Metrics.save reg path
  | _ -> ()

let calibration_arg =
  let doc =
    "Price candidate plans with the fitted cost model from this calibration \
     file (see `arb calibrate`). Unreadable, malformed or future-version \
     files fall back to the built-in constants with a warning."
  in
  Arg.(value & opt (some string) None & info [ "calibration" ] ~docv:"FILE" ~doc)

let snapshots_arg =
  let doc =
    "Append one line per executed query to this directory's residual log \
     (residuals.jsonl): its predicted-vs-measured cost samples and the \
     fingerprint of the model that priced it, the ground truth `arb \
     calibrate --from` fits."
  in
  Arg.(value & opt (some string) None & info [ "snapshots" ] ~docv:"DIR" ~doc)

(* Resolve --calibration; failures demote to the defaults with the typed
   reason on stderr so --json stdout stays machine-readable. *)
let load_calibration = function
  | None -> Arb_planner.Calibration.default
  | Some path ->
      let calib, err = Arb_planner.Calibration.load_or_default path in
      (match err with
      | Some e ->
          Printf.eprintf "calibration: %s; using built-in defaults\n%!"
            (Arb_planner.Calibration.error_message e)
      | None -> ());
      calib

let metrics_series reg =
  List.length
    (List.filter
       (fun l -> l <> "" && l.[0] <> '#')
       (String.split_on_char '\n' (Arb_obs.Metrics.to_prometheus reg)))

let plan_cmd =
  let run verbose name n categories epsilon tolerance goal json calibration
      trace_out metrics_out det =
    setup_logs verbose;
    match build_query ?tolerance name categories epsilon with
    | Error (`Msg m) -> prerr_endline m; 1
    | Ok q ->
        let tracer =
          obs_tracer ~clock:Arb_obs.Clock.Monotonic ~trace_out ~deterministic:det
        in
        let metrics =
          if metrics_out <> None then Some (Arb_obs.Metrics.create ()) else None
        in
        let calib = load_calibration calibration in
        let code =
          match
            Arboretum.plan ~cm:calib.Arb_planner.Calibration.constants ~goal
              ?tracer ?metrics ~n q
          with
          | p ->
              if json then
                print_endline
                  (Arb_util.Json.to_string ~pretty:true
                     (Arb_util.Json.Obj
                        [
                          ("plan", Arb_planner.Plan_io.plan_to_json p.Arboretum.plan);
                          ("metrics", Arb_planner.Plan_io.metrics_to_json p.Arboretum.metrics);
                        ]))
              else print_string (Arboretum.explain p);
              0
          | exception Arboretum.Rejected m ->
              Printf.eprintf "rejected: %s\n" m;
              1
        in
        (* The search spans exist even when the plan was rejected. *)
        obs_save ~trace_out ~metrics_out tracer metrics;
        code
  in
  let term =
    Term.(
      const run $ verbose_arg $ query_arg $ n_arg $ categories_arg $ epsilon_arg
      $ tolerance_arg $ goal_arg $ json_arg $ calibration_arg $ trace_out_arg
      $ metrics_out_arg $ trace_det_arg)
  in
  Cmd.v (Cmd.info "plan" ~doc:"Certify a query and print the chosen plan with its costs.") term

let certify_cmd =
  let run name n categories epsilon =
    match build_query name categories epsilon with
    | Error (`Msg m) -> prerr_endline m; 1
    | Ok q ->
        let r = Arboretum.certify q ~n in
        if r.Arb_lang.Certify.certified then begin
          Format.printf
            "certified: privacy cost %a, sensitivity %.2f, %d mechanism call(s)@."
            Arb_dp.Budget.pp r.Arb_lang.Certify.cost r.Arb_lang.Certify.sensitivity
            r.Arb_lang.Certify.mechanism_calls;
          0
        end
        else begin
          Format.printf "rejected: %s@."
            (Option.value r.Arb_lang.Certify.reason ~default:"?");
          1
        end
  in
  let term = Term.(const run $ query_arg $ n_arg $ categories_arg $ epsilon_arg) in
  Cmd.v (Cmd.info "certify" ~doc:"Run differential-privacy certification only.") term

let run_cmd =
  let run verbose name devices epsilon tolerance seed workers cohort_size
      sampled_cohorts calibration snapshots trace_out metrics_out det =
    setup_logs verbose;
    (match check_tolerance tolerance with
    | Error (`Msg m) -> prerr_endline m; exit 1
    | Ok _ -> ());
    (* Execution uses a small category count so the whole protocol fits in
       one process with real ciphertexts. *)
    let q =
      try
        {
          (Arb_queries.Registry.test_instance ~epsilon name) with
          Arb_queries.Registry.error_tolerance = tolerance;
        }
      with Not_found ->
        prerr_endline ("unknown query " ^ name);
        exit 1
    in
    (* Execution spans sit on the protocol's simulated timeline: the
       runtime advances this clock by its MPC and upload estimates. *)
    let tracer =
      obs_tracer
        ~clock:(Arb_obs.Clock.Simulated (Arb_obs.Clock.sim ()))
        ~trace_out ~deterministic:det
    in
    let metrics =
      if metrics_out <> None then Some (Arb_obs.Metrics.create ()) else None
    in
    let calib = load_calibration calibration in
    let cm = calib.Arb_planner.Calibration.constants in
    let code =
      match
        let p =
          Arboretum.plan ~cm ~limits:Arb_planner.Constraints.no_limits ?tracer
            ?metrics ~n:devices q
        in
        match cohort_size with
        | None ->
            let db =
              Arboretum.synthesize_database ~seed:(Int64.of_int seed) q ~n:devices
            in
            let config =
              { Arb_runtime.Exec.default_config with tracer; workers }
            in
            (p, Arboretum.run ~config ~db p)
        | Some cohort_size ->
            (* Sharded: never materialize the database — stream rows from an
               indexed source, real crypto for the sampled cohorts only. *)
            let src =
              {
                Arb_runtime.Exec.n_devices = devices;
                row =
                  Arb_queries.Registry.device_source ~seed:(Int64.of_int seed) q;
              }
            in
            let config =
              {
                Arb_runtime.Exec.default_config with
                tracer;
                workers;
                sharding =
                  Arb_runtime.Exec.Sharded { cohort_size; sampled_cohorts };
              }
            in
            (p, Arb_runtime.Exec.run_source config ~query:q ~plan:p.Arboretum.plan ~src)
      with
      | _, Error f ->
          Format.eprintf "failed: %a@." Arb_runtime.Exec.pp_failure f;
          1
      | planned, Ok report ->
          Printf.printf "outputs: %s\n"
            (String.concat "; " (Arboretum.outputs_to_strings report));
          Printf.printf
            "inputs accepted/rejected: %d/%d; certificate ok: %b; audit ok: %b\n"
            report.Arb_runtime.Exec.accepted_inputs
            report.Arb_runtime.Exec.rejected_inputs
            report.Arb_runtime.Exec.certificate_ok report.Arb_runtime.Exec.audit_ok;
          Format.printf "trace: %a@." Arb_runtime.Trace.pp report.Arb_runtime.Exec.trace;
          let samples =
            lazy
              (Arb_runtime.Exec.cost_samples ~cm ~plan:planned.Arboretum.plan
                 ~cols:q.Arb_queries.Registry.categories
                 ~m:
                   Arb_runtime.Exec.default_config
                     .Arb_runtime.Exec.committee_size report)
          in
          Option.iter
            (fun reg ->
              Arb_runtime.Trace.export report.Arb_runtime.Exec.trace reg;
              Arb_planner.Calibration.record reg (Lazy.force samples))
            metrics;
          (* A failed append is reported but changes neither stdout nor
             the exit code. *)
          Option.iter
            (fun dir ->
              match
                Arb_planner.Calibration.append ~dir
                  ~model:calib.Arb_planner.Calibration.fingerprint
                  (Lazy.force samples)
              with
              | Ok () -> ()
              | Error m -> Printf.eprintf "residual append failed: %s\n%!" m)
            snapshots;
          0
      | exception Arboretum.Rejected m ->
          Printf.eprintf "rejected: %s\n" m;
          1
    in
    obs_save ~trace_out ~metrics_out tracer metrics;
    code
  in
  let workers_arg =
    let doc =
      "OCaml domains for the per-member and per-device stages (key \
       generation, certificate and sortition checks, device uploads) and \
       the sum-tree folds. Reports and traces are byte-identical at any \
       worker count."
    in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"K" ~doc)
  in
  let cohort_size_arg =
    let doc =
      "Shard the population into cohorts of $(docv) devices and run real \
       cryptography for a sample of them, extrapolating the rest from exact \
       per-cohort plaintext sums — outputs, budget and certificate are \
       bit-identical to the full run, but memory stays O(cohort) so \
       --devices can be 10^8+. Omit to materialize every device."
    in
    Arg.(value & opt (some int) None & info [ "cohort-size" ] ~docv:"C" ~doc)
  in
  let sampled_cohorts_arg =
    let doc = "How many cohorts run with real ciphertexts (with --cohort-size)." in
    Arg.(value & opt int 2 & info [ "sampled-cohorts" ] ~docv:"K" ~doc)
  in
  let term =
    Term.(
      const run $ verbose_arg $ query_arg $ devices_arg $ epsilon_arg
      $ tolerance_arg $ seed_arg $ workers_arg $ cohort_size_arg
      $ sampled_cohorts_arg $ calibration_arg $ snapshots_arg $ trace_out_arg
      $ metrics_out_arg $ trace_det_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Plan and execute a query end to end at simulation scale with real cryptography.")
    term

let verify_cmd =
  let run verbose name devices epsilon seed =
    setup_logs verbose;
    let q =
      try Arb_queries.Registry.test_instance ~epsilon name
      with Not_found ->
        prerr_endline ("unknown query " ^ name);
        exit 1
    in
    let db = Arboretum.synthesize_database ~seed:(Int64.of_int seed) q ~n:devices in
    match Arboretum.plan ~limits:Arb_planner.Constraints.no_limits ~n:devices q with
    | exception Arboretum.Rejected m ->
        Printf.eprintf "rejected: %s\n" m;
        1
    | planned ->
        let budget_before = Arb_dp.Budget.create ~epsilon:1000.0 ~delta:0.01 in
        let config = { Arb_runtime.Exec.default_config with budget = budget_before } in
        match Arboretum.run ~config ~db planned with
        | Error f ->
            Format.eprintf "failed: %a@." Arb_runtime.Exec.pp_failure f;
            1
        | Ok report ->
            Printf.printf "outputs: %s\n"
              (String.concat "; " (Arboretum.outputs_to_strings report));
            let findings =
              Arb_runtime.Verify.verify_report ~query:q
                ~plan:planned.Arboretum.plan ~budget_before ~n_devices:devices report
            in
            Format.printf "%a" Arb_runtime.Verify.pp_findings findings;
            if Arb_runtime.Verify.all_ok findings then 0 else 1
  in
  let term =
    Term.(const run $ verbose_arg $ query_arg $ devices_arg $ epsilon_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Plan, execute and independently verify a run: certificate signatures, plan commitment, budget arithmetic, audits.")
    term

let list_cmd =
  let run json =
    if json then
      print_endline
        (Arb_util.Json.to_string ~pretty:true
           (Arb_util.Json.List
              (List.map
                 (fun name ->
                   let q = Arb_queries.Registry.paper_instance name in
                   Arb_util.Json.Obj
                     [
                       ("name", Arb_util.Json.String name);
                       ("action", Arb_util.Json.String q.Arb_queries.Registry.action);
                       ("source", Arb_util.Json.String q.Arb_queries.Registry.source);
                       ("categories", Arb_util.Json.Int q.Arb_queries.Registry.categories);
                       ( "mechanism",
                         Arb_util.Json.String
                           (if q.Arb_queries.Registry.uses_em then "exponential"
                            else "laplace") );
                       ( "lines",
                         Arb_util.Json.Int
                           (Arb_lang.Ast.count_lines q.Arb_queries.Registry.program) );
                     ])
                 Arb_queries.Registry.names)))
    else
      List.iter
        (fun name ->
          let q = Arb_queries.Registry.paper_instance name in
          Printf.printf "%-9s %-28s (C=%d, %s, %d lines)\n" name
            q.Arb_queries.Registry.action q.Arb_queries.Registry.categories
            (if q.Arb_queries.Registry.uses_em then "exponential mech."
             else "Laplace mech.")
            (Arb_lang.Ast.count_lines q.Arb_queries.Registry.program))
        Arb_queries.Registry.names;
    0
  in
  let json_arg =
    let doc = "Emit the query list as JSON (for workload tooling)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in evaluation queries (Table 2).")
    Term.(const run $ json_arg)

let print_sessions_text engine =
  let module E = Arb_continual.Engine in
  List.iter
    (fun (s : E.session) ->
      Format.printf
        "session %s: query %s every %d epoch(s), %d run(s) (%d cold, %d \
         replanned, %d revalidated), %d window refusal(s)%s@."
        s.E.name s.E.sub.Arb_service.Workload.query s.E.every s.E.runs
        s.E.cold s.E.replans s.E.revalidations s.E.window_refusals
        (match E.estimate s with
        | [] -> ""
        | e -> "; estimate " ^ String.concat "; " e);
      match s.E.window with
      | Some w -> Format.printf "  window %a@." Arb_dp.Budget.Window.pp w
      | None -> ())
    (E.sessions engine)

let serve_summary ?engine service ~json reg =
  let records = Arb_service.Service.history service in
  let counters = Arb_service.Service.counters service in
  if json then
    print_endline
      (Arb_util.Json.to_string ~pretty:true
         (Arb_util.Json.Obj
            ([
              ( "records",
                Arb_util.Json.List
                  (List.map
                     (Arb_service.Lifecycle.to_json ~timings:true)
                     records) );
              ("counters", Arb_service.Lifecycle.counters_to_json counters);
              ( "budgetLeft",
                Arb_dp.Budget.to_json (Arb_service.Service.budget_left service)
              );
              ( "chainVerifies",
                Arb_util.Json.Bool
                  (Arb_service.Service.chain_verifies service) );
              ( "calibration",
                Arb_util.Json.String
                  (Arb_service.Service.calibration_fingerprint service) );
              ("metrics", Arb_obs.Metrics.to_json reg);
            ]
            @
            (match engine with
            | Some e when Arb_continual.Engine.sessions e <> [] ->
                [ ("continual", Arb_continual.Engine.to_json e) ]
            | _ -> []))))
  else begin
    List.iter
      (fun r -> Format.printf "%a@." Arb_service.Lifecycle.pp r)
      records;
    Format.printf
      "---@.%d submitted: %d executed (%d cache hits, %d planned), %d \
       refused, %d failed@."
      counters.Arb_service.Lifecycle.submitted
      counters.Arb_service.Lifecycle.executed
      counters.Arb_service.Lifecycle.cache_hits
      counters.Arb_service.Lifecycle.planned
      counters.Arb_service.Lifecycle.refused
      counters.Arb_service.Lifecycle.failed;
    Format.printf "budget left %a; certificate chain verifies: %b@."
      Arb_dp.Budget.pp
      (Arb_service.Service.budget_left service)
      (Arb_service.Service.chain_verifies service);
    Option.iter print_sessions_text engine
  end

(* The service both serve modes run: budget, devices and seed come from the
   flags, else the workload file, else the defaults. Executions use the
   same --workers domains as planning, and record their stage spans
   (keygen, inputs, ...) inside each drain's execute span. *)
let serve_service ~workload ~devices ~seed ~workers ~cache_dir ~calib
    ~snapshots ~tracer reg =
  let from_file field ~default =
    Option.value (Option.bind workload field) ~default
  in
  Arb_service.Service.create
    ~cache:(Arb_service.Cache.create ?dir:cache_dir ())
    ~metrics:reg ~calibration:calib
    ?snapshots
    ~exec_config:{ Arb_runtime.Exec.default_config with workers; tracer }
    ~budget:
      (from_file
         (fun w -> w.Arb_service.Workload.budget)
         ~default:(Arb_dp.Budget.create ~epsilon:10.0 ~delta:1e-6))
    ~devices:
      (Option.value devices
         ~default:
           (from_file (fun w -> w.Arb_service.Workload.devices) ~default:64))
    ~seed:
      (Option.value seed
         ~default:(from_file (fun w -> w.Arb_service.Workload.seed) ~default:7))
    ()

(* Recurring workload entries become continual sessions carrying state. *)
let register_sessions engine workload =
  List.iter
    (fun sub ->
      match Arb_continual.Engine.register engine sub with
      | Ok name -> Printf.eprintf "session %s registered\n%!" name
      | Error m -> Printf.eprintf "cannot register session: %s\n%!" m)
    (Arb_service.Workload.recurring workload)

(* The network front door: service + API executor + HTTP server, running
   until SIGINT or POST /v1/stop, then a graceful drain of both the
   connection queue and the submission queue before the summary prints. *)
let serve_listen ~host ~port ~max_queue ~http_workers ~workers ~timeout
    ~workload ~devices ~seed ~cache_dir ~calib ~snapshots ~live_fp ~json
    ~tracer reg =
  let service =
    serve_service ~workload ~devices ~seed ~workers ~cache_dir ~calib
      ~snapshots ~tracer reg
  in
  (* Recurring workload entries become continual sessions rather than
     preloaded one-shots; the engine's routes mount on the API's [extra]
     hook, so /v1/sessions and /v1/epoch share the same front door. *)
  let engine = Arb_continual.Engine.create ~service () in
  Option.iter (register_sessions engine) workload;
  let api =
    Arb_service.Api.create
      ~config:
        {
          Arb_service.Api.max_queue;
          drain_workers = workers;
          check_budget = true;
        }
      ?tracer
      ~extra:(Arb_continual.Routes.handler ?tracer ~workers engine)
      ~service ()
  in
  (match workload with
  | Some w -> Arb_service.Api.preload api (Arb_service.Workload.expand w)
  | None -> ());
  match
    Arb_service.Server.start
      ~config:
        {
          Arb_service.Server.default_config with
          host;
          port;
          workers = http_workers;
          max_pending = max_queue;
          request_timeout_s = timeout;
          metrics = Some reg;
        }
      ~handler:(Arb_service.Api.handler api) ()
  with
  | exception Unix.Unix_error (e, _, _) ->
      Arb_service.Api.join api;
      Printf.eprintf "cannot listen on %s:%d: %s\n" host port
        (Unix.error_message e);
      1
  | server ->
      Printf.eprintf "listening on %s:%d (POST /v1/stop or Ctrl-C to stop)\n%!"
        host
        (Arb_service.Server.port server);
      (* The handler only flips an atomic: taking the API mutex inside a
         signal handler could self-deadlock, so the main loop polls. *)
      let sigint = Atomic.make false in
      let previous =
        try
          Some
            (Sys.signal Sys.sigint
               (Sys.Signal_handle (fun _ -> Atomic.set sigint true)))
        with Invalid_argument _ | Sys_error _ -> None
      in
      while
        (not (Atomic.get sigint)) && not (Arb_service.Api.stop_requested api)
      do
        Unix.sleepf 0.2
      done;
      (match previous with
      | Some h -> ( try Sys.set_signal Sys.sigint h with _ -> ())
      | None -> ());
      Arb_service.Server.stop server;
      Arb_service.Api.join api;
      let st = Arb_service.Server.stats server in
      Printf.eprintf
        "http: %d connections, %d requests, %d rejected busy, %d bad, %d \
         timeouts, %d disconnects\n%!"
        st.Arb_service.Server.accepted st.Arb_service.Server.served
        st.Arb_service.Server.rejected_busy st.Arb_service.Server.bad_requests
        st.Arb_service.Server.timeouts
        st.Arb_service.Server.client_disconnects;
      live_fp := Arb_service.Service.calibration_fingerprint service;
      serve_summary ~engine service ~json reg;
      0

let serve_cmd =
  let run verbose workload_path devices seed workers cache_dir json
      calibration snapshots trace_out metrics_out det listen host max_queue
      http_workers timeout epochs =
    setup_logs verbose;
    (* serve always keeps a registry so every exit path can report a
       metrics summary; --metrics-out additionally persists it. *)
    let reg = Arb_obs.Metrics.create () in
    let tracer =
      obs_tracer ~clock:Arb_obs.Clock.Monotonic ~trace_out ~deterministic:det
    in
    let calib = load_calibration calibration in
    (* The exit line must report whatever calibration ended up active —
       a PUT /v1/calibration mid-serve supersedes the one loaded here. *)
    let live_fp = ref calib.Arb_planner.Calibration.fingerprint in
    let finish code =
      obs_save ~trace_out ~metrics_out tracer (Some reg);
      (* The final metrics summary line (also emitted on workload-file
         errors above); stderr, so --json stdout stays parseable. *)
      Printf.eprintf "metrics: %d series%s; calibration %s\n%!"
        (metrics_series reg)
        (match metrics_out with
        | Some path -> " written to " ^ path
        | None -> "")
        !live_fp;
      code
    in
    let workload =
      match workload_path with
      | None -> Ok None
      | Some path -> (
          match Arb_service.Workload.load path with
          | Ok w -> Ok (Some w)
          | Error m -> Error m)
    in
    match (workload, listen) with
    | Error m, _ ->
        Printf.eprintf "cannot load workload: %s\n" m;
        Arb_obs.Metrics.add reg
          ~help:"Workload files that failed to load or parse"
          "arb_service_workload_errors_total" 1.0;
        ignore (finish 1);
        1
    | Ok None, None ->
        Printf.eprintf "nothing to do: pass --workload FILE, --listen PORT, \
                        or both\n";
        1
    | Ok workload, Some port ->
        finish
          (serve_listen ~host ~port ~max_queue ~http_workers ~workers ~timeout
             ~workload ~devices ~seed ~cache_dir ~calib ~snapshots ~live_fp
             ~json ~tracer reg)
    | Ok (Some workload), None ->
        let service =
          serve_service ~workload:(Some workload) ~devices ~seed ~workers
            ~cache_dir ~calib ~snapshots ~tracer reg
        in
        ignore
          (Arb_service.Service.run_workload ?tracer ~workers service workload);
        (* One-shots ran above; recurring entries become sessions and the
           engine drives the requested number of epochs. *)
        let engine =
          match Arb_service.Workload.recurring workload with
          | [] -> None
          | _ ->
              let engine = Arb_continual.Engine.create ~service () in
              register_sessions engine workload;
              let n_epochs =
                match epochs with
                | Some n -> n
                | None ->
                    Option.value workload.Arb_service.Workload.epochs ~default:5
              in
              ignore
                (Arb_continual.Engine.run_epochs ?tracer ~workers engine
                   n_epochs);
              Some engine
        in
        serve_summary ?engine service ~json reg;
        finish 0
  in
  let workload_arg =
    let doc = "Workload file (JSON; see DESIGN.md \xC2\xA78). Optional with \
               --listen (queries then arrive over HTTP); required otherwise." in
    Arg.(
      value
      & opt (some file) None
      & info [ "workload"; "w" ] ~docv:"FILE" ~doc)
  in
  let listen_arg =
    let doc =
      "Serve the JSON API over HTTP on this port (0 picks a free one) \
       instead of exiting after the workload file: POST /v1/queries to \
       submit, GET /v1/queries/IDX to poll, POST /v1/stop (or Ctrl-C) for a \
       graceful drain-then-summary shutdown."
    in
    Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Bind address for --listen." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Backpressure bound: both the accepted-connection queue and the \
       submission queue refuse (HTTP 429 / 503, budget untouched) beyond \
       this depth."
    in
    Arg.(value & opt int 1024 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let http_workers_arg =
    let doc = "HTTP worker domains (connection handlers)." in
    Arg.(value & opt int 4 & info [ "http-workers" ] ~docv:"K" ~doc)
  in
  let timeout_arg =
    let doc =
      "Whole-request deadline in seconds (slowloris guard): all bytes of a \
       request must arrive within this window."
    in
    Arg.(value & opt float 10.0 & info [ "request-timeout" ] ~docv:"S" ~doc)
  in
  let devices_opt =
    let doc = "Device population size (overrides the workload file)." in
    Arg.(value & opt (some int) None & info [ "devices"; "d" ] ~docv:"D" ~doc)
  in
  let seed_opt =
    let doc = "Service seed (overrides the workload file)." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let workers_arg =
    let doc =
      "Worker domains: cold plans search on them, and each query's \
       per-member and per-device execution stages (key generation, \
       certificate and sortition checks, device uploads) fan out over them. \
       Output is identical at any value."
    in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"K" ~doc)
  in
  let cache_dir_arg =
    let doc = "Persist the plan cache in this directory." in
    Arg.(
      value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Emit lifecycle records and counters as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let epochs_arg =
    let doc =
      "With a workload file holding recurring entries (\"every\"/\"window\"): \
       drive this many epochs before the summary (default: the workload's \
       \"epochs\" field, else 5)."
    in
    Arg.(value & opt (some int) None & info [ "epochs" ] ~docv:"N" ~doc)
  in
  let term =
    Term.(
      const run $ verbose_arg $ workload_arg $ devices_opt $ seed_opt
      $ workers_arg $ cache_dir_arg $ json_arg $ calibration_arg
      $ snapshots_arg $ trace_out_arg $ metrics_out_arg $ trace_det_arg
      $ listen_arg $ host_arg $ max_queue_arg $ http_workers_arg
      $ timeout_arg $ epochs_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a workload of queries through the multi-tenant service \
          (admission control against the shared privacy budget, cached and \
          concurrent planning, serialized execution on the certificate \
          chain) — from a workload file, over HTTP with --listen, or both.")
    term

let calibrate_cmd =
  let module C = Arb_planner.Calibration in
  let run verbose from out =
    setup_logs verbose;
    match C.fit_snapshots ~dir:from () with
    | Error m ->
        Printf.eprintf "cannot fit: %s\n" m;
        1
    | Ok calib ->
        C.save out calib;
        let p = calib.C.provenance in
        Printf.printf "calibration %s written to %s\n" calib.C.fingerprint out;
        Printf.printf "  %d run(s)%s; mean relative error %.4f -> %.4f\n"
          p.C.p_runs
          (if p.C.p_skipped > 0 then
             Printf.sprintf
               " (%d line(s) skipped: malformed or priced under another model)"
               p.C.p_skipped
           else "")
          p.C.p_err_before p.C.p_err_after;
        List.iter
          (fun s ->
            Printf.printf "  %-14s x%-10.4f %4d sample(s)  %.4f -> %.4f\n"
              s.C.s_section s.C.s_scale s.C.s_samples s.C.s_err_before
              s.C.s_err_after)
          p.C.p_sections;
        0
  in
  let from_arg =
    let doc =
      "Directory whose residual log to fit from (accumulated by `arb run \
       --snapshots` / `arb serve --snapshots`). Only the lines priced under \
       the built-in constants are fitted."
    in
    Arg.(required & opt (some string) None & info [ "from" ] ~docv:"DIR" ~doc)
  in
  let out_arg =
    let doc = "Where to write the fitted calibration file." in
    Arg.(value & opt string "calib.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Fit cost-model constants from a residual log of observed \
          predicted-vs-measured costs, one run per executed query, writing \
          a versioned calibration file for --calibration / PUT \
          /v1/calibration.")
    Term.(const run $ verbose_arg $ from_arg $ out_arg)

let sessions_cmd =
  let module J = Arb_util.Json in
  let summary_line s =
    let str name = J.to_str (J.member name s) in
    let int name = J.to_int (J.member name s) in
    Printf.printf
      "%-12s query %-9s every %d  runs %d (%d cold, %d replanned, %d \
       revalidated)  refusals %d%s\n"
      (str "name") (str "query") (int "every") (int "runs") (int "coldPlans")
      (int "replans") (int "revalidations")
      (int "windowRefusals")
      (match J.to_list (J.member "estimate" s) with
      | [] -> ""
      | e -> "  estimate " ^ String.concat "; " (List.map J.to_str e)
      | exception J.Parse_error _ -> "")
  in
  let print_index j =
    Printf.printf "epoch %d\n" (J.to_int (J.member "epoch" j));
    List.iter summary_line (J.to_list (J.member "sessions" j))
  in
  let print_detail j =
    summary_line j;
    let history = try J.to_list (J.member "history" j) with J.Parse_error _ -> [] in
    List.iter (fun r -> Printf.printf "  %s\n" (J.to_string r)) history
  in
  let run host port name json =
    let target =
      match name with None -> "/v1/sessions" | Some n -> "/v1/sessions/" ^ n
    in
    match Arb_service.Client.get ~host ~port target with
    | Error m ->
        Printf.eprintf "cannot reach %s:%d: %s\n" host port m;
        1
    | Ok resp when resp.Arb_service.Http.status <> 200 ->
        Printf.eprintf "%d %s: %s\n" resp.Arb_service.Http.status
          resp.Arb_service.Http.reason resp.Arb_service.Http.resp_body;
        1
    | Ok resp -> (
        if json then begin
          print_endline resp.Arb_service.Http.resp_body;
          0
        end
        else
          match J.of_string resp.Arb_service.Http.resp_body with
          | exception J.Parse_error m ->
              Printf.eprintf "malformed response: %s\n" m;
              1
          | j ->
              (match name with None -> print_index j | Some _ -> print_detail j);
              0)
  in
  let host_arg =
    let doc = "Host of a running `arb serve --listen`." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)
  in
  let port_arg =
    let doc = "Port of a running `arb serve --listen`." in
    Arg.(required & opt (some int) None & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let session_arg =
    let doc = "Show one session's summary and full epoch history." in
    Arg.(value & opt (some string) None & info [ "session"; "s" ] ~docv:"NAME" ~doc)
  in
  let json_arg =
    let doc = "Print the server's JSON verbatim." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:
         "Inspect the continual sessions of a running service: per-session \
          run/re-plan/re-validation counters, sliding budget windows, \
          carried-state estimates, and (with --session) epoch history.")
    Term.(const run $ host_arg $ port_arg $ session_arg $ json_arg)

let main =
  let info =
    Cmd.info "arb" ~version:"1.0.0"
      ~doc:"Arboretum: a planner for large-scale federated analytics with differential privacy"
  in
  Cmd.group info
    [ plan_cmd; certify_cmd; run_cmd; verify_cmd; serve_cmd; calibrate_cmd;
      sessions_cmd; list_cmd ]

let () = exit (Cmd.eval' main)
