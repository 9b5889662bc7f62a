(* Tests for the continual-analytics subsystem: recurring-spec validation,
   session scheduling (skip cadence, re-validation vs re-plan after a
   calibration install), sliding-window refusal and refund-driven
   recovery, mechanism-state carryover (raw outputs equal a one-shot run,
   carried convergence), and multi-epoch byte-identity across worker
   counts. *)

module S = Arb_service
module E = Arb_continual.Engine
module Ms = Arb_continual.Mstate
module B = Arb_dp.Budget
module P = Arb_planner
module J = Arb_util.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let goal = P.Constraints.Min_part_exp_time

let sub ?categories ?(repeat = 1) ?every ?window ~epsilon query =
  { S.Workload.query; epsilon; categories; goal; repeat; every; window;
    tolerance = None }

let win ?compose ~epochs ~epsilon ~delta () =
  {
    S.Workload.w_epochs = epochs;
    w_budget = B.create ~epsilon ~delta;
    w_compose = compose;
  }

let fresh ?(epsilon = 1.0e6) ?(devices = 24) ?metrics () =
  let svc =
    S.Service.create ?metrics
      ~budget:(B.create ~epsilon ~delta:0.5)
      ~devices ~seed:11 ()
  in
  (svc, E.create ~service:svc ())

(* An unlabeled counter series as the registry's JSON exposition reports
   it; 0 when the series was never registered. *)
let counter reg name =
  let key = [ ("name", J.String name); ("labels", J.Obj []) ] in
  match
    List.find_opt
      (fun row -> List.for_all (fun (k, v) -> J.member k row = v) key)
      (J.to_list (Arb_obs.Metrics.to_json reg))
  with
  | Some row -> int_of_float (J.to_float (J.member "value" row))
  | None -> 0

let register engine s =
  match E.register engine s with
  | Ok n -> n
  | Error m -> Alcotest.fail ("register: " ^ m)

let view engine name =
  match E.session engine name with
  | Some v -> v
  | None -> Alcotest.fail ("no session view for " ^ name)

let planned_of r =
  match r.E.er_outcome with E.Ran { planned; _ } -> Some planned | _ -> None

let outputs_of r =
  match r.E.er_outcome with E.Ran { outputs; _ } -> outputs | _ -> []

(* ---------------- recurring-spec validation ---------------- *)

let test_validate_recurring () =
  let expect_err what s pred =
    match S.Workload.validate_recurring s with
    | Ok () -> Alcotest.fail (what ^ ": accepted a malformed recurring spec")
    | Error e ->
        checkb (what ^ " typed error") true (pred e);
        checkb
          (what ^ " message names the query")
          true
          (let m = S.Workload.recurring_error_message e in
           String.length m > 0
           &&
           let rec find i =
             i + 4 <= String.length m && (String.sub m i 4 = "top1" || find (i + 1))
           in
           find 0)
  in
  checkb "one-shot ok" true
    (S.Workload.validate_recurring (sub ~epsilon:0.5 "top1") = Ok ());
  checkb "recurring ok" true
    (S.Workload.validate_recurring
       (sub ~epsilon:0.5 ~every:2
          ~window:(win ~epochs:4 ~epsilon:1.0 ~delta:1e-6 ~compose:4 ())
          "top1")
    = Ok ());
  expect_err "every <= 0"
    (sub ~epsilon:0.5 ~every:0 "top1")
    (function S.Workload.Bad_every _ -> true | _ -> false);
  expect_err "window epochs < 1"
    (sub ~epsilon:0.5 ~every:1
       ~window:(win ~epochs:0 ~epsilon:1.0 ~delta:0.0 ())
       "top1")
    (function S.Workload.Bad_window_epochs _ -> true | _ -> false);
  expect_err "compose < 1"
    (sub ~epsilon:0.5 ~every:1
       ~window:(win ~epochs:4 ~epsilon:1.0 ~delta:0.0 ~compose:0 ())
       "top1")
    (function S.Workload.Bad_compose _ -> true | _ -> false);
  expect_err "window below composition horizon"
    (sub ~epsilon:0.5 ~every:1
       ~window:(win ~epochs:2 ~epsilon:1.0 ~delta:0.0 ~compose:5 ())
       "top1")
    (function S.Workload.Window_below_compose _ -> true | _ -> false);
  expect_err "window without every"
    (sub ~epsilon:0.5 ~window:(win ~epochs:4 ~epsilon:1.0 ~delta:0.0 ()) "top1")
    (function S.Workload.Window_without_every _ -> true | _ -> false);
  expect_err "recurring repeat"
    (sub ~epsilon:0.5 ~every:1 ~repeat:3 "top1")
    (function S.Workload.Recurring_repeat _ -> true | _ -> false)

let test_workload_json_rejects_malformed () =
  (* A workload file with a malformed recurring spec must fail at load
     time with the typed message, not mid-serve. *)
  let wl every =
    J.Obj
      [
        ("formatVersion", J.Int 1);
        ( "queries",
          J.List
            [
              J.Obj
                [
                  ("query", J.String "top1");
                  ("epsilon", J.Float 0.5);
                  ("every", J.Int every);
                ];
            ] );
      ]
  in
  (match S.Workload.of_json (wl 0) with
  | Ok _ -> Alcotest.fail "every=0 accepted"
  | Error m -> checkb "message mentions every" true
      (let rec find i =
         i + 5 <= String.length m && (String.sub m i 5 = "every" || find (i + 1))
       in
       find 0));
  match S.Workload.of_json (wl 1) with
  | Ok w ->
      checki "recurring entry kept out of expand" 0
        (List.length (S.Workload.expand w));
      checki "recurring entry listed" 1 (List.length (S.Workload.recurring w))
  | Error m -> Alcotest.fail m

(* ---------------- registration ---------------- *)

let test_register () =
  let _svc, eng = fresh () in
  (match E.register eng (sub ~epsilon:0.5 "top1") with
  | Ok _ -> Alcotest.fail "non-recurring submission registered"
  | Error m -> checkb "explains every" true (String.length m > 0));
  let a = register eng (sub ~epsilon:0.5 ~every:1 "top1") in
  checks "defaults to the query name" "top1" a;
  let b = register eng (sub ~epsilon:0.5 ~every:1 "top1") in
  checks "name collision auto-suffixes" "top1#2" b;
  checki "both sessions listed" 2 (List.length (E.sessions eng))

(* ---------------- scheduling: cadence, revalidate, re-plan ---------------- *)

let test_cadence_and_revalidation () =
  let reg = Arb_obs.Metrics.create () in
  let _svc, eng = fresh ~metrics:reg () in
  let a = register eng (sub ~epsilon:0.5 ~every:1 "top1") in
  let m = register eng (sub ~epsilon:0.4 ~every:2 "median") in
  let epochs = E.run_epochs eng 4 in
  checki "four epochs of records" 4 (List.length epochs);
  List.iteri
    (fun i records ->
      let e = i + 1 in
      checki "record per session per epoch" 2 (List.length records);
      let rm = List.find (fun r -> r.E.er_session = m) records in
      if (e - 1) mod 2 = 0 then
        checkb "median runs on its cadence" true (planned_of rm <> None)
      else
        checkb "median skips off-cadence epochs" true
          (rm.E.er_outcome = E.Skipped))
    epochs;
  let va = view eng a in
  checki "one cold plan" 1 va.E.cold;
  checki "revalidations ever after" 3 va.E.revalidations;
  checki "no replans" 0 va.E.replans;
  checki "every epoch ran" 4 va.E.runs;
  let vm = view eng m in
  checki "median runs at half cadence" 2 vm.E.runs;
  checki "median cold once" 1 vm.E.cold;
  checki "median revalidates once" 1 vm.E.revalidations;
  checki "cold-plan counter" 2 (counter reg "arb_continual_cold_plans_total");
  checki "revalidation counter" 4
    (counter reg "arb_continual_revalidations_total");
  checki "epoch counter" 4 (counter reg "arb_continual_epochs_total")

(* Key generation 20% slower than the default cost model. *)
let mild_calibration () =
  let d = P.Cost_model.default in
  P.Calibration.make
    { d with P.Cost_model.kg_coeff_time = d.P.Cost_model.kg_coeff_time *. 1.2 }

(* Run one one-shot copy of [s] so a later session's first epoch hits. *)
let warm svc s =
  ignore (S.Service.submit svc { s with S.Workload.every = None });
  ignore (S.Service.drain svc)

let test_install_replans_each_session_once () =
  (* The plan-cache key names the pricing model, so an install re-plans
     every due session once — the cold-started one and the one whose
     first epoch hit a one-shot's plan alike — and the next epoch hits the
     new model's plans again. *)
  let reg = Arb_obs.Metrics.create () in
  let svc, eng = fresh ~metrics:reg () in
  let med = sub ~epsilon:0.4 ~every:1 "median" in
  warm svc med;
  let a = register eng (sub ~epsilon:0.5 ~every:1 "top1") in
  let m = register eng med in
  let planned () = List.filter_map planned_of (E.tick eng) in
  checkb "epoch 1: top1 cold, median hits the one-shot's plan" true
    (planned () = [ E.Cold; E.Revalidated ]);
  checkb "epoch 2 revalidates both" true
    (planned () = [ E.Revalidated; E.Revalidated ]);
  checkb "install changed the model" true
    (S.Service.set_calibration svc (mild_calibration ()));
  checkb "epoch 3 re-plans both" true
    (planned () = [ E.Replanned; E.Replanned ]);
  checkb "epoch 4 revalidates both" true
    (planned () = [ E.Revalidated; E.Revalidated ]);
  checki "top1 re-planned once" 1 (view eng a).E.replans;
  checki "median re-planned once" 1 (view eng m).E.replans;
  checki "re-plan counter" 2 (counter reg "arb_continual_replans_total")

let test_install_replans_warm_session_at_next_due_epoch () =
  (* An every-2 session warm-started from a one-shot's plan: the install
     lands on an off-cadence epoch, the next due epoch re-plans exactly
     once, and the one after revalidates. *)
  let svc, eng = fresh () in
  let s = sub ~epsilon:0.5 ~every:2 "top1" in
  warm svc s;
  let n = register eng s in
  let planned () = List.filter_map planned_of (E.tick eng) in
  checkb "epoch 1 hits the one-shot's plan" true (planned () = [ E.Revalidated ]);
  ignore (S.Service.set_calibration svc (mild_calibration ()));
  checkb "epoch 2 is off cadence" true (planned () = []);
  checkb "epoch 3 re-plans" true (planned () = [ E.Replanned ]);
  checkb "epoch 4 is off cadence" true (planned () = []);
  checkb "epoch 5 revalidates" true (planned () = [ E.Revalidated ]);
  let v = view eng n in
  checki "never cold" 0 v.E.cold;
  checki "exactly one re-plan" 1 v.E.replans;
  checki "two revalidations" 2 v.E.revalidations

(* ---------------- window refusal and recovery ---------------- *)

let test_window_refusal_and_recovery () =
  let reg = Arb_obs.Metrics.create () in
  let svc, eng = fresh ~metrics:reg () in
  let c =
    register eng
      (sub ~epsilon:0.5 ~every:1
         ~window:(win ~epochs:3 ~epsilon:1.0 ~delta:1e-5 ~compose:3 ())
         "top1")
  in
  ignore (E.run_epochs eng 2);
  checki "two executed epochs" 2 (view eng c).E.runs;
  let budget_before = S.Service.budget_left svc in
  let spent_before =
    match (view eng c).E.window with
    | Some w -> B.Window.spent w
    | None -> Alcotest.fail "windowed session lost its window"
  in
  (match E.tick eng with
  | [ { E.er_outcome = E.Window_refused reason; _ } ] ->
      checkb "refusal explains the exhaustion" true
        (let rec find i =
           i + 7 <= String.length reason
           && (String.sub reason i 7 = "expires" || find (i + 1))
         in
         find 0)
  | _ -> Alcotest.fail "exhausted window did not refuse epoch 3");
  checkb "service budget byte-identical across the refusal" true
    (B.equal budget_before (S.Service.budget_left svc));
  (match (view eng c).E.window with
  | Some w ->
      checkb "window spend byte-identical across the refusal" true
        (B.equal spent_before (B.Window.spent w))
  | None -> Alcotest.fail "window vanished");
  (* Epoch 4: the epoch-1 charge expires; the refund re-opens the window. *)
  (match E.tick eng with
  | [ { E.er_outcome = E.Ran { status = "executed"; _ }; er_refunded; _ } ] -> (
      match (view eng c).E.last_cost with
      | Some cost ->
          checkb "recovery refund is exactly the expired charge" true
            (B.equal er_refunded cost)
      | None -> Alcotest.fail "no recorded cost")
  | _ -> Alcotest.fail "expiry refund did not revive the session");
  checki "exactly one refusal recorded" 1 (view eng c).E.window_refusals;
  checki "window-refusal counter" 1
    (counter reg "arb_continual_window_refusals_total")

(* ---------------- state carryover ---------------- *)

let test_no_carry_differential () =
  (* Carried state only smooths the estimate: the engine's epoch-k raw
     outputs must equal the k-th submission of a from-scratch one-shot run
     on the same service parameters — the continual layer adds
     scheduling, not arithmetic. *)
  let k = 3 in
  let _svc, eng = fresh () in
  let n = register eng (sub ~epsilon:0.5 ~every:1 "top1") in
  let epochs = E.run_epochs eng k in
  let continual_outputs =
    List.map
      (fun records ->
        outputs_of (List.find (fun r -> r.E.er_session = n) records))
      epochs
  in
  let scratch, _ = fresh () in
  let scratch_outputs =
    List.init k (fun _ ->
        ignore (S.Service.submit scratch (sub ~epsilon:0.5 "top1"));
        match S.Service.drain scratch with
        | [ { S.Lifecycle.status = S.Lifecycle.Executed { outputs }; _ } ] ->
            outputs
        | _ -> Alcotest.fail "scratch run did not execute")
  in
  List.iteri
    (fun i (c, s) ->
      checkb (Printf.sprintf "epoch %d output matches from-scratch" (i + 1))
        true (c = s))
    (List.combine continual_outputs scratch_outputs)

let test_carry_convergence () =
  (* Carried heavy-hitter state converges on the modal output across
     epochs, and its epoch counter saw every run. *)
  let k = 5 in
  let _svc, eng = fresh () in
  let n = register eng (sub ~epsilon:0.5 ~every:1 "top1") in
  let epochs = E.run_epochs eng k in
  let per_epoch =
    List.map
      (fun records ->
        outputs_of (List.find (fun r -> r.E.er_session = n) records))
      epochs
  in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun o ->
      Hashtbl.replace counts o (1 + Option.value (Hashtbl.find_opt counts o) ~default:0))
    per_epoch;
  let modal, _ =
    Hashtbl.fold
      (fun o c (bo, bc) -> if c > bc || (c = bc && o < bo) then (o, c) else (bo, bc))
      counts ([ "" ], 0)
  in
  let v = view eng n in
  checkb "carried estimate is the modal epoch output" true
    (E.estimate v = modal);
  checki "state folded every epoch" k
    (J.to_int (J.member "epochs" (Ms.to_json v.E.state)))

let test_mstate_roundtrip () =
  let st = Ms.create Ms.Winners in
  let st = Ms.update st ~outputs:[ "a"; "b" ] in
  let st = Ms.update st ~outputs:[ "a"; "b" ] in
  let st = Ms.update st ~outputs:[ "c" ] in
  checkb "winners estimate is modal" true (Ms.estimate st = Some [ "a"; "b" ]);
  let sk = Ms.create ~capacity:4 Ms.Sketch in
  let sk =
    List.fold_left
      (fun acc v -> Ms.update acc ~outputs:[ v ])
      sk
      [ "5"; "1"; "9"; "3"; "7"; "2"; "8" ]
  in
  match Ms.estimate sk with
  | Some [ v ] ->
      checkb "sketch estimate is a held sample" true
        (List.mem v [ "1"; "2"; "3"; "5"; "7"; "8"; "9" ])
  | _ -> Alcotest.fail "sketch estimate missing"

(* ---------------- multi-epoch determinism ---------------- *)

let test_worker_count_invisible_across_epochs () =
  let run workers =
    let svc, eng = fresh () in
    ignore
      (register eng
         (sub ~epsilon:0.5 ~every:1
            ~window:(win ~epochs:4 ~epsilon:4.0 ~delta:1e-4 ())
            "top1"));
    ignore (register eng (sub ~epsilon:0.4 ~every:2 "median"));
    let epochs = E.run_epochs ~workers eng 4 in
    ( String.concat "\n" (List.map E.records_string epochs),
      S.Lifecycle.records_to_string ~timings:false (S.Service.history svc),
      S.Service.budget_left svc )
  in
  let c1, l1, b1 = run 1 in
  List.iter
    (fun workers ->
      let c, l, b = run workers in
      checkb
        (Printf.sprintf "continual records byte-identical at workers=%d" workers)
        true (c = c1);
      checkb
        (Printf.sprintf "lifecycle records byte-identical at workers=%d" workers)
        true (l = l1);
      checkb (Printf.sprintf "budget identical at workers=%d" workers) true
        (B.equal b b1))
    [ 2; 4 ]

(* Settle reads lifecycle records without polling. A drain takes its batch
   and appends the batch's records while it holds the drain lock, so when a
   tick's own drain returns, every submission the tick enqueued has its
   record even if another domain's drain took it (as the HTTP executor's
   can). A second domain drains in a loop while the ticks run: the records
   must equal a plain run's, and none may settle as missing. *)
let test_settle_under_concurrent_drains () =
  let run ~racer =
    let svc, eng = fresh () in
    (* One session: the racing drain then takes a whole epoch's batch
       whenever it wins the window between the tick's submit and its own
       drain call. *)
    ignore (register eng (sub ~epsilon:0.5 ~every:1 "top1"));
    let stop = Atomic.make false and taken = Atomic.make 0 in
    let drainer =
      Domain.spawn (fun () ->
          while racer && not (Atomic.get stop) do
            if S.Service.drain svc <> [] then Atomic.incr taken
            else Domain.cpu_relax ()
          done)
    in
    let epochs = List.concat (E.run_epochs eng 8) in
    Atomic.set stop true;
    Domain.join drainer;
    ( epochs,
      S.Lifecycle.records_to_string ~timings:false (S.Service.history svc),
      Atomic.get taken )
  in
  let e1, l1, _ = run ~racer:false in
  let e, l, taken = run ~racer:true in
  Printf.printf "the racing domain drained %d non-empty batches\n" taken;
  checkb "no record settled as missing" true
    (List.for_all
       (fun r ->
         match r.E.er_outcome with
         | E.Ran { status; _ } -> status <> "missing"
         | _ -> true)
       e);
  checks "continual records unchanged by a racing drainer"
    (E.records_string e1) (E.records_string e);
  checks "lifecycle records unchanged by a racing drainer" l1 l

(* A tick publishes every session at once, so a reader on another domain
   sees each session as of one completed tick: its counters agree with its
   history, and a windowed session's window has advanced exactly as far
   as its newest record. The test domain reads in a loop while a second
   domain runs the ticks. *)
let test_views_are_whole_ticks () =
  let _svc, eng = fresh () in
  ignore
    (register eng
       (sub ~epsilon:0.5 ~every:1
          ~window:(win ~epochs:3 ~epsilon:4.0 ~delta:1e-4 ())
          "top1"));
  ignore (register eng (sub ~epsilon:0.4 ~every:1 "median"));
  let finished = Atomic.make false in
  let ticker =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () -> E.run_epochs eng 4))
  in
  let count pred (s : E.session) =
    List.length
      (List.filter
         (fun r ->
           match r.E.er_outcome with
           | E.Ran { status; _ } -> pred status
           | _ -> false)
         s.E.history)
  in
  let torn (s : E.session) =
    let newest = match s.E.history with r :: _ -> r.E.er_epoch | [] -> 0 in
    List.filter_map
      (fun (what, ok) -> if ok then None else Some (s.E.name ^ ": " ^ what))
      [
        ("runs disagree with history",
         s.E.runs = count (( = ) "executed") s);
        ("plan counters disagree with history",
         s.E.cold + s.E.replans + s.E.revalidations
         = count (fun st -> st <> "refused" && st <> "missing") s);
        ("window is not at the newest record's epoch",
         match s.E.window with
         | None -> true
         | Some w -> B.Window.epoch w = newest);
      ]
  in
  let reads = ref 0 and failures = ref [] in
  while not (Atomic.get finished) do
    incr reads;
    failures := List.concat_map torn (E.sessions eng) @ !failures
  done;
  let epochs = Domain.join ticker in
  Printf.printf "%d reads during the ticks, %d torn\n" !reads
    (List.length !failures);
  checki "four epochs ran" 4 (List.length epochs);
  checki "top1 executed every epoch" 4 (view eng "top1").E.runs;
  checki "median executed every epoch" 4 (view eng "median").E.runs;
  checkb
    (match !failures with
    | [] -> "no torn read"
    | f :: _ -> Printf.sprintf "torn read: %s" f)
    true (!failures = [])

(* ---------------- views and JSON surface ---------------- *)

let test_session_json_surface () =
  let _svc, eng = fresh () in
  let n =
    register eng
      (sub ~epsilon:0.5 ~every:1
         ~window:(win ~epochs:3 ~epsilon:2.0 ~delta:1e-5 ~compose:3 ())
         "top1")
  in
  ignore (E.run_epochs eng 2);
  let contains s needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    nl = 0 || go 0
  in
  let summary = J.to_string (E.session_summary_json (view eng n)) in
  List.iter
    (fun field -> checkb ("summary has " ^ field) true (contains summary field))
    [ "\"name\""; "\"runs\""; "\"revalidations\""; "\"window\"";
      "\"composed\""; "\"projectedComposed\"" ];
  let detail = J.to_string (E.session_json (view eng n)) in
  checkb "detail has history" true (contains detail "\"history\"");
  (* The live window and its losses are served with the sessions index
     (GET /v1/sessions); GET /v1/budget is the global balance alone. *)
  let index = J.to_string (E.to_json eng) in
  List.iter
    (fun field -> checkb ("index has " ^ field) true (contains index field))
    [ "\"epoch\""; "\"sessions\""; "\"window\""; "\"composed\"";
      "\"projectedComposed\"" ];
  (* records_string is wall-clock-free canonical bytes *)
  let records = List.concat (E.run_epochs eng 1) in
  checks "records_string reproduces" (E.records_string records)
    (E.records_string records)

let () =
  Alcotest.run "continual"
    [
      ( "workload",
        [
          Alcotest.test_case "typed recurring validation" `Quick
            test_validate_recurring;
          Alcotest.test_case "malformed specs rejected at load" `Quick
            test_workload_json_rejects_malformed;
        ] );
      ( "engine",
        [
          Alcotest.test_case "registration" `Quick test_register;
          Alcotest.test_case "cadence and revalidation" `Quick
            test_cadence_and_revalidation;
          Alcotest.test_case "drift forces exactly one re-plan" `Quick
            test_install_replans_each_session_once;
          Alcotest.test_case "warm session re-plans at its next due epoch"
            `Quick test_install_replans_warm_session_at_next_due_epoch;
          Alcotest.test_case "window refusal and recovery" `Quick
            test_window_refusal_and_recovery;
        ] );
      ( "state",
        [
          Alcotest.test_case "no-carry differential" `Quick
            test_no_carry_differential;
          Alcotest.test_case "carried convergence" `Quick test_carry_convergence;
          Alcotest.test_case "mechanism-state roundtrip" `Quick
            test_mstate_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "multi-epoch worker byte-identity" `Quick
            test_worker_count_invisible_across_epochs;
          Alcotest.test_case "settle under a concurrent drainer" `Quick
            test_settle_under_concurrent_drains;
          Alcotest.test_case "views are whole ticks" `Quick
            test_views_are_whole_ticks;
        ] );
      ( "surface",
        [
          Alcotest.test_case "session json surface" `Quick
            test_session_json_surface;
        ] );
    ]
