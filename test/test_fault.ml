(* Chaos and property tests for the deterministic fault-injection harness.

   The central invariant: a faulted run either produces the same output as
   the clean run with the same seed (faults absorbed), or fails closed with
   a typed error and an intact DP budget. On top of that, qcheck properties
   pin down replayability: the same seed gives byte-identical traces. *)

module R = Arb_runtime
module Q = Arb_queries.Registry
module L = Arb_lang
module P = Arb_planner
module Rng = Arb_util.Rng
module Fault = R.Fault

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let big_budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.5

let config ?(seed = 1L) ?(faults = Fault.no_faults) ?(workers = 1) () =
  {
    R.Exec.default_config with
    R.Exec.seed;
    budget = big_budget;
    faults;
    workers;
  }

(* One planned (query, db, plan) context per query name, shared across
   scenarios. Skew 2.0 keeps argmax margins decisive, so recovery actions
   that shift the session RNG cannot flip an integer winner at the chaos
   suite's huge epsilon. *)
let context =
  let cache = Hashtbl.create 8 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some c -> c
    | None ->
        let q = Q.test_instance ~epsilon:1000.0 name in
        let db = Q.random_database (Rng.create 99L) q ~n:64 ~skew:2.0 () in
        let r =
          P.Search.plan ~limits:P.Constraints.no_limits ~query:q
            ~n:(Array.length db) ()
        in
        let plan =
          match r.P.Search.plan with
          | Some p -> p
          | None -> Alcotest.fail ("no plan for " ^ name)
        in
        let c = (q, db, plan) in
        Hashtbl.add cache name c;
        c

let exec cfg ~query ~plan ~db = R.Exec.run_source cfg ~query ~plan ~src:(R.Exec.source_of_db db)

let exec_run ?(faults = Fault.no_faults) ?workers ~seed name =
  let q, db, plan = context name in
  exec (config ~seed ~faults ?workers ()) ~query:q ~plan ~db

let clean_report ~seed name =
  match exec_run ~seed name with
  | Ok r -> r
  | Error f ->
      Alcotest.fail
        (Format.asprintf "clean run of %s failed: %a" name R.Exec.pp_failure f)

(* Equality up to DP noise: integers must match exactly (at epsilon 1000
   over a skew-2.0 database the noise cannot flip a count margin); noisy
   fixpoint outputs may differ by the recovery-shifted noise draws. *)
let noise_tol = 1.0

let rec value_close (a : L.Interp.value) (b : L.Interp.value) =
  match (a, b) with
  | L.Interp.V_int x, L.Interp.V_int y -> x = y
  | V_bool x, V_bool y -> x = y
  | V_arr x, V_arr y ->
      Array.length x = Array.length y
      && Array.for_all2 value_close x y
  | _ ->
      Float.abs (L.Interp.as_float a -. L.Interp.as_float b) <= noise_tol

let outputs_close a b =
  List.length a = List.length b && List.for_all2 value_close a b

(* ---------------- the chaos sweep ---------------- *)

let single_fault_specs =
  [
    ("committee_dropout", { Fault.no_faults with Fault.dropout_p = 0.5 });
    ("share_corruption", { Fault.no_faults with Fault.share_corrupt_p = 0.15 });
    ("message_drop", { Fault.no_faults with Fault.message_drop_p = 0.2 });
    ("message_delay", { Fault.no_faults with Fault.message_delay_p = 0.5 });
    ("ciphertext_tamper", { Fault.no_faults with Fault.tamper_p = 0.5 });
    ("audit_failure", { Fault.no_faults with Fault.audit_fail_p = 0.5 });
  ]

let scenario_seeds = [ 2L; 3L; 5L; 7L; 11L; 13L ]

(* Every scenario must satisfy the invariant; returns whether the fault
   plan actually perturbed the run (injected > 0), so the sweep can assert
   it exercised real faults and not 30 clean runs. *)
let check_scenario ~name ~query ~seed spec =
  let clean = clean_report ~seed query in
  match exec_run ~faults:spec ~seed query with
  | Ok r ->
      checkb
        (Printf.sprintf "%s seed %Ld: absorbed faults preserve the output"
           name seed)
        true
        (outputs_close clean.R.Exec.outputs r.R.Exec.outputs);
      checkb
        (Printf.sprintf "%s seed %Ld: absorbed faults leave the budget alone"
           name seed)
        true
        (Arb_dp.Budget.equal clean.R.Exec.certificate.R.Setup.budget_left
           r.R.Exec.certificate.R.Setup.budget_left);
      checkb
        (Printf.sprintf "%s seed %Ld: released outputs imply audit ok" name seed)
        true
        (r.R.Exec.audit_ok && r.R.Exec.certificate_ok);
      R.Trace.faults_total r.R.Exec.trace > 0
  | Error f ->
      (* Fail closed: a typed stage, never a raw exception. *)
      checkb
        (Printf.sprintf "%s seed %Ld: failure is typed (%s)" name seed
           f.R.Exec.stage)
        true
        (List.mem f.R.Exec.stage
           [ "certificate"; "audit"; "degraded"; "execute"; "mpc"; "budget" ]);
      true

let test_chaos_single_faults () =
  let scenarios = ref 0 and perturbed = ref 0 in
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun seed ->
          incr scenarios;
          if check_scenario ~name ~query:"top1" ~seed spec then incr perturbed)
        scenario_seeds)
    single_fault_specs;
  checkb "sweep ran at least 30 scenarios" true (!scenarios >= 30);
  checkb
    (Printf.sprintf "most scenarios injected real faults (%d/%d)" !perturbed
       !scenarios)
    true
    (!perturbed * 2 >= !scenarios)

let test_chaos_all_faults_other_queries () =
  List.iter
    (fun query ->
      List.iter
        (fun seed ->
          ignore (check_scenario ~name:("chaos/" ^ query) ~query ~seed Fault.chaos))
        [ 17L; 23L ])
    [ "gap"; "median"; "auction" ]

(* Corruption beyond the robust-decoding radius must abort, never release
   a wrong answer: with 5 parties and threshold 2 the radius is 1, so two
   corrupted parties are uncorrectable. *)
let test_corruption_beyond_radius_fails_closed () =
  let spec =
    { Fault.no_faults with Fault.share_corrupt_p = 1.0; corrupt_parties = 2 }
  in
  match exec_run ~faults:spec ~seed:5L "top1" with
  | Ok _ -> Alcotest.fail "uncorrectable corruption must not release outputs"
  | Error f ->
      checkb "typed mpc/execute failure" true
        (f.R.Exec.stage = "mpc" || f.R.Exec.stage = "execute")

(* Within the radius, every opening self-heals and the cheater shows up in
   the trace. *)
let test_corruption_within_radius_self_heals () =
  let spec =
    { Fault.no_faults with Fault.share_corrupt_p = 1.0; corrupt_parties = 1 }
  in
  let clean = clean_report ~seed:5L "top1" in
  match exec_run ~faults:spec ~seed:5L "top1" with
  | Error f ->
      Alcotest.fail
        (Format.asprintf "radius-1 corruption should be absorbed: %a"
           R.Exec.pp_failure f)
  | Ok r ->
      checkb "output preserved" true
        (outputs_close clean.R.Exec.outputs r.R.Exec.outputs);
      checkb "cheater recorded in the trace" true
        (r.R.Exec.trace.R.Trace.shares_corrected > 0)

let test_tamper_always_detected () =
  let spec = { Fault.no_faults with Fault.tamper_p = 1.0 } in
  List.iter
    (fun seed ->
      match exec_run ~faults:spec ~seed "top1" with
      | Ok _ -> Alcotest.fail "tampered aggregation must not release outputs"
      | Error f ->
          checks "audit catches the tamper" "audit" f.R.Exec.stage;
          (* The reason counts the failed challenges: "F of N audit
             spot-checks failed; ...". *)
          checkb
            (Printf.sprintf "failed challenges reported (%s)" f.R.Exec.reason)
            true
            (Scanf.sscanf f.R.Exec.reason "%d of %d " (fun failed total ->
                 failed > 0 && failed <= total)))
    [ 1L; 2L; 3L ]

(* Runs refused before any protocol step fail closed too, with a typed
   stage rather than an exception: 12 devices cannot seat 5-member
   committees, and epsilon 1000 does not fit a budget of 10. *)
let test_refused_runs_fail_closed () =
  let q, db, plan = context "top1" in
  List.iter
    (fun (cfg, db, stage, reason) ->
      match exec cfg ~query:q ~plan ~db with
      | Ok _ -> Alcotest.failf "a %s refusal must not release outputs" stage
      | Error f ->
          checks (stage ^ " stage") stage f.R.Exec.stage;
          checks (stage ^ " reason") reason f.R.Exec.reason)
    [
      ( config (), Array.sub db 0 12, "execute",
        "need at least 20 devices for 5-member committees" );
      ( { (config ()) with R.Exec.budget = R.Exec.default_config.R.Exec.budget },
        db, "budget", "privacy budget exhausted" );
    ]

let test_all_auditors_down_degrades () =
  let spec = { Fault.no_faults with Fault.audit_fail_p = 1.0 } in
  match exec_run ~faults:spec ~seed:1L "top1" with
  | Ok _ -> Alcotest.fail "no auditors means no release"
  | Error f -> checks "degraded stage" "degraded" f.R.Exec.stage

let test_forced_dropout_at_round () =
  (* dropout_at forces the k-th committee pick to fail even with zero
     probability everywhere else; one reassignment absorbs it. *)
  let spec = { Fault.no_faults with Fault.dropout_at = Some 0 } in
  let clean = clean_report ~seed:4L "top1" in
  match exec_run ~faults:spec ~seed:4L "top1" with
  | Error f ->
      Alcotest.fail
        (Format.asprintf "single forced dropout should be absorbed: %a"
           R.Exec.pp_failure f)
  | Ok r ->
      checkb "committee was reassigned" true
        (r.R.Exec.trace.R.Trace.committees_reassigned >= 1);
      checkb "recovery recorded" true
        (List.assoc "committee_dropout" r.R.Exec.trace.R.Trace.fault_recoveries
         >= 1);
      checkb "output preserved" true
        (outputs_close clean.R.Exec.outputs r.R.Exec.outputs)

let test_backoff_exhaustion_fails_closed () =
  (* A zero backoff budget turns the first retry-requiring fault into a
     typed failure instead of a loop. *)
  let spec =
    {
      Fault.no_faults with
      Fault.message_drop_p = 0.8;
      backoff_budget_s = 0.0;
    }
  in
  match exec_run ~faults:spec ~seed:3L "top1" with
  | Ok r ->
      (* Possible but vanishingly unlikely: every message got through on
         the first try. Accept only if genuinely nothing was lost. *)
      checki "no lost uploads if Ok" 0 r.R.Exec.trace.R.Trace.lost_uploads
  | Error f -> checks "degraded stage" "degraded" f.R.Exec.stage

(* ---------------- chaos inside sampled cohorts ---------------- *)

(* Sharded runs confine faults to the materialized (sampled) cohorts — the
   streamed remainder is exact arithmetic with nothing to drop or tamper.
   The chaos invariant is unchanged: absorb and release the clean answer,
   or fail closed with a typed stage; and the extrapolated accounting must
   still cover every device after recovery. *)

let cohort_sharding = R.Exec.Sharded { cohort_size = 16; sampled_cohorts = 2 }

let exec_run_sharded ?(faults = Fault.no_faults) ?(byz = 0.0) ~seed name =
  let q, db, plan = context name in
  exec
    {
      (config ~seed ~faults ()) with
      R.Exec.sharding = cohort_sharding;
      byzantine_fraction = byz;
    }
    ~query:q ~plan ~db

let test_cohort_chaos_absorbed_or_typed () =
  let n = 64 in
  let perturbed = ref 0 in
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun seed ->
          let clean =
            match exec_run_sharded ~seed "top1" with
            | Ok r -> r
            | Error f ->
                Alcotest.fail
                  (Format.asprintf "clean sharded run failed: %a"
                     R.Exec.pp_failure f)
          in
          match exec_run_sharded ~faults:spec ~seed "top1" with
          | Ok r ->
              checkb
                (Printf.sprintf "cohort %s seed %Ld: absorbed => clean output"
                   name seed)
                true
                (outputs_close clean.R.Exec.outputs r.R.Exec.outputs);
              checki
                (Printf.sprintf
                   "cohort %s seed %Ld: accounting covers every device after \
                    recovery"
                   name seed)
                n
                (r.R.Exec.accepted_inputs + r.R.Exec.rejected_inputs);
              checkb
                (Printf.sprintf "cohort %s seed %Ld: release implies audit ok"
                   name seed)
                true
                (r.R.Exec.audit_ok && r.R.Exec.certificate_ok);
              if R.Trace.faults_total r.R.Exec.trace > 0 then incr perturbed
          | Error f ->
              checkb
                (Printf.sprintf "cohort %s seed %Ld: failure is typed (%s)" name
                   seed f.R.Exec.stage)
                true
                (List.mem f.R.Exec.stage
                   [ "certificate"; "audit"; "degraded"; "execute"; "mpc"; "budget" ]);
              incr perturbed)
        [ 2L; 7L; 13L ])
    single_fault_specs;
  checkb "cohort chaos actually perturbed runs" true (!perturbed >= 6)

let test_cohort_chaos_byzantine_extrapolation () =
  (* Byzantine devices live in sampled and unsampled cohorts alike (the
     flags are per-device PRF draws): under simultaneous upload faults the
     sharded run must still reject exactly the devices the full run
     rejects, with the unsampled share coming from extrapolation. *)
  let spec = { Fault.no_faults with Fault.message_drop_p = 0.2 } in
  List.iter
    (fun seed ->
      let q, db, plan = context "top1" in
      let full =
        exec
          { (config ~seed ~faults:spec ()) with R.Exec.byzantine_fraction = 0.25 }
          ~query:q ~plan ~db
      in
      match (full, exec_run_sharded ~faults:spec ~byz:0.25 ~seed "top1") with
      | Ok f, Ok s ->
          checkb
            (Printf.sprintf "seed %Ld: byzantine devices were rejected" seed)
            true (s.R.Exec.rejected_inputs > 0);
          checki
            (Printf.sprintf "seed %Ld: sharded rejects what full rejects" seed)
            f.R.Exec.rejected_inputs s.R.Exec.rejected_inputs;
          checki
            (Printf.sprintf "seed %Ld: sharded accepts what full accepts" seed)
            f.R.Exec.accepted_inputs s.R.Exec.accepted_inputs
      | Error ff, Error sf ->
          checks
            (Printf.sprintf "seed %Ld: both modes fail at the same stage" seed)
            ff.R.Exec.stage sf.R.Exec.stage
      | Ok _, Error f | Error f, Ok _ ->
          (* Fault schedules legitimately differ between modes (fewer
             transmits in sharded mode), so one mode may absorb what the
             other cannot — but a failure must still be typed. *)
          checkb
            (Printf.sprintf "seed %Ld: divergent result is typed (%s)" seed
               f.R.Exec.stage)
            true
            (List.mem f.R.Exec.stage
               [ "certificate"; "audit"; "degraded"; "execute"; "mpc"; "budget" ]))
    [ 3L; 11L ]

let prop_cohort_chaos_deterministic =
  QCheck.Test.make ~name:"sharded chaos replays byte-identically" ~count:6
    QCheck.(int_range 1 10_000)
    (fun s ->
      let seed = Int64.of_int s in
      let go () = exec_run_sharded ~faults:Fault.chaos ~seed "top1" in
      match (go (), go ()) with
      | Ok a, Ok b ->
          a.R.Exec.outputs = b.R.Exec.outputs
          && String.equal
               (Arb_util.Json.to_string (R.Trace.to_json a.R.Exec.trace))
               (Arb_util.Json.to_string (R.Trace.to_json b.R.Exec.trace))
          && a.R.Exec.audit_root = b.R.Exec.audit_root
      | Error fa, Error fb ->
          fa.R.Exec.stage = fb.R.Exec.stage && fa.R.Exec.reason = fb.R.Exec.reason
      | _ -> false)

(* ---------------- determinism properties ---------------- *)

let trace_string (r : R.Exec.report) =
  Arb_util.Json.to_string (R.Trace.to_json r.R.Exec.trace)

let run_twice_identical ~faults seed =
  let a = exec_run ~faults ~seed "top1" in
  let b = exec_run ~faults ~seed "top1" in
  match (a, b) with
  | Ok ra, Ok rb ->
      ra.R.Exec.outputs = rb.R.Exec.outputs
      && String.equal (trace_string ra) (trace_string rb)
      && ra.R.Exec.audit_root = rb.R.Exec.audit_root
  | Error fa, Error fb ->
      fa.R.Exec.stage = fb.R.Exec.stage && fa.R.Exec.reason = fb.R.Exec.reason
  | _ -> false

(* The full chaos spec replays identically when the per-member and
   per-device stages fan out: every fault and session draw stays on the
   calling domain, in canonical order. *)
let test_chaos_replay_across_workers () =
  List.iter
    (fun (query, seed) ->
      let case = Printf.sprintf "%s seed %Ld" query seed in
      match
        ( exec_run ~faults:Fault.chaos ~workers:1 ~seed query,
          exec_run ~faults:Fault.chaos ~workers:2 ~seed query )
      with
      | Ok a, Ok b ->
          checks (case ^ ": trace json") (trace_string a) (trace_string b);
          checks (case ^ ": audit root") a.R.Exec.audit_root b.R.Exec.audit_root;
          checkb (case ^ ": outputs") true (a.R.Exec.outputs = b.R.Exec.outputs)
      | Error a, Error b ->
          checks (case ^ ": failure stage") a.R.Exec.stage b.R.Exec.stage;
          checks (case ^ ": failure reason") a.R.Exec.reason b.R.Exec.reason
      | _ -> Alcotest.failf "%s: released at one worker count only" case)
    [ ("top1", 17L); ("top1", 23L); ("gap", 17L); ("median", 23L); ("auction", 17L) ]

let prop_same_seed_same_trace =
  QCheck.Test.make ~name:"same seed => byte-identical trace (chaos spec)"
    ~count:8
    QCheck.(int_range 1 10_000)
    (fun s -> run_twice_identical ~faults:Fault.chaos (Int64.of_int s))

let prop_same_seed_same_trace_clean =
  QCheck.Test.make ~name:"same seed => byte-identical trace (no faults)"
    ~count:5
    QCheck.(int_range 1 10_000)
    (fun s -> run_twice_identical ~faults:Fault.no_faults (Int64.of_int s))

let prop_injector_schedule_deterministic =
  (* Two injectors with the same seed agree on every decision, regardless
     of which kinds the runtime happens to ask about in between. *)
  QCheck.Test.make ~name:"fault schedule depends only on (seed, spec, site)"
    ~count:200
    QCheck.(pair (int_range 0 10_000) (small_list (int_range 0 5)))
    (fun (seed, kinds) ->
      let kinds = List.map (fun i -> List.nth Fault.all_kinds i) kinds in
      let a = Fault.create ~seed:(Int64.of_int seed) Fault.chaos in
      let b = Fault.create ~seed:(Int64.of_int seed) Fault.chaos in
      List.for_all (fun k -> Fault.fires a k = Fault.fires b k) kinds)

let prop_backoff_respects_budget =
  QCheck.Test.make ~name:"backoff never exceeds its budget" ~count:200
    QCheck.(pair (int_range 0 1000) (float_range 0.0 2.0))
    (fun (seed, budget) ->
      let spec = { Fault.chaos with Fault.backoff_budget_s = budget } in
      let t = Fault.create ~seed:(Int64.of_int seed) spec in
      let total = ref 0.0 in
      let exhausted = ref false in
      for attempt = 0 to 19 do
        match Fault.backoff t ~attempt with
        | Some d -> total := !total +. d
        | None -> exhausted := true
      done;
      !total <= budget +. 1e-9
      && Float.abs (Fault.backoff_spent t -. !total) <= 1e-9)

let prop_transmit_deterministic =
  QCheck.Test.make ~name:"Net.transmit replays exactly from the fault seed"
    ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let mk () =
        let inj = Fault.create ~seed:(Int64.of_int seed) Fault.chaos in
        let link =
          R.Net.lossy R.Net.lan
            ~drop:(fun () -> Fault.fires inj Fault.Message_drop)
            ~delay:(fun () ->
              if Fault.fires inj Fault.Message_delay then 0.25 else 0.0)
        in
        List.init 20 (fun _ ->
            R.Net.transmit link ~max_attempts:4 ~backoff:(fun a ->
                Fault.backoff inj ~attempt:a))
      in
      mk () = mk ())

(* ---------------- session lifecycle under faults ---------------- *)

let session_db () =
  let q = Q.test_instance ~epsilon:2.0 "top1" in
  (q, Q.random_database (Rng.create 42L) q ~n:64 ~skew:2.0 ())

(* A session runs the plan it is handed: plan this query for the
   population, then run it. *)
let session_run session ~db q =
  let r =
    P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:(Array.length db)
      ()
  in
  R.Session.run session ~db ~plan:(Option.get r.P.Search.plan) q

let test_session_faulted_query_leaves_state_intact () =
  let q, db = session_db () in
  let cfg = config ~faults:{ Fault.no_faults with Fault.tamper_p = 1.0 } () in
  let budget = Arb_dp.Budget.create ~epsilon:10.0 ~delta:1e-3 in
  let session =
    R.Session.create ~config:cfg ~budget ~devices:(Array.length db) ()
  in
  (match session_run session ~db q with
  | Ok _ -> Alcotest.fail "tampered session query must fail closed"
  | Error m -> checkb "error mentions the audit stage" true (contains m "audit"));
  checkb "budget intact after the failure" true
    (Arb_dp.Budget.equal budget (R.Session.budget_left session));
  checki "no query committed" 0 (R.Session.queries_run session);
  checkb "empty chain still verifies" true (R.Session.chain_verifies session)

let test_session_recovers_after_failure () =
  (* Same session object: a run that fails closed must not poison the
     chain — the next (recoverable) query succeeds and charges normally. *)
  let q, db = session_db () in
  let cfg =
    config ~faults:{ Fault.no_faults with Fault.dropout_at = Some 0 } ()
  in
  let budget = Arb_dp.Budget.create ~epsilon:10.0 ~delta:1e-3 in
  let session =
    R.Session.create ~config:cfg ~budget ~devices:(Array.length db) ()
  in
  (match session_run session ~db q with
  | Ok qr ->
      checkb "forced dropout absorbed inside the session" true
        (qr.R.Session.report.R.Exec.trace.R.Trace.committees_reassigned >= 1)
  | Error m -> Alcotest.fail m);
  checki "one query committed" 1 (R.Session.queries_run session);
  checkb "budget was charged" true
    ((R.Session.budget_left session).Arb_dp.Budget.epsilon < 10.0 -. 1.9);
  checkb "chain verifies" true (R.Session.chain_verifies session)

let test_session_budget_depletion_refuses_next () =
  let q, db = session_db () in
  let budget = Arb_dp.Budget.create ~epsilon:3.0 ~delta:1e-3 in
  let session =
    R.Session.create ~config:(config ()) ~budget ~devices:(Array.length db) ()
  in
  (match session_run session ~db q with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let left = R.Session.budget_left session in
  (* epsilon 2 spent of 3: the second query must be refused up front. *)
  match session_run session ~db q with
  | Ok _ -> Alcotest.fail "depleted budget must refuse the next query"
  | Error m ->
      checkb "refusal mentions the budget" true (contains m "budget");
      checkb "refusal does not spend" true
        (Arb_dp.Budget.equal left (R.Session.budget_left session));
      checki "still one query" 1 (R.Session.queries_run session)

let test_session_zero_rounds_refuses_immediately () =
  let q, db = session_db () in
  let session =
    R.Session.create ~config:(config ()) ~max_rounds:0 ~budget:big_budget
      ~devices:(Array.length db) ()
  in
  match session_run session ~db q with
  | Ok _ -> Alcotest.fail "max_rounds 0 must refuse every query"
  | Error m ->
      checkb "round-limit refusal is an Error, not an exception" true
        (contains m "round limit");
      checki "nothing ran" 0 (R.Session.queries_run session)

(* ---------------- trace rendering ---------------- *)

let test_trace_pp_shows_all_counters () =
  let r = clean_report ~seed:1L "top1" in
  let trace = r.R.Exec.trace in
  let s = Format.asprintf "%a" R.Trace.pp trace in
  let j =
    match R.Trace.to_json trace with
    | Arb_util.Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "trace JSON is not an object"
  in
  (* pp and to_json both derive from Trace.fields, whose record pattern is
     exhaustive — so checking every declared field appears in both outputs
     pins the whole chain: a counter can't reach the record without reaching
     both renderings. *)
  List.iter
    (fun name ->
      checkb (Printf.sprintf "pp mentions %S" name) true
        (contains s (name ^ "="));
      checkb (Printf.sprintf "to_json has %S" name) true (List.mem name j))
    (R.Trace.field_names trace)

let test_trace_json_roundtrips () =
  let spec = { Fault.no_faults with Fault.dropout_at = Some 0 } in
  let r =
    match exec_run ~faults:spec ~seed:4L "top1" with
    | Ok r -> r
    | Error f -> Alcotest.fail (Format.asprintf "%a" R.Exec.pp_failure f)
  in
  let j = R.Trace.to_json r.R.Exec.trace in
  let parsed = Arb_util.Json.of_string (Arb_util.Json.to_string j) in
  let module J = Arb_util.Json in
  checki "reassignments serialized" r.R.Exec.trace.R.Trace.committees_reassigned
    (J.to_int (J.member "committees_reassigned" parsed));
  checki "dropout count serialized"
    (List.assoc "committee_dropout" r.R.Exec.trace.R.Trace.faults_injected)
    (J.to_int
       (J.member "committee_dropout" (J.member "faults_injected" parsed)));
  checkb "committee costs present" true
    (List.length (J.to_list (J.member "committee_costs" parsed)) > 0)

(* ---------------- network seams (HTTP front door) ---------------- *)

(* Chaos at the socket edge, same central invariant as the runtime chaos
   suite: whatever the network does — half-sent requests, garbage bytes,
   one-byte-at-a-time stalls, restarts under load, injected accept drops
   and truncated responses — the service core either answers correctly or
   the client sees a typed failure, and service state (budget arithmetic,
   certificate chain, submission accounting) stays consistent. *)

module S = Arb_service
module H = S.Http
module DB = Arb_dp.Budget

let net_host = "127.0.0.1"

let net_sub epsilon =
  {
    S.Workload.query = "top1";
    epsilon;
    categories = None;
    goal = P.Constraints.Min_part_exp_time;
    repeat = 1;
    every = None;
    window = None;
    tolerance = None;
  }

let with_front_door ?(server_config = S.Server.default_config) f =
  let svc =
    S.Service.create
      ~budget:(Arb_dp.Budget.create ~epsilon:100.0 ~delta:0.01)
      ~devices:32 ~seed:5 ()
  in
  let api = S.Api.create ~service:svc () in
  let server =
    S.Server.start ~config:server_config ~handler:(S.Api.handler api) ()
  in
  Fun.protect
    ~finally:(fun () ->
      S.Server.stop server;
      S.Api.join api)
    (fun () -> f svc api server (S.Server.port server))

let healthz_ok port =
  match S.Client.get ~host:net_host ~port "/healthz" with
  | Ok r -> r.H.status = 200
  | Error _ -> false

let test_net_partial_request_disconnect () =
  with_front_door (fun svc _api server port ->
      let fragments =
        [
          "";
          "POST";
          "POST /v1/queries HTTP/1.1\r\n";
          "POST /v1/queries HTTP/1.1\r\ncontent-length: 500\r\n\r\n{\"query\":";
          "GET /healthz HTT";
        ]
      in
      List.iter
        (fun frag ->
          match S.Client.connect ~host:net_host ~port () with
          | Error m -> Alcotest.fail m
          | Ok conn ->
              (match S.Client.send_raw conn frag with
              | Ok () -> ()
              | Error _ -> () (* racing the close is fine *));
              S.Client.close conn)
        fragments;
      (* The server absorbed every mid-request disconnect: it still
         answers, nothing was submitted, and the budget never moved. *)
      checkb "server alive after disconnect storm" true
        (let rec retry n = healthz_ok port || (n > 0 && retry (n - 1)) in
         retry 20);
      checki "no partial submission leaked in" 0 (S.Service.submitted svc);
      checkb "budget untouched" true
        (DB.equal
           (Arb_dp.Budget.create ~epsilon:100.0 ~delta:0.01)
           (S.Service.budget_left svc));
      ignore server)

let test_net_malformed_requests_fail_closed () =
  with_front_door (fun svc _api server port ->
      let attacks =
        [
          ("GARBAGE\r\n\r\n", 400);
          ("GET / SPDY/99\r\n\r\n", 505);
          ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n", 414);
          ("POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 501);
          ("POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n", 413);
          ("GET / HTTP/1.1\r\nbad header no colon\r\n\r\n", 400);
        ]
      in
      List.iter
        (fun (wire, expect) ->
          match S.Client.connect ~host:net_host ~port () with
          | Error m -> Alcotest.fail m
          | Ok conn ->
              (match S.Client.send_raw conn wire with
              | Ok () -> ()
              | Error m -> Alcotest.fail m);
              (match S.Client.read_response ~deadline_s:5.0 conn with
              | Ok r ->
                  checki (Printf.sprintf "typed rejection for %S"
                            (String.sub wire 0 (min 20 (String.length wire))))
                    expect r.H.status
              | Error m -> Alcotest.fail ("no rejection came back: " ^ m));
              S.Client.close conn)
        attacks;
      let st = S.Server.stats server in
      checkb "malformed inputs counted" true
        (st.S.Server.bad_requests >= List.length attacks);
      checkb "server alive after malformed storm" true (healthz_ok port);
      checki "nothing submitted" 0 (S.Service.submitted svc))

let test_net_counters_precede_responses () =
  (* Regression: the server bumped its counters only after it had written
     the response and closed the socket, so a client could read a
     rejection that the stats did not show yet. Each outcome must already
     be counted when its response can be read. *)
  with_front_door
    ~server_config:
      { S.Server.default_config with S.Server.request_timeout_s = 0.4 }
    (fun _svc _api server port ->
      let exchange wire =
        match S.Client.connect ~host:net_host ~port () with
        | Error m -> Alcotest.fail m
        | Ok conn ->
            Fun.protect
              ~finally:(fun () -> S.Client.close conn)
              (fun () ->
                (match S.Client.send_raw conn wire with
                | Ok () -> ()
                | Error m -> Alcotest.fail m);
                match S.Client.read_response ~deadline_s:5.0 conn with
                | Ok r -> r.H.status
                | Error m -> Alcotest.fail ("no response came back: " ^ m))
      in
      let counted name field wire expect =
        let before = field (S.Server.stats server) in
        checki (name ^ ": status") expect (exchange wire);
        checki (name ^ ": counted when its response is read") (before + 1)
          (field (S.Server.stats server))
      in
      let bad st = st.S.Server.bad_requests in
      counted "garbage" bad "GARBAGE\r\n\r\n" 400;
      counted "bad version" bad "GET / SPDY/99\r\n\r\n" 505;
      counted "chunked body" bad
        "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n" 501;
      counted "oversized body" bad
        "POST / HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n" 413;
      counted "stalled request"
        (fun st -> st.S.Server.timeouts)
        "GET /healthz HTTP/1.1\r\n" 408;
      counted "answered request"
        (fun st -> st.S.Server.served)
        "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n" 200)

let test_net_slowloris_stall () =
  with_front_door
    ~server_config:
      { S.Server.default_config with S.Server.request_timeout_s = 0.4 }
    (fun _svc _api server port ->
      (match S.Client.connect ~host:net_host ~port () with
      | Error m -> Alcotest.fail m
      | Ok conn ->
          (* Drip a valid request one fragment at a time, slower than the
             whole-request deadline allows. Per-read timeouts would keep
             resetting; the deadline must not. *)
          let fragments = [ "GET /he"; "althz H"; "TTP/1."; "1\r\nhos" ] in
          List.iter
            (fun frag ->
              ignore (S.Client.send_raw conn frag);
              Unix.sleepf 0.15)
            fragments;
          (match S.Client.read_response ~deadline_s:5.0 conn with
          | Ok r -> checki "stalled request answered 408" 408 r.H.status
          | Error m -> Alcotest.fail ("expected 408: " ^ m));
          S.Client.close conn);
      let st = S.Server.stats server in
      checkb "timeout counted" true (st.S.Server.timeouts >= 1);
      checkb "server alive after stall" true (healthz_ok port))

let test_net_stop_start_overlap_under_load () =
  (* Shutdown races live traffic: every in-flight client must see either a
     valid response or a clean error (never a hang), the service keeps its
     invariants, and the same service can come straight back up on a new
     front door. *)
  let svc =
    S.Service.create
      ~budget:(Arb_dp.Budget.create ~epsilon:100.0 ~delta:0.01)
      ~devices:32 ~seed:5 ()
  in
  let api = S.Api.create ~service:svc () in
  let server = S.Server.start ~handler:(S.Api.handler api) () in
  let port = S.Server.port server in
  let keep_going = Atomic.make true in
  let clients =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let answered = ref 0 and failed = ref 0 in
            while Atomic.get keep_going do
              match S.Client.get ~timeout_s:5.0 ~host:net_host ~port "/healthz" with
              | Ok r when r.H.status = 200 -> incr answered
              | Ok _ | Error _ -> incr failed
            done;
            (!answered, !failed)))
  in
  (* Let load build, submit real work, then yank the server mid-stream. *)
  Unix.sleepf 0.2;
  (match
     S.Client.post_json ~host:net_host ~port
       ~json:(S.Workload.submission_to_json (net_sub 0.5))
       "/v1/queries"
   with
  | Ok r -> checki "submission accepted under load" 202 r.H.status
  | Error m -> Alcotest.fail m);
  S.Server.stop server;
  Atomic.set keep_going false;
  let results = List.map Domain.join clients in
  checkb "every client made progress before the stop" true
    (List.for_all (fun (ok, _) -> ok > 0) results);
  (* Accepted work still drains (graceful): the submission gets its
     record even though the front door is gone. *)
  S.Api.join api;
  checki "accepted submission drained through shutdown" 1
    (List.length (S.Service.history svc));
  checkb "chain verifies after overlap" true (S.Service.chain_verifies svc);
  (* Restart on a fresh port: same service, new front door. *)
  let api2 = S.Api.create ~service:svc () in
  let server2 = S.Server.start ~handler:(S.Api.handler api2) () in
  let port2 = S.Server.port server2 in
  checkb "restarted front door serves" true (healthz_ok port2);
  (match
     S.Client.post_json ~host:net_host ~port:port2
       ~json:(S.Workload.submission_to_json (net_sub 0.5))
       "/v1/queries"
   with
  | Ok r ->
      checki "new submissions accepted after restart" 202 r.H.status;
      checkb "index continues from pre-restart history" true
        (contains r.H.resp_body "\"index\":1")
  | Error m -> Alcotest.fail m);
  S.Server.stop server2;
  S.Api.join api2;
  checki "both submissions recorded" 2 (List.length (S.Service.history svc));
  checkb "chain verifies end to end" true (S.Service.chain_verifies svc)

let test_net_injected_faults_fail_closed () =
  (* Server-side injection: accept drops lose connections before a byte is
     read, response truncation cuts answers off mid-write. Clients with
     retries must converge, the injector must actually fire, and the
     service must stay consistent. *)
  let inj =
    Fault.create ~seed:42L
      {
        Fault.no_faults with
        Fault.accept_drop_p = 0.25;
        response_truncate_p = 0.25;
      }
  in
  with_front_door
    ~server_config:{ S.Server.default_config with S.Server.faults = Some inj }
    (fun svc _api server port ->
      let attempts = 40 in
      let answered = ref 0 in
      for _ = 1 to attempts do
        (* Up to 8 tries per request: drops and truncations surface as
           client-side Errors (fail closed), never as garbled successes. *)
        let rec go tries =
          if tries = 0 then ()
          else
            match S.Client.get ~timeout_s:5.0 ~host:net_host ~port "/healthz" with
            | Ok r when r.H.status = 200 -> incr answered
            | Ok _ -> ()
            | Error _ -> go (tries - 1)
        in
        go 8
      done;
      checki "every request eventually answered" attempts !answered;
      let st = S.Server.stats server in
      checkb "the injector actually fired" true (st.S.Server.faults_injected > 0);
      checkb "injection counted per kind" true
        (Fault.total_injected inj = st.S.Server.faults_injected);
      checki "no submissions invented" 0 (S.Service.submitted svc);
      checkb "server alive" true (healthz_ok port))

let () =
  Alcotest.run "fault"
    [
      ( "chaos",
        [
          Alcotest.test_case "36-scenario single-fault sweep" `Slow
            test_chaos_single_faults;
          Alcotest.test_case "full chaos spec on gap/median/auction" `Slow
            test_chaos_all_faults_other_queries;
          Alcotest.test_case "corruption beyond radius fails closed" `Quick
            test_corruption_beyond_radius_fails_closed;
          Alcotest.test_case "corruption within radius self-heals" `Quick
            test_corruption_within_radius_self_heals;
          Alcotest.test_case "ciphertext tamper always detected" `Quick
            test_tamper_always_detected;
          Alcotest.test_case "all auditors down degrades" `Quick
            test_all_auditors_down_degrades;
          Alcotest.test_case "forced dropout at pick 0 absorbed" `Quick
            test_forced_dropout_at_round;
          Alcotest.test_case "backoff exhaustion fails closed" `Quick
            test_backoff_exhaustion_fails_closed;
          Alcotest.test_case "refused runs fail closed" `Quick
            test_refused_runs_fail_closed;
        ] );
      ( "cohort-chaos",
        [
          Alcotest.test_case "faults in sampled cohorts absorbed or typed"
            `Slow test_cohort_chaos_absorbed_or_typed;
          Alcotest.test_case "byzantine extrapolation under upload faults"
            `Quick test_cohort_chaos_byzantine_extrapolation;
          qtest prop_cohort_chaos_deterministic;
        ] );
      ( "determinism",
        [
          qtest prop_same_seed_same_trace;
          qtest prop_same_seed_same_trace_clean;
          qtest prop_injector_schedule_deterministic;
          qtest prop_backoff_respects_budget;
          qtest prop_transmit_deterministic;
          Alcotest.test_case "chaos replay identical at 1 and 2 workers" `Quick
            test_chaos_replay_across_workers;
        ] );
      ( "session-lifecycle",
        [
          Alcotest.test_case "faulted query leaves state intact" `Quick
            test_session_faulted_query_leaves_state_intact;
          Alcotest.test_case "session recovers after absorbed fault" `Quick
            test_session_recovers_after_failure;
          Alcotest.test_case "budget depletion refuses next query" `Quick
            test_session_budget_depletion_refuses_next;
          Alcotest.test_case "max_rounds 0 refuses immediately" `Quick
            test_session_zero_rounds_refuses_immediately;
        ] );
      ( "trace",
        [
          Alcotest.test_case "pp shows every counter" `Quick
            test_trace_pp_shows_all_counters;
          Alcotest.test_case "to_json roundtrips" `Quick
            test_trace_json_roundtrips;
        ] );
      ( "network-chaos",
        [
          Alcotest.test_case "partial-request disconnects absorbed" `Quick
            test_net_partial_request_disconnect;
          Alcotest.test_case "malformed requests fail closed" `Quick
            test_net_malformed_requests_fail_closed;
          Alcotest.test_case "counters move before the response" `Quick
            test_net_counters_precede_responses;
          Alcotest.test_case "slowloris stall hits the deadline" `Quick
            test_net_slowloris_stall;
          Alcotest.test_case "stop/start overlap under load" `Quick
            test_net_stop_start_overlap_under_load;
          Alcotest.test_case "injected accept-drop/truncate fail closed"
            `Quick test_net_injected_faults_fail_closed;
        ] );
    ]
