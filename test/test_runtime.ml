(* End-to-end tests of the execution runtime: protocol phases, integrity
   machinery, failure injection, and semantic agreement with the reference
   interpreter. *)

module R = Arb_runtime
module Q = Arb_queries.Registry
module L = Arb_lang
module P = Arb_planner
module Rng = Arb_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let big_budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.5

let config ?(seed = 1L) ?(byz = 0.0) () =
  { R.Exec.default_config with R.Exec.seed; byzantine_fraction = byz; budget = big_budget }

(* A Byzantine aggregator that rewrites a committed step on every run. *)
let tampering = { R.Fault.no_faults with R.Fault.tamper_p = 1.0 }

let plan_for q ~n =
  Option.get (P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n ()).P.Search.plan

let exec cfg ~query ~plan ~db = R.Exec.run_source cfg ~query ~plan ~src:(R.Exec.source_of_db db)

let released = function
  | Ok report -> report
  | Error f -> Alcotest.failf "run failed closed: %a" R.Exec.pp_failure f

let stage = function Ok _ -> "released" | Error f -> f.R.Exec.stage

(* Plan at the database's scale (no cost limits), then execute. *)
let plan_and_exec cfg ~query ~db =
  exec cfg ~query ~plan:(plan_for query ~n:(Array.length db)) ~db

let run ?(n = 96) ?(epsilon = 1000.0) ?(seed = 1L) ?(byz = 0.0) name =
  let q = Q.test_instance ~epsilon name in
  let db = Q.random_database (Rng.create 99L) q ~n () in
  (q, db, released (plan_and_exec (config ~seed ~byz ()) ~query:q ~db))

let first_int (report : R.Exec.report) =
  match report.R.Exec.outputs with
  | L.Interp.V_int i :: _ -> i
  | v :: _ -> L.Interp.as_int v
  | [] -> Alcotest.fail "no outputs"

let cleartext_mode db =
  let cols = Array.length db.(0) in
  let counts = Array.make cols 0 in
  Array.iter (fun row -> Array.iteri (fun j v -> counts.(j) <- counts.(j) + v) row) db;
  let best = ref 0 in
  Array.iteri (fun j c -> if c > counts.(!best) then best := j) counts;
  (!best, counts)

(* ---------------- semantic agreement (epsilon huge => noise ~ 0) ---------------- *)

let test_top1_matches_mode () =
  let _, db, report = run "top1" in
  let mode, _ = cleartext_mode db in
  checki "DP winner equals the true mode at huge epsilon" mode (first_int report)

let test_topk_matches_true_topk () =
  let _, db, report = run "topK" in
  let _, counts = cleartext_mode db in
  let order = Array.init (Array.length counts) Fun.id in
  Array.sort (fun a b -> compare counts.(b) counts.(a)) order;
  (* Ties at the 5th rank make the exact set ambiguous: require every
     selected category to have at least the 5th-highest count. *)
  let threshold = counts.(order.(4)) in
  let got = List.map L.Interp.as_int report.R.Exec.outputs in
  Alcotest.check Alcotest.int "five winners" 5 (List.length got);
  Alcotest.check Alcotest.int "distinct winners" 5
    (List.length (List.sort_uniq compare got));
  List.iter
    (fun w ->
      checkb
        (Printf.sprintf "winner %d count %d >= threshold %d" w counts.(w) threshold)
        true
        (counts.(w) >= threshold))
    got

let test_median_matches () =
  let _, db, report = run "median" in
  let _, counts = cleartext_mode db in
  let n = Array.length db in
  (* smallest index whose prefix sum crosses n/2, the query's target *)
  let want =
    let acc = ref 0 and res = ref 0 and found = ref false in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if (not !found) && 2 * !acc >= n then begin
          res := i;
          found := true
        end)
      counts;
    !res
  in
  let got = first_int report in
  checkb
    (Printf.sprintf "median bucket %d within 1 of %d" got want)
    true
    (abs (got - want) <= 1)

let test_hypotest_exact () =
  let _, db, report = run "hypotest" in
  let _, counts = cleartext_mode db in
  let n = Array.length db in
  let want = if counts.(0) > n / 2 then 1 else 0 in
  checki "hypothesis test decision" want (first_int report)

let test_auction_matches_revenue_max () =
  let _, db, report = run "auction" in
  let _, counts = cleartext_mode db in
  let cols = Array.length counts in
  let suffix = Array.make cols 0 in
  let acc = ref 0 in
  for i = cols - 1 downto 0 do
    acc := !acc + counts.(i);
    suffix.(i) <- !acc
  done;
  let best = ref 0 in
  Array.iteri
    (fun p s -> if (p + 1) * s > (!best + 1) * suffix.(!best) then best := p)
    suffix;
  checki "revenue-maximizing price" !best (first_int report)

let test_cms_close_to_counts () =
  let _, db, report = run "cms" in
  let cols = Array.length db.(0) in
  let counts = Array.make cols 0 in
  Array.iter (fun row -> Array.iteri (fun j v -> counts.(j) <- counts.(j) + v) row) db;
  List.iteri
    (fun i v ->
      let got = L.Interp.as_float v in
      checkb
        (Printf.sprintf "sketch[%d] = %.1f near %d" i got counts.(i))
        true
        (Float.abs (got -. float_of_int counts.(i)) < 2.0))
    report.R.Exec.outputs

let test_gap_output_shape () =
  let _, db, report = run "gap" in
  let mode, _ = cleartext_mode db in
  match report.R.Exec.outputs with
  | [ w; g ] ->
      checki "winner is mode" mode (L.Interp.as_int w);
      checkb "gap positive" true (L.Interp.as_float g > 0.0)
  | _ -> Alcotest.fail "gap must output two values"

let test_secrecy_scales_to_sample () =
  (* phi = 0.25: the sampled count should be around a quarter of the
     category-0 population. *)
  let _, db, report = run ~n:256 "secrecy" in
  let _, counts = cleartext_mode db in
  let got = L.Interp.as_float (List.hd report.R.Exec.outputs) in
  let expected = 0.25 *. float_of_int counts.(0) in
  checkb
    (Printf.sprintf "sampled count %.1f near %.1f" got expected)
    true
    (Float.abs (got -. expected) < 0.6 *. float_of_int counts.(0) +. 5.0)

let test_outputs_match_interpreter_shape () =
  (* Same output arity and types as the cleartext reference. *)
  List.iter
    (fun name ->
      let q, db, report = run name in
      let reference = L.Interp.run q.Q.program ~db (Rng.create 4L) in
      checki (name ^ " output arity") (List.length reference)
        (List.length report.R.Exec.outputs))
    Q.names

(* ---------------- protocol machinery ---------------- *)

let test_certificate_verifies () =
  let _, _, report = run "top1" in
  checkb "certificate ok" true report.R.Exec.certificate_ok;
  checkb "standalone verification" true
    (R.Setup.verify_certificate report.R.Exec.certificate);
  (* Tampering with the payload must break every signature. *)
  let cert = report.R.Exec.certificate in
  let bad = { cert with R.Setup.next_block = "forged" } in
  checkb "tampered certificate fails" false (R.Setup.verify_certificate bad)

let test_budget_is_charged () =
  let q = Q.test_instance ~epsilon:2.0 "top1" in
  let db = Q.random_database (Rng.create 1L) q ~n:64 () in
  let budget = Arb_dp.Budget.create ~epsilon:5.0 ~delta:1.0e-3 in
  let cfg = { (config ()) with R.Exec.budget = budget } in
  let report = released (plan_and_exec cfg ~query:q ~db) in
  checkb "epsilon deducted" true
    (report.R.Exec.certificate.R.Setup.budget_left.Arb_dp.Budget.epsilon < 5.0 -. 1.9)

let test_budget_exhaustion_refuses () =
  let q = Q.test_instance ~epsilon:2.0 "top1" in
  let db = Q.random_database (Rng.create 1L) q ~n:64 () in
  let cfg =
    { (config ()) with R.Exec.budget = Arb_dp.Budget.create ~epsilon:1.0 ~delta:1.0 }
  in
  Alcotest.check Alcotest.string "budget-exhausted refusal" "budget"
    (stage (plan_and_exec cfg ~query:q ~db))

let test_byzantine_inputs_rejected () =
  let _, db, report = run ~n:128 ~byz:0.2 "top1" in
  checkb "some inputs rejected" true (report.R.Exec.rejected_inputs > 10);
  checki "accepted + rejected = devices" (Array.length db)
    (report.R.Exec.accepted_inputs + report.R.Exec.rejected_inputs);
  (* The malformed (all-ones) uploads were dropped, so the answer still
     matches the honest mode. *)
  let honest_counts = Array.make (Array.length db.(0)) 0 in
  (* recompute with the same byzantine assignment: instead, check that the
     result is a valid category, and that rejections roughly match the 20%
     rate *)
  ignore honest_counts;
  checkb "rejection rate near 20%" true
    (let r = float_of_int report.R.Exec.rejected_inputs /. float_of_int (Array.length db) in
     r > 0.08 && r < 0.35)

let test_audit_catches_tampering () =
  let _, _, honest = run "top1" in
  checkb "honest aggregator passes audit" true honest.R.Exec.audit_ok;
  checkb "honest audits performed" true (honest.R.Exec.trace.R.Trace.audits_performed > 0);
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Rng.create 99L) q ~n:96 () in
  Alcotest.check Alcotest.string "tampering detected" "audit"
    (stage (plan_and_exec { (config ()) with R.Exec.faults = tampering } ~query:q ~db))

let test_fhe_mask_path () =
  (* Force the FHE profile for secrecy: exercises real ciphertext-by-
     ciphertext multiplication plus relinearization in the pipeline. *)
  let q = Q.test_instance ~epsilon:1000.0 "secrecy" in
  let db = Q.random_database (Rng.create 2L) q ~n:96 () in
  let plan = plan_for q ~n:96 in
  let fhe_plan = { plan with P.Plan.crypto = P.Plan.Fhe; sample_bins = Some 4 } in
  let report = released (exec (config ()) ~query:q ~plan:fhe_plan ~db) in
  checkb "fhe-masked run produces output" true (List.length report.R.Exec.outputs = 1);
  checkb "agg performed a homomorphic multiplication" true
    (report.R.Exec.trace.R.Trace.agg_he_muls > 0)

let test_trace_populated () =
  let _, db, report = run "top1" in
  let t = report.R.Exec.trace in
  checki "every device encrypted once" (Array.length db) t.R.Trace.device_encrypt_ops;
  checkb "aggregator verified proofs" true
    (t.R.Trace.agg_proofs_verified = Array.length db);
  checkb "aggregator summed" true (t.R.Trace.agg_he_adds > 0);
  checkb "keygen committee traced" true (R.Trace.mpc_rounds t R.Trace.Keygen > 0);
  checkb "decryption committee traced" true (R.Trace.mpc_rounds t R.Trace.Decryption > 0);
  checkb "operations committees traced" true (R.Trace.mpc_rounds t R.Trace.Operations > 0);
  checkb "device upload bytes counted" true (t.R.Trace.device_upload_bytes > 0.0)

let test_deterministic_given_seed () =
  let _, _, r1 = run ~seed:42L "top1" in
  let _, _, r2 = run ~seed:42L "top1" in
  checkb "same outputs for same seed" true (r1.R.Exec.outputs = r2.R.Exec.outputs)

(* The plan with its aggregation rewritten to the outsourced sum-tree form
   (§4.3): devices sum their uploads in groups. *)
let outsource (plan : P.Plan.t) =
  {
    plan with
    P.Plan.vignettes =
      List.map
        (fun (v : P.Plan.vignette) ->
          match (v.P.Plan.work, v.P.Plan.location) with
          | P.Plan.W_he_sum w, P.Plan.Aggregator ->
              { P.Plan.location = P.Plan.Committees 12; work = P.Plan.W_he_sum w }
          | _ -> v)
        plan.P.Plan.vignettes;
  }

let test_device_sum_tree_execution () =
  (* Rewrite the plan's aggregation to the outsourced sum-tree form and
     check the devices perform the additions while the answer is unchanged. *)
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Rng.create 60L) q ~n:96 () in
  let plan = plan_for q ~n:96 in
  let outsourced = outsource plan in
  let baseline = released (exec (config ~seed:9L ()) ~query:q ~plan ~db) in
  let treed = released (exec (config ~seed:9L ()) ~query:q ~plan:outsourced ~db) in
  checkb "same answer either way" true
    (baseline.R.Exec.outputs = treed.R.Exec.outputs);
  checki "aggregator does no summation when outsourced" 0
    treed.R.Exec.trace.R.Trace.agg_he_adds;
  checkb "devices performed the additions" true
    (treed.R.Exec.trace.R.Trace.device_tree_adds >= 90);
  checkb "baseline kept the sum at the aggregator" true
    (baseline.R.Exec.trace.R.Trace.agg_he_adds >= 90
    && baseline.R.Exec.trace.R.Trace.device_tree_adds = 0)

let test_workers_byte_identical () =
  (* The multicore fan-out must not change a single byte: same outputs,
     trace rendering, audit root and certificate at any worker count —
     including when the plan outsources the sum to a device tree, whose
     group folds also run on the worker pool. *)
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Rng.create 61L) q ~n:96 () in
  let plan = plan_for q ~n:96 in
  let outsourced = outsource plan in
  let run_with ?(sharding = R.Exec.Full) plan workers =
    released (exec { (config ~seed:5L ()) with R.Exec.workers; sharding } ~query:q ~plan ~db)
  in
  List.iter
    (fun plan ->
      let base = run_with plan 1 in
      List.iter
        (fun workers ->
          let alt = run_with plan workers in
          checkb
            (Printf.sprintf "outputs identical at %d workers" workers)
            true
            (base.R.Exec.outputs = alt.R.Exec.outputs);
          Alcotest.check Alcotest.string
            (Printf.sprintf "trace pp identical at %d workers" workers)
            (Format.asprintf "%a" R.Trace.pp base.R.Exec.trace)
            (Format.asprintf "%a" R.Trace.pp alt.R.Exec.trace);
          Alcotest.check Alcotest.string
            (Printf.sprintf "trace json identical at %d workers" workers)
            (Arb_util.Json.to_string (R.Trace.to_json base.R.Exec.trace))
            (Arb_util.Json.to_string (R.Trace.to_json alt.R.Exec.trace));
          checkb
            (Printf.sprintf "audit root identical at %d workers" workers)
            true
            (String.equal base.R.Exec.audit_root alt.R.Exec.audit_root);
          checkb
            (Printf.sprintf "certificate identical at %d workers" workers)
            true
            (base.R.Exec.certificate = alt.R.Exec.certificate))
        [ 2; 3 ];
      (* Sharded mode makes the same promise: worker count and re-runs at a
         fixed seed change nothing observable. *)
      let sharding = R.Exec.Sharded { cohort_size = 24; sampled_cohorts = 2 } in
      let sbase = run_with ~sharding plan 1 in
      List.iter
        (fun workers ->
          let alt = run_with ~sharding plan workers in
          checkb
            (Printf.sprintf "sharded outputs identical at %d workers" workers)
            true
            (sbase.R.Exec.outputs = alt.R.Exec.outputs);
          Alcotest.check Alcotest.string
            (Printf.sprintf "sharded trace json identical at %d workers" workers)
            (Arb_util.Json.to_string (R.Trace.to_json sbase.R.Exec.trace))
            (Arb_util.Json.to_string (R.Trace.to_json alt.R.Exec.trace));
          checkb
            (Printf.sprintf "sharded audit root identical at %d workers" workers)
            true
            (String.equal sbase.R.Exec.audit_root alt.R.Exec.audit_root);
          checkb
            (Printf.sprintf "sharded certificate identical at %d workers" workers)
            true
            (sbase.R.Exec.certificate = alt.R.Exec.certificate))
        [ 1; 2; 3 ])
    [ plan; outsourced ]

let test_sortition_spot_checks () =
  let _, _, report = run "top1" in
  checkb "devices verified committee membership" true
    (report.R.Exec.trace.R.Trace.sortition_checks > 0)

let test_stage_spans () =
  (* Each protocol stage has one span under exec, and a deterministic-clock
     trace is byte-identical across worker counts. The conditional stages
     run only for their plans: residual-inject for sharded runs with
     extrapolated cohorts, sum-tree for outsourced sums, mask for sampled
     FHE plans. *)
  let unconditional =
    [ "exec"; "sortition"; "committee-select"; "keygen"; "certificate-check"; "inputs";
      "sortition-check"; "decrypt"; "vsr-handoff"; "interpret"; "audit" ]
  and conditional = [ "residual-inject"; "sum-tree"; "mask" ] in
  let check_spans ~label ?(sharding = R.Exec.Full) name ~plan ~expect =
    let q = Q.test_instance ~epsilon:1000.0 name in
    let db = Q.random_database (Rng.create 99L) q ~n:64 () in
    let traced workers =
      let tr = Arb_obs.Tracer.create ~clock:Arb_obs.Clock.Deterministic () in
      let cfg = { (config ()) with R.Exec.tracer = Some tr; workers; sharding } in
      ignore (released (exec cfg ~query:q ~plan:(plan (plan_for q ~n:64)) ~db));
      tr
    in
    let tr = traced 1 in
    let counts = List.map (fun (name, count, _) -> (name, count)) (Arb_obs.Tracer.totals tr) in
    List.iter
      (fun stage ->
        checki
          (Printf.sprintf "%s: %s spans" label stage)
          (if List.mem stage unconditional || List.mem stage expect then 1 else 0)
          (Option.value ~default:0 (List.assoc_opt stage counts)))
      (unconditional @ conditional);
    checkb (label ^ ": deterministic trace identical at 2 workers") true
      (String.equal (Arb_obs.Tracer.to_string tr) (Arb_obs.Tracer.to_string (traced 2)))
  in
  check_spans ~label:"top1" "top1" ~plan:Fun.id ~expect:[];
  check_spans ~label:"sharded outsourced FHE secrecy" "secrecy"
    ~sharding:(R.Exec.Sharded { cohort_size = 16; sampled_cohorts = 2 })
    ~plan:(fun p ->
      { (outsource p) with P.Plan.crypto = P.Plan.Fhe; sample_bins = Some 4 })
    ~expect:conditional

let test_churn_reassignment () =
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Rng.create 50L) q ~n:96 () in
  (* No churn: no reassignments. *)
  let calm = released (plan_and_exec (config ~seed:5L ()) ~query:q ~db) in
  checki "no reassignment without churn" 0
    calm.R.Exec.trace.R.Trace.committees_reassigned;
  (* Heavy churn: reassignments happen (or, rarely, the first committee
     keeps quorum); the run must still complete with the right answer. *)
  let stormy_cfg = { (config ~seed:6L ()) with R.Exec.churn = 0.7 } in
  let reassigned = ref 0 and completed = ref 0 in
  for seed = 1 to 8 do
    match plan_and_exec { stormy_cfg with R.Exec.seed = Int64.of_int (100 + seed) } ~query:q ~db with
    | Ok report ->
        incr completed;
        reassigned := !reassigned + report.R.Exec.trace.R.Trace.committees_reassigned
    | Error f -> Alcotest.check Alcotest.string "catastrophic churn path" "execute" f.R.Exec.stage
  done;
  checkb "some runs complete under churn" true (!completed >= 2);
  checkb "reassignment path exercised" true (!reassigned > 0)

let test_catastrophic_churn_aborts () =
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Rng.create 51L) q ~n:96 () in
  let cfg = { (config ~seed:7L ()) with R.Exec.churn = 1.0 } in
  Alcotest.check Alcotest.string "total churn aborts cleanly" "execute"
    (stage (plan_and_exec cfg ~query:q ~db))

let test_report_wall_clocks () =
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Rng.create 97L) q ~n:96 () in
  let lan_cfg = { (config ~seed:18L ()) with R.Exec.latency = R.Net.lan } in
  let geo_cfg = { (config ~seed:18L ()) with R.Exec.latency = R.Net.geo_distributed } in
  let lan = released (plan_and_exec lan_cfg ~query:q ~db) in
  let geo = released (plan_and_exec geo_cfg ~query:q ~db) in
  List.iter2
    (fun (k1, t_lan) (k2, t_geo) ->
      checkb "same kinds" true (k1 = k2);
      if t_lan > 0.0 then
        checkb "geo wall clock dominates lan" true (t_geo > t_lan))
    lan.R.Exec.committee_wall_clock geo.R.Exec.committee_wall_clock

let test_geo_profile_slower () =
  let rounds = 500 and compute = 10.0 in
  let lan = R.Net.mpc_wall_clock R.Net.lan ~rounds ~compute in
  let geo = R.Net.mpc_wall_clock R.Net.geo_distributed ~rounds ~compute in
  let slow =
    R.Net.mpc_wall_clock (R.Net.with_slow_devices R.Net.lan ~factor:2.0) ~rounds ~compute
  in
  checkb "geo slower than lan" true (geo > 2.0 *. lan);
  checkb "slow devices slow the committee" true (slow > 1.5 *. lan)

let test_audit_challenge_count () =
  checkb "more steps need more challenges" true
    (R.Audit.challenges_per_device ~steps:10_000 ~devices:10 ~p_max:1e-6
    > R.Audit.challenges_per_device ~steps:10 ~devices:10 ~p_max:1e-6);
  checkb "more auditors need fewer challenges each" true
    (R.Audit.challenges_per_device ~steps:1000 ~devices:1000 ~p_max:1e-6
    < R.Audit.challenges_per_device ~steps:1000 ~devices:10 ~p_max:1e-6)

let test_runtime_rejects_uncertifiable () =
  let q =
    {
      Q.name = "leak"; action = ""; source = "";
      program =
        {
          L.Ast.name = "leak";
          body = L.Parser.parse_stmt "a = sum(db); output(a[0]);";
          row = L.Ast.One_hot 4;
          epsilon = 1.0;
        };
      categories = 4; uses_em = false; error_tolerance = None;
    }
  in
  let db = Array.make 64 [| 1; 0; 0; 0 |] in
  let plan =
    (* borrow a structurally similar plan *)
    let r =
      P.Search.plan ~limits:P.Constraints.no_limits
        ~query:(Q.test_instance "top1") ~n:64 ()
    in
    Option.get r.P.Search.plan
  in
  Alcotest.check Alcotest.string "uncertified query refused" "execute"
    (stage (exec (config ()) ~query:q ~plan ~db))

let test_multi_ciphertext_inputs () =
  (* More categories than a single ring holds: each device uploads several
     ciphertexts; the answer must still match the mode. *)
  let q = Q.make ~epsilon:1000.0 ~name:"top1" ~c:160 () in
  let db = Q.random_database (Rng.create 80L) q ~n:96 ~skew:1.5 () in
  let cfg = { (config ~seed:11L ()) with R.Exec.bgv_n = 64 } in
  let report = released (plan_and_exec cfg ~query:q ~db) in
  let mode, _ = cleartext_mode db in
  checki "mode across 3 ciphertext chunks (160 slots / 64-ring)" mode
    (first_int report);
  (* 160 slots over a 64-slot ring = 3 ciphertexts per device. *)
  checki "three encryptions per device" (3 * Array.length db)
    report.R.Exec.trace.R.Trace.device_encrypt_ops

let test_multi_ciphertext_secrecy_fhe () =
  (* Binned + multi-ciphertext + FHE masking together. *)
  let q = Q.make ~epsilon:1000.0 ~name:"secrecy" ~c:40 () in
  let db = Q.random_database (Rng.create 81L) q ~n:128 ~skew:1.5 () in
  let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:128 () in
  let plan = Option.get r.P.Search.plan in
  let fhe_plan = { plan with P.Plan.crypto = P.Plan.Fhe; sample_bins = Some 4 } in
  let cfg = { (config ~seed:12L ()) with R.Exec.bgv_n = 64 } in
  (* 40 cols x 4 bins = 160 slots -> 3 chunks at ring 64. *)
  let report = released (exec cfg ~query:q ~plan:fhe_plan ~db) in
  checkb "masked multi-chunk run produced one output" true
    (List.length report.R.Exec.outputs = 1);
  checkb "several homomorphic multiplications" true
    (report.R.Exec.trace.R.Trace.agg_he_muls >= 3)

let test_trace_agrees_with_cost_model_ordering () =
  (* The cost model says EM queries do far more committee (MPC) work than
     Laplace queries; the executed traces must show the same ordering. *)
  let run_trace name =
    let q = Q.test_instance ~epsilon:2.0 name in
    let db = Q.random_database (Rng.create 95L) q ~n:96 () in
    let report = released (plan_and_exec (config ~seed:16L ()) ~query:q ~db) in
    R.Trace.mpc_bytes report.R.Exec.trace R.Trace.Operations
  in
  let em_bytes = run_trace "top1" and lap_bytes = run_trace "bayes" in
  checkb
    (Printf.sprintf "EM ops bytes (%d) exceed Laplace ops bytes (%d)" em_bytes
       lap_bytes)
    true
    (em_bytes > lap_bytes)

let test_noise_committee_parallelism () =
  (* Force a fine noise chunk in the plan: the trace must show one
     operations committee per chunk, and the answer must still be the
     mode. *)
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Rng.create 96L) q ~n:96 () in
  let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:96 () in
  let plan = Option.get r.P.Search.plan in
  let chunked =
    {
      plan with
      P.Plan.vignettes =
        plan.P.Plan.vignettes
        @ [ { P.Plan.location = P.Plan.Committees 4;
              work = P.Plan.W_mpc_noise { kind = `Gumbel; count = 4 } } ];
    }
  in
  let report = released (exec (config ~seed:17L ()) ~query:q ~plan:chunked ~db) in
  let mode, _ = cleartext_mode db in
  checki "answer still the mode" mode (first_int report);
  (* 16 categories / chunk 4 = 4 noise committees + the main ops engine. *)
  let ops_committees =
    List.length
      (List.filter (fun (k, _) -> k = R.Trace.Operations)
         report.R.Exec.trace.R.Trace.committee_costs)
  in
  checkb
    (Printf.sprintf "several operations committees traced (%d)" ops_committees)
    true (ops_committees >= 5)

(* ---------------- independent verification ---------------- *)

let test_verify_honest_run () =
  let q = Q.test_instance ~epsilon:1.0 "top1" in
  let db = Q.random_database (Rng.create 90L) q ~n:96 () in
  let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:96 () in
  let plan = Option.get r.P.Search.plan in
  let budget_before = Arb_dp.Budget.create ~epsilon:5.0 ~delta:1e-3 in
  let cfg = { (config ~seed:13L ()) with R.Exec.budget = budget_before } in
  let report = released (exec cfg ~query:q ~plan ~db) in
  let findings =
    R.Verify.verify_report ~query:q ~plan ~budget_before ~n_devices:96 report
  in
  checkb
    (Format.asprintf "all checks pass:@.%a" R.Verify.pp_findings findings)
    true
    (R.Verify.all_ok findings)

let test_verify_catches_wrong_plan () =
  let q = Q.test_instance ~epsilon:1.0 "top1" in
  let db = Q.random_database (Rng.create 91L) q ~n:96 () in
  let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:96 () in
  let plan = Option.get r.P.Search.plan in
  let budget_before = Arb_dp.Budget.create ~epsilon:5.0 ~delta:1e-3 in
  let cfg = { (config ~seed:14L ()) with R.Exec.budget = budget_before } in
  let report = released (exec cfg ~query:q ~plan ~db) in
  (* A swapped plan fails the commitment check. *)
  let other = { plan with P.Plan.em_variant = `Exponentiate } in
  let findings =
    R.Verify.verify_report ~query:q ~plan:other ~budget_before ~n_devices:96 report
  in
  checkb "plan substitution detected" false (R.Verify.all_ok findings);
  checkb "exactly the plan-commitment check fails" true
    (List.exists
       (fun f -> f.R.Verify.check = "plan commitment" && not f.R.Verify.ok)
       findings)

let test_verify_catches_tampered_audit () =
  let q = Q.test_instance ~epsilon:1.0 "top1" in
  let db = Q.random_database (Rng.create 92L) q ~n:96 () in
  let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:96 () in
  let plan = Option.get r.P.Search.plan in
  let budget_before = Arb_dp.Budget.create ~epsilon:5.0 ~delta:1e-3 in
  let cfg = { (config ~seed:15L ()) with R.Exec.budget = budget_before } in
  let report = released (exec cfg ~query:q ~plan ~db) in
  (* A run whose audit failed is never released, so the report a verifier
     is handed here is the honest one with its audit verdict rewritten. *)
  let findings =
    R.Verify.verify_report ~query:q ~plan ~budget_before ~n_devices:96
      { report with R.Exec.audit_ok = false }
  in
  checkb "tampered run fails verification" false (R.Verify.all_ok findings);
  checkb "exactly the audit check fails" true
    (List.for_all (fun f -> f.R.Verify.ok = (f.R.Verify.check <> "aggregator audit")) findings)

(* ---------------- sessions (query chains, §5.1-5.2) ---------------- *)

(* A session runs the plan it is handed: plan this query for the
   population, then run it. *)
let session_run session ~db q =
  R.Session.run session ~db ~plan:(plan_for q ~n:(Array.length db)) q

let test_session_chain () =
  let q = Q.test_instance ~epsilon:1.0 "top1" in
  let db = Q.random_database (Rng.create 70L) q ~n:96 () in
  let session =
    R.Session.create ~config:(config ())
      ~budget:(Arb_dp.Budget.create ~epsilon:2.5 ~delta:1.0e-3)
      ~devices:(Array.length db) ()
  in
  (* Two queries fit the 2.5-epsilon budget; the third must be refused. *)
  (match session_run session ~db q with
  | Ok r1 ->
      checki "first query is round 1" 1 r1.R.Session.query_index;
      Alcotest.check Alcotest.string "genesis block" "genesis" r1.R.Session.block_used
  | Error m -> Alcotest.fail m);
  (match session_run session ~db q with
  | Ok r2 ->
      checki "second query is round 2" 2 r2.R.Session.query_index;
      checkb "second round uses the minted block" true
        (r2.R.Session.block_used <> "genesis")
  | Error m -> Alcotest.fail m);
  (match session_run session ~db q with
  | Ok _ -> Alcotest.fail "third query should be refused"
  | Error m -> checkb "refusal mentions the budget" true
      (String.length m > 0));
  checki "two queries ran" 2 (R.Session.queries_run session);
  checkb "remaining budget 0.5" true
    (Float.abs ((R.Session.budget_left session).Arb_dp.Budget.epsilon -. 0.5) < 1e-9);
  checkb "certificate chain verifies" true (R.Session.chain_verifies session)

let test_session_blocks_differ () =
  (* Different queries in the chain get different sortition blocks, so the
     committees differ (no grinding across rounds). *)
  let q = Q.test_instance ~epsilon:0.5 "top1" in
  let db = Q.random_database (Rng.create 71L) q ~n:96 () in
  let session =
    R.Session.create ~config:(config ())
      ~budget:(Arb_dp.Budget.create ~epsilon:10.0 ~delta:1.0e-2)
      ~devices:(Array.length db) ()
  in
  let blocks =
    List.filter_map
      (fun _ ->
        match session_run session ~db q with
        | Ok r -> Some r.R.Session.block_used
        | Error _ -> None)
      [ (); (); () ]
  in
  checki "three rounds" 3 (List.length blocks);
  checki "all blocks distinct" 3 (List.length (List.sort_uniq compare blocks))

let test_session_round_limit () =
  let q = Q.test_instance ~epsilon:0.001 "top1" in
  let db = Q.random_database (Rng.create 72L) q ~n:96 () in
  let session =
    R.Session.create ~config:(config ()) ~max_rounds:2
      ~budget:(Arb_dp.Budget.create ~epsilon:100.0 ~delta:1.0)
      ~devices:(Array.length db) ()
  in
  (match session_run session ~db q with Ok _ -> () | Error m -> Alcotest.fail m);
  (match session_run session ~db q with Ok _ -> () | Error m -> Alcotest.fail m);
  match session_run session ~db q with
  | Ok _ -> Alcotest.fail "round limit must bind"
  | Error m -> checkb "mentions the round limit" true (String.length m > 10)

let test_session_refuses_wrong_row_count () =
  (* A database that is not the session's population is refused before
     anything runs, and the session is left exactly as it was. *)
  let q = Q.test_instance ~epsilon:1.0 "top1" in
  let db = Q.random_database (Rng.create 73L) q ~n:96 () in
  let session =
    R.Session.create ~config:(config ())
      ~budget:(Arb_dp.Budget.create ~epsilon:2.5 ~delta:1.0e-3)
      ~devices:(Array.length db) ()
  in
  (match session_run session ~db q with Ok _ -> () | Error m -> Alcotest.fail m);
  let budget = R.Session.budget_left session in
  (match
     R.Session.run session ~db:(Array.sub db 0 95) ~plan:(plan_for q ~n:96) q
   with
  | Ok _ -> Alcotest.fail "a database one row short must be refused"
  | Error m ->
      Alcotest.check Alcotest.string "names both row counts"
        "database has 95 rows but the session's device population is 96" m);
  checkb "budget unchanged" true
    (Arb_dp.Budget.equal budget (R.Session.budget_left session));
  checki "still one query" 1 (R.Session.queries_run session);
  checkb "chain still verifies" true (R.Session.chain_verifies session)

(* ---------------- sampled-vs-full differential (approximation) -------- *)

let test_sampled_vs_full_within_est_error () =
  (* The tolerance winner executes a PRF-derived device sample; its
     declassified answer must stay within the priced est_error bound of
     the full run's answer, on both heavy hitters and quantiles. The
     sample uploads about a phi share of the full run's bytes, spends less
     budget (subsampling amplification), and replays byte for byte at
     another worker count. *)
  let n = 20_000 in
  let goal = P.Constraints.Min_part_exp_time in
  let sharded =
    {
      R.Exec.default_config with
      R.Exec.seed = 3L;
      budget = big_budget;
      sharding = R.Exec.Sharded { cohort_size = 1_024; sampled_cohorts = 1 };
    }
  in
  let check_query name measure =
    let q = Q.test_instance ~epsilon:1.0 name in
    let src = { R.Exec.n_devices = n; row = Q.device_source ~seed:7L q } in
    let plan_with tol =
      let q = { q with Q.error_tolerance = tol } in
      let r =
        P.Search.plan ~goal ~limits:P.Constraints.no_limits ~query:q ~n ()
      in
      match (r.P.Search.plan, r.P.Search.metrics) with
      | Some p, Some m -> (p, m)
      | _ -> Alcotest.fail "no plan"
    in
    let p_full, _ = plan_with None in
    let p_samp, m_samp = plan_with (Some 0.1) in
    checkb (name ^ ": tolerance winner samples devices") true
      (p_samp.P.Plan.device_sample <> None);
    let full = released (R.Exec.run_source sharded ~query:q ~plan:p_full ~src) in
    let samp = released (R.Exec.run_source sharded ~query:q ~plan:p_samp ~src) in
    let phi = Option.get p_samp.P.Plan.device_sample in
    let upload r = r.R.Exec.trace.R.Trace.device_upload_bytes in
    checkb (name ^ ": sampled upload within 2 phi of the full run's") true
      (upload samp <= 2.0 *. phi *. upload full);
    let spent r =
      big_budget.Arb_dp.Budget.epsilon
      -. r.R.Exec.certificate.R.Setup.budget_left.Arb_dp.Budget.epsilon
    in
    checkb (name ^ ": sampled run spends less epsilon") true (spent samp < spent full);
    (* An independent verifier passes both runs: the sampled certificate
       deducts the amplified cost, not the certified one, and the sampled
       run adjudicates a plausible sample of the devices, not all of them. *)
    let findings plan report =
      R.Verify.verify_report ~query:q ~plan ~budget_before:big_budget
        ~n_devices:n report
    in
    List.iter
      (fun (label, plan, report) ->
        let fs = findings plan report in
        checkb
          (Printf.sprintf "%s: %s run has budget and accounting findings" name label)
          true
          (List.for_all
             (fun c -> List.exists (fun f -> f.R.Verify.check = c) fs)
             [ "budget arithmetic"; "input accounting" ]);
        List.iter
          (fun f ->
            checkb
              (Printf.sprintf "%s: %s run's %s verifies (%s)" name label
                 f.R.Verify.check f.R.Verify.detail)
              true f.R.Verify.ok)
          fs)
      [ ("full", p_full, full); ("sampled", p_samp, samp) ];
    (* A sampled report that adjudicated no device, or every device, fails
       the accounting check and nothing else. *)
    List.iter
      (fun (label, accepted) ->
        let forged =
          { samp with R.Exec.accepted_inputs = accepted; rejected_inputs = 0 }
        in
        checkb
          (Printf.sprintf "%s: a sampled report with %s fails only input accounting"
             name label)
          true
          (List.for_all
             (fun f -> f.R.Verify.ok = (f.R.Verify.check <> "input accounting"))
             (findings p_samp forged)))
      [ ("no device adjudicated", 0); ("every device adjudicated", n) ];
    let samp2 =
      released
        (R.Exec.run_source { sharded with R.Exec.workers = 2 } ~query:q ~plan:p_samp ~src)
    in
    checkb (name ^ ": sampled outputs identical at 2 workers") true
      (samp2.R.Exec.outputs = samp.R.Exec.outputs);
    Alcotest.check Alcotest.string (name ^ ": sampled trace identical at 2 workers")
      (Arb_util.Json.to_string (R.Trace.to_json samp.R.Exec.trace))
      (Arb_util.Json.to_string (R.Trace.to_json samp2.R.Exec.trace));
    let sums = Array.make q.Q.categories 0 in
    for i = 0 to n - 1 do
      Array.iteri (fun j v -> sums.(j) <- sums.(j) + v) (src.R.Exec.row i)
    done;
    let err = measure sums (first_int full) (first_int samp) in
    checkb
      (Printf.sprintf "%s: measured error %.4f within est %.4f" name err
         m_samp.P.Cost_model.est_error)
      true
      (err <= m_samp.P.Cost_model.est_error)
  in
  (* heavy hitters: relative count gap between the full and sampled picks *)
  check_query "top1" (fun sums i_full i_samp ->
      let c_full = sums.(i_full) in
      float_of_int (abs (c_full - sums.(i_samp)))
      /. float_of_int (max 1 c_full));
  (* quantiles: rank-mass distance between the chosen bins' CDF intervals
     (bin i covers [cdf(i-1), cdf(i)]; overlapping bins have distance 0) *)
  check_query "median" (fun sums i_full i_samp ->
      let total = Array.fold_left ( + ) 0 sums in
      let cdf i =
        let acc = ref 0 in
        for j = 0 to i do
          acc := !acc + sums.(j)
        done;
        float_of_int !acc /. float_of_int (max 1 total)
      in
      let lo i = if i = 0 then 0.0 else cdf (i - 1) in
      Float.max 0.0
        (Float.max (lo i_samp -. cdf i_full) (lo i_full -. cdf i_samp)))

(* ---------------- public values: the reference interpreter's semantics ----------------

   The interpret stage evaluates every operation on public values alone
   with the reference interpreter's primitives. Each program certifies and
   runs through the facade over one-hot rows of width 4 at epsilon 5 and 48
   devices; the run must release what the reference computes (up to the
   mechanism's noise) or stop where the reference stops. *)

let public_run source =
  let q =
    Arboretum.query_of_source ~name:"public" ~source ~row:(Arboretum.one_hot 4)
      ~epsilon:5.0 ()
  in
  let db = Arboretum.synthesize_database q ~n:48 in
  (q, db, Arboretum.run ~db (Arboretum.plan ~n:48 q))

let rec flat = function
  | L.Interp.V_arr a -> List.concat_map flat (Array.to_list a)
  | v -> [ L.Interp.as_float v ]

(* Noise of scale 0.2, drawn separately on each side, and integer
   truncation of running sums stay well inside 5. *)
let check_near_reference source =
  let q, db, r = public_run source in
  let want = List.concat_map flat (Arboretum.reference_outputs ~db q) in
  let got = List.concat_map flat (released r).R.Exec.outputs in
  checki (source ^ ": output count") (List.length want) (List.length got);
  List.iter2
    (fun w g ->
      checkb (Printf.sprintf "%s: %f within 5 of %f" source g w) true
        (Float.abs (g -. w) < 5.0))
    want got

let test_noisy_max_post_processing () =
  List.iter
    (fun post -> check_near_reference ("c = sum(db); n = laplace(c); " ^ post))
    [ "output(max(n));"; "output(argmax(n));"; "p = prefixSums(n); output(p);";
      "p = suffixSums(n); output(p);" ]

let test_guards_short_circuit () =
  List.iter
    (fun guard ->
      check_near_reference
        ("c = sum(db); n = laplace(c); k = 0; for i = 0 to 4 do if " ^ guard
       ^ " then k = k + 1; endif endfor output(k);"))
    [ "i < 4 && n[i] > 10"; "i > 3 || n[i] > 10" ]

let test_public_outputs_equal_reference () =
  List.iter
    (fun source ->
      let q, db, r = public_run source in
      Alcotest.(check (list string))
        source
        (List.map L.Interp.value_to_string (Arboretum.reference_outputs ~db q))
        (Arboretum.outputs_to_strings (released r)))
    [ "output(clip(N, 0, 10));"; "a[0] = 4; a[1] = 5; s = sum(a); output(s);" ]

let check_execute_failure source =
  let q, db, r = public_run source in
  checkb (source ^ ": the reference stops") true
    (match Arboretum.reference_outputs ~db q with
    | _ -> false
    | exception L.Interp.Runtime_error _ -> true);
  Alcotest.(check string) (source ^ ": fails closed at execute") "execute" (stage r)

let test_log_of_negative_fails_closed () = check_execute_failure "output(log(0 - 1));"

let test_negative_index_writes_fail_closed () =
  List.iter check_execute_failure
    [ "a[0 - 1] = 3; output(1);";
      "aggr = sum(db); a[0 - 1] = aggr[0]; b = laplace(a); output(b);" ]

(* An index at or past the write bound (2^20) stops the program at once,
   in both interpreters, instead of growing the array until memory runs
   out. *)
let test_writes_past_the_bound_fail_closed () =
  List.iter check_execute_failure
    [ "a[1000000000000] = 1; output(1);";
      "aggr = sum(db); a[1000000000000] = aggr[0]; b = laplace(a); output(b[0]);" ]

let test_secret_write_keeps_public_entries () =
  List.iter check_near_reference
    [ "aggr = sum(db); a[0] = 1000; a[1] = aggr[0]; b = laplace(a); output(b[0]);";
      "aggr = sum(db); a[1] = aggr[0]; a[0] = 1000; b = laplace(a); output(b[0]);" ]

let test_secret_write_copies_vector () =
  List.iter check_near_reference
    [ "aggr = sum(db); b = aggr; aggr[0] = 0 - N; n = laplace(b); output(n[0]);";
      "a = sum(db); b = sum(db); a[0] = 0 - N; n = laplace(b); output(n[0]);" ]

(* [min] is the reference's smallest element on a public vector and the
   negated max of the negated shares on a secret one. The certifier gives
   the min of a secret vector unbounded sensitivity, so no mechanism may
   release it: the secret case is checked to run to the reference's
   release. *)
let test_min_public_and_secret () =
  check_near_reference "c = sum(db); n = laplace(c); m = min(n); output(m);";
  List.iter
    (fun source ->
      let q, db, r = public_run source in
      Alcotest.(check (list string))
        source
        (List.map L.Interp.value_to_string (Arboretum.reference_outputs ~db q))
        (Arboretum.outputs_to_strings (released r)))
    [ "a[0] = 4; a[1] = 0 - 2; a[2] = 7; output(min(a));";
      "c = sum(db); m = min(c); output(len(c));" ]

(* A mechanism lifts a public operand to constant shares and noises it as
   the reference does. The em over 0, 100, 0 has one likely winner on both
   sides. *)
let test_mechanisms_take_public_operands () =
  List.iter check_near_reference
    [ "c = sum(db); n = laplace(c); w = em(n); output(w);";
      "a[0] = 1; a[1] = 2; w = em(a); output(w);";
      "x = 5; y = laplace(x); output(y);";
      "a[0] = 3; a[1] = 9; y = laplace(a); output(y);" ];
  let q, db, r = public_run "a[0] = 0; a[1] = 100; a[2] = 0; w = em(a); output(w);" in
  Alcotest.(check (list string))
    "em over a public vector"
    (List.map L.Interp.value_to_string (Arboretum.reference_outputs ~db q))
    (Arboretum.outputs_to_strings (released r))

let () =
  Alcotest.run "arb_runtime"
    [
      ( "semantics",
        [
          Alcotest.test_case "top1 = mode" `Slow test_top1_matches_mode;
          Alcotest.test_case "topK = true top-5" `Slow test_topk_matches_true_topk;
          Alcotest.test_case "median bucket" `Slow test_median_matches;
          Alcotest.test_case "hypotest decision" `Slow test_hypotest_exact;
          Alcotest.test_case "auction price" `Slow test_auction_matches_revenue_max;
          Alcotest.test_case "cms counts" `Slow test_cms_close_to_counts;
          Alcotest.test_case "gap shape" `Slow test_gap_output_shape;
          Alcotest.test_case "secrecy sampling" `Slow test_secrecy_scales_to_sample;
          Alcotest.test_case "output arity matches interpreter" `Slow
            test_outputs_match_interpreter_shape;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "certificate verifies" `Slow test_certificate_verifies;
          Alcotest.test_case "budget charged" `Slow test_budget_is_charged;
          Alcotest.test_case "budget exhaustion" `Slow test_budget_exhaustion_refuses;
          Alcotest.test_case "byzantine inputs rejected" `Slow
            test_byzantine_inputs_rejected;
          Alcotest.test_case "audit catches tampering" `Slow test_audit_catches_tampering;
          Alcotest.test_case "FHE mask path" `Slow test_fhe_mask_path;
          Alcotest.test_case "trace populated" `Slow test_trace_populated;
          Alcotest.test_case "deterministic given seed" `Slow
            test_deterministic_given_seed;
          Alcotest.test_case "device sum-tree execution" `Slow
            test_device_sum_tree_execution;
          Alcotest.test_case "byte-identical across worker counts" `Slow
            test_workers_byte_identical;
          Alcotest.test_case "sampled-vs-full within est_error" `Slow
            test_sampled_vs_full_within_est_error;
          Alcotest.test_case "sortition spot checks" `Slow test_sortition_spot_checks;
          Alcotest.test_case "stage spans" `Slow test_stage_spans;
          Alcotest.test_case "churn reassignment" `Slow test_churn_reassignment;
          Alcotest.test_case "catastrophic churn aborts" `Quick
            test_catastrophic_churn_aborts;
          Alcotest.test_case "geo profile slower" `Quick test_geo_profile_slower;
          Alcotest.test_case "report wall clocks" `Slow test_report_wall_clocks;
          Alcotest.test_case "audit challenge counts" `Quick test_audit_challenge_count;
          Alcotest.test_case "uncertified query refused" `Quick
            test_runtime_rejects_uncertifiable;
        ] );
      ( "multi-ciphertext",
        [
          Alcotest.test_case "160 categories over a 64-slot ring" `Slow
            test_multi_ciphertext_inputs;
          Alcotest.test_case "binned secrecy with FHE masking" `Slow
            test_multi_ciphertext_secrecy_fhe;
        ] );
      ( "noise-parallelism",
        [
          Alcotest.test_case "committee-per-chunk noising" `Slow
            test_noise_committee_parallelism;
        ] );
      ( "cost-model-bridge",
        [
          Alcotest.test_case "trace matches cost-model ordering" `Slow
            test_trace_agrees_with_cost_model_ordering;
        ] );
      ( "verify",
        [
          Alcotest.test_case "honest run verifies" `Slow test_verify_honest_run;
          Alcotest.test_case "plan substitution detected" `Slow
            test_verify_catches_wrong_plan;
          Alcotest.test_case "tampered audit detected" `Slow
            test_verify_catches_tampered_audit;
        ] );
      ( "public values",
        [
          Alcotest.test_case "noisy-max post-processing" `Quick
            test_noisy_max_post_processing;
          Alcotest.test_case "guards short-circuit" `Quick test_guards_short_circuit;
          Alcotest.test_case "public outputs equal the reference" `Quick
            test_public_outputs_equal_reference;
          Alcotest.test_case "log of a negative fails closed" `Quick
            test_log_of_negative_fails_closed;
          Alcotest.test_case "negative-index writes fail closed" `Quick
            test_negative_index_writes_fail_closed;
          Alcotest.test_case "writes past the bound fail closed" `Quick
            test_writes_past_the_bound_fail_closed;
          Alcotest.test_case "secret write keeps public entries" `Quick
            test_secret_write_keeps_public_entries;
          Alcotest.test_case "secret write copies the vector" `Quick
            test_secret_write_copies_vector;
          Alcotest.test_case "min, public and secret" `Quick test_min_public_and_secret;
          Alcotest.test_case "mechanisms take public operands" `Quick
            test_mechanisms_take_public_operands;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "budget chain + certificates" `Slow test_session_chain;
          Alcotest.test_case "blocks differ per round" `Slow test_session_blocks_differ;
          Alcotest.test_case "round limit R" `Slow test_session_round_limit;
          Alcotest.test_case "wrong row count refused" `Slow
            test_session_refuses_wrong_row_count;
        ] );
    ]
