(* Scale-equivalence suite for the cohort-sharded runtime.

   The fidelity contract (DESIGN.md §11, exec.mli): a [Sharded] run must
   release exactly what the [Full] run releases — bit-identical decrypted
   outputs, budget deduction and signed certificate — because per-device
   randomness is an indexed PRF, sortition is a pure function of (seed, N),
   and unsampled cohorts contribute their exact plaintext sums through one
   real residual ciphertext. These tests run both modes over the same
   indexed population at small N, where "materialize everything" is cheap
   enough to serve as the ground truth. *)

module R = Arb_runtime
module Q = Arb_queries.Registry
module L = Arb_lang
module P = Arb_planner
module Rng = Arb_util.Rng

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let big_budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.5

let config ?(seed = 3L) ?(byz = 0.0) ?(sharding = R.Exec.Full) () =
  {
    R.Exec.default_config with
    R.Exec.seed;
    byzantine_fraction = byz;
    budget = big_budget;
    sharding;
  }

(* One plan per (query, n), shared by both modes — the equivalence claim is
   about execution, so both runs must execute the same plan. *)
let context =
  let cache = Hashtbl.create 8 in
  fun name n ->
    match Hashtbl.find_opt cache (name, n) with
    | Some c -> c
    | None ->
        let q = Q.test_instance ~epsilon:1000.0 name in
        let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n () in
        let plan =
          match r.P.Search.plan with
          | Some p -> p
          | None -> Alcotest.fail ("no plan for " ^ name)
        in
        let src = { R.Exec.n_devices = n; row = Q.device_source ~seed:77L q } in
        let c = (q, plan, src) in
        Hashtbl.add cache (name, n) c;
        c

let run_result ~name ~n ~seed ~byz sharding =
  let q, plan, src = context name n in
  R.Exec.run_source (config ~seed ~byz ~sharding ()) ~query:q ~plan ~src

let run_mode ~name ~n ~seed ~byz sharding =
  match run_result ~name ~n ~seed ~byz sharding with
  | Ok report -> report
  | Error f -> Alcotest.failf "%s failed closed: %a" name R.Exec.pp_failure f

let budget_left (r : R.Exec.report) = r.R.Exec.certificate.R.Setup.budget_left

(* The contract itself: everything the protocol releases is identical. *)
let check_equivalent ~label full sharded =
  checkb (label ^ ": outputs bit-identical") true
    (full.R.Exec.outputs = sharded.R.Exec.outputs);
  checkb (label ^ ": budget deduction identical") true
    (Arb_dp.Budget.equal (budget_left full) (budget_left sharded));
  checkb (label ^ ": certificate identical") true
    (full.R.Exec.certificate = sharded.R.Exec.certificate);
  checkb (label ^ ": both certificates verify") true
    (full.R.Exec.certificate_ok && sharded.R.Exec.certificate_ok);
  checkb (label ^ ": both audits pass") true
    (full.R.Exec.audit_ok && sharded.R.Exec.audit_ok);
  checki (label ^ ": accepted inputs identical") full.R.Exec.accepted_inputs
    sharded.R.Exec.accepted_inputs;
  checki (label ^ ": rejected inputs identical") full.R.Exec.rejected_inputs
    sharded.R.Exec.rejected_inputs

let equivalence_combos =
  (* (n, cohort_size, sampled_cohorts): dividing and non-dividing cohort
     sizes, a ragged final cohort, every cohort sampled, and one cohort
     spanning the whole population (the degenerate-but-distinct case). *)
  [
    (64, 16, 2);
    (96, 32, 3);
    (* all 3 cohorts sampled: no residual ciphertext *)
    (100, 17, 2);
    (* 100/17 -> 6 cohorts, last one ragged (15 devices) *)
    (64, 64, 1);
    (* single cohort covering everything *)
    (50, 8, 10);
    (* sampled_cohorts > n_cohorts: clamped to all 7 *)
  ]

let test_sharded_equals_full_clean () =
  List.iter
    (fun name ->
      List.iter
        (fun (n, cohort_size, sampled_cohorts) ->
          let label =
            Printf.sprintf "%s n=%d cohort=%d k=%d" name n cohort_size
              sampled_cohorts
          in
          let full = run_mode ~name ~n ~seed:3L ~byz:0.0 R.Exec.Full in
          let sharded =
            run_mode ~name ~n ~seed:3L ~byz:0.0
              (R.Exec.Sharded { cohort_size; sampled_cohorts })
          in
          check_equivalent ~label full sharded)
        equivalence_combos)
    [ "top1"; "hypotest" ]

let test_sharded_equals_full_byzantine () =
  (* Byzantine flags are per-device PRF draws, so extrapolated cohorts
     reject exactly the devices the full run rejects. *)
  List.iter
    (fun (n, cohort_size, sampled_cohorts) ->
      let label =
        Printf.sprintf "byz top1 n=%d cohort=%d k=%d" n cohort_size
          sampled_cohorts
      in
      let full = run_mode ~name:"top1" ~n ~seed:5L ~byz:0.25 R.Exec.Full in
      let sharded =
        run_mode ~name:"top1" ~n ~seed:5L ~byz:0.25
          (R.Exec.Sharded { cohort_size; sampled_cohorts })
      in
      checkb (label ^ ": some devices were rejected") true
        (full.R.Exec.rejected_inputs > 0);
      check_equivalent ~label full sharded)
    [ (64, 16, 2); (100, 17, 2) ]

let test_sharded_equals_full_median () =
  (* A Bounded-row query exercises the multi-slot encoding path. *)
  let full = run_mode ~name:"median" ~n:64 ~seed:3L ~byz:0.0 R.Exec.Full in
  let sharded =
    run_mode ~name:"median" ~n:64 ~seed:3L ~byz:0.0
      (R.Exec.Sharded { cohort_size = 16; sampled_cohorts = 2 })
  in
  check_equivalent ~label:"median n=64 cohort=16 k=2" full sharded

let test_streaming_materializes_only_sampled () =
  (* A population 40x larger than what the sampled cohorts materialize:
     the gauges must show O(cohort) materialization while the accounting
     still covers every device. *)
  let n = 20_000 in
  let sharded =
    run_mode ~name:"hypotest" ~n ~seed:3L ~byz:0.0
      (R.Exec.Sharded { cohort_size = 256; sampled_cohorts = 2 })
  in
  let t = sharded.R.Exec.trace in
  checki "all devices accounted for" n
    (sharded.R.Exec.accepted_inputs + sharded.R.Exec.rejected_inputs);
  checki "devices_total gauge" n t.R.Trace.devices_total;
  checki "devices_materialized gauge" 512 t.R.Trace.devices_materialized;
  checki "cohorts_total gauge" 79 t.R.Trace.cohorts_total;
  checki "cohorts_sampled gauge" 2 t.R.Trace.cohorts_sampled;
  checkb "audit passes" true sharded.R.Exec.audit_ok;
  checkb "certificate verifies" true sharded.R.Exec.certificate_ok;
  (* Extrapolated device work covers the whole population, not just the
     materialized slice. *)
  checkb "encrypt ops cover all devices" true
    (t.R.Trace.device_encrypt_ops >= n)

let prop_sharded_equals_full =
  QCheck.Test.make ~name:"sharded == full for random (n, cohort, k, byz)"
    ~count:12
    QCheck.(
      quad (int_range 20 100) (int_range 4 48) (int_range 1 4) (int_range 0 1))
    (fun (n, cohort_size, sampled_cohorts, byz_on) ->
      (* qcheck shrinking can step outside the generator ranges; clamp so a
         shrunk candidate stays a valid configuration (the runtime needs at
         least 4 committees' worth of devices). *)
      let n = max 20 n in
      let cohort_size = max 1 cohort_size in
      let sampled_cohorts = max 1 sampled_cohorts in
      let byz = if byz_on = 1 then 0.2 else 0.0 in
      let full = run_mode ~name:"top1" ~n ~seed:9L ~byz R.Exec.Full in
      let sharded =
        run_mode ~name:"top1" ~n ~seed:9L ~byz
          (R.Exec.Sharded { cohort_size; sampled_cohorts })
      in
      full.R.Exec.outputs = sharded.R.Exec.outputs
      && Arb_dp.Budget.equal (budget_left full) (budget_left sharded)
      && full.R.Exec.certificate = sharded.R.Exec.certificate
      && full.R.Exec.accepted_inputs = sharded.R.Exec.accepted_inputs
      && full.R.Exec.rejected_inputs = sharded.R.Exec.rejected_inputs)

let prop_sharded_deterministic =
  QCheck.Test.make ~name:"sharded run is a pure function of its seed" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      let go () =
        run_mode ~name:"top1" ~n:64 ~seed ~byz:0.1
          (R.Exec.Sharded { cohort_size = 16; sampled_cohorts = 2 })
      in
      let a = go () and b = go () in
      a.R.Exec.outputs = b.R.Exec.outputs
      && String.equal a.R.Exec.audit_root b.R.Exec.audit_root
      && Arb_util.Json.to_string (R.Trace.to_json a.R.Exec.trace)
         = Arb_util.Json.to_string (R.Trace.to_json b.R.Exec.trace))

let test_sharded_rejects_bad_config () =
  let bad sharding =
    match run_result ~name:"top1" ~n:64 ~seed:3L ~byz:0.0 sharding with
    | Error f -> f.R.Exec.stage = "execute"
    | Ok _ -> false
  in
  checkb "cohort_size 0 rejected" true
    (bad (R.Exec.Sharded { cohort_size = 0; sampled_cohorts = 1 }));
  checkb "sampled_cohorts 0 rejected" true
    (bad (R.Exec.Sharded { cohort_size = 16; sampled_cohorts = 0 }))

let () =
  Alcotest.run "arb_scale"
    [
      ( "equivalence",
        [
          Alcotest.test_case "sharded == full (clean)" `Quick
            test_sharded_equals_full_clean;
          Alcotest.test_case "sharded == full (byzantine)" `Quick
            test_sharded_equals_full_byzantine;
          Alcotest.test_case "sharded == full (bounded rows)" `Quick
            test_sharded_equals_full_median;
          qtest prop_sharded_equals_full;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "materializes only sampled cohorts" `Quick
            test_streaming_materializes_only_sampled;
          qtest prop_sharded_deterministic;
          Alcotest.test_case "bad sharding config rejected" `Quick
            test_sharded_rejects_bad_config;
        ] );
    ]
