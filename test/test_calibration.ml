(* Tests for the self-calibrating cost model (lib/planner/calibration):
   versioned JSON round-trips, typed load failures with fall-back to the
   default model, residual recording, fit recovery of planted per-section
   scales, and fits over the residual log real executions write. *)

module P = Arb_planner
module C = P.Calibration
module CM = P.Cost_model
module M = Arb_obs.Metrics
module J = Arb_util.Json

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "arb-test-cal-%s-%d.json" name (Unix.getpid ()))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ---------------- JSON round-trip ---------------- *)

(* A calibration with arbitrary (positive, finite) constants and a
   non-trivial provenance: the shape `fit` actually produces. *)
let arb_calibration =
  let open QCheck in
  let pos = Gen.float_range 1e-9 1e9 in
  let gen =
    Gen.map
      (fun (a, b, c, (d, e, f)) ->
        let d0 = CM.default in
        let constants =
          {
            d0 with
            CM.kg_coeff_time = a;
            dec_coeff_time = b;
            felt_bytes = c;
            round_latency = d;
          }
        in
        let provenance =
          {
            C.p_runs = 3;
            p_skipped = 1;
            p_base = CM.fingerprint d0;
            p_err_before = e;
            p_err_after = f;
            p_sections =
              [
                {
                  C.s_section = "decrypt_time";
                  s_samples = 3;
                  s_scale = b /. d0.CM.dec_coeff_time;
                  s_err_before = e;
                  s_err_after = f;
                };
              ];
          }
        in
        C.make ~provenance constants)
      Gen.(tup4 pos pos pos (tup3 pos pos pos))
  in
  QCheck.make ~print:(fun t -> J.to_string ~pretty:true (C.to_json t)) gen

let prop_json_round_trip =
  QCheck.Test.make ~count:100 ~name:"calibration JSON round-trips exactly"
    arb_calibration (fun t ->
      match C.of_json (C.to_json t) with
      | Error e -> QCheck.Test.fail_report (C.error_message e)
      | Ok t' ->
          t'.C.version = t.C.version
          && t'.C.fingerprint = t.C.fingerprint
          && t'.C.constants = t.C.constants
          && t'.C.provenance = t.C.provenance
          && J.to_string (C.to_json t') = J.to_string (C.to_json t))

let test_save_load () =
  let path = tmp_path "roundtrip" in
  let d0 = CM.default in
  let t = C.make { d0 with CM.kg_coeff_time = d0.CM.kg_coeff_time *. 2.0 } in
  C.save path t;
  match C.load path with
  | Error e -> Alcotest.fail (C.error_message e)
  | Ok t' ->
      checks "fingerprint survives" t.C.fingerprint t'.C.fingerprint;
      checkb "constants survive" true (t'.C.constants = t.C.constants)

(* ---------------- typed failures ---------------- *)

let test_unreadable () =
  let path = tmp_path "missing" in
  if Sys.file_exists path then Sys.remove path;
  (match C.load path with
  | Error (C.Unreadable _) -> ()
  | _ -> Alcotest.fail "missing file should be Unreadable");
  let t, err = C.load_or_default path in
  checks "falls back to default" C.default.C.fingerprint t.C.fingerprint;
  checkb "error surfaced" true (err <> None)

let test_malformed () =
  let path = tmp_path "malformed" in
  write_file path "{not json";
  (match C.load path with
  | Error (C.Malformed _) -> ()
  | _ -> Alcotest.fail "garbage should be Malformed");
  (* Valid JSON, wrong schema. *)
  write_file path "{\"schema\": \"something-else/9\"}";
  (match C.load path with
  | Error (C.Malformed { reason; _ }) ->
      checkb "reason names the schema" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "wrong schema should be Malformed");
  let t, err = C.load_or_default path in
  checks "falls back to default" C.default.C.fingerprint t.C.fingerprint;
  checkb "error surfaced" true (err <> None)

let test_fingerprint_mismatch () =
  let path = tmp_path "tampered" in
  (* Hand-edit a constant without refreshing the fingerprint: the loader
     must reject the file rather than trust a stale fingerprint. *)
  let json =
    match C.to_json C.default with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "constants", J.Obj cs ->
                   ( "constants",
                     J.Obj
                       (List.map
                          (function
                            | "felt_bytes", _ -> ("felt_bytes", J.Float 999.0)
                            | kv -> kv)
                          cs) )
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "to_json is not an object"
  in
  write_file path (J.to_string json);
  match C.load path with
  | Error (C.Malformed { reason; _ }) ->
      checkb "reason mentions fingerprint" true
        (String.length reason >= 11 && String.sub reason 0 11 = "fingerprint")
  | _ -> Alcotest.fail "tampered constants should be Malformed"

let test_future_version () =
  let path = tmp_path "future" in
  let json =
    match C.to_json C.default with
    | J.Obj fields ->
        J.Obj
          (List.map
             (function
               | "version", _ -> ("version", J.Int (C.current_version + 1))
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "to_json is not an object"
  in
  write_file path (J.to_string json);
  (match C.load path with
  | Error (C.Future_version { found; supported; _ }) ->
      checki "found version" (C.current_version + 1) found;
      checki "supported version" C.current_version supported
  | _ -> Alcotest.fail "newer version should be Future_version");
  let t, _ = C.load_or_default path in
  checks "falls back to default" C.default.C.fingerprint t.C.fingerprint

(* ---------------- recording and fitting ---------------- *)

(* The (section, predicted, measured) totals [C.record] accumulated in a
   registry. *)
let samples_of_registry reg =
  List.filter_map
    (fun section ->
      let labels = [ ("section", section) ] in
      match
        ( M.value_at reg ~labels "arb_cal_predicted_total",
          M.value_at reg ~labels "arb_cal_measured_total" )
      with
      | Some p, Some m -> Some (section, p, m)
      | _ -> None)
    C.sections

let test_record_and_read_back () =
  let reg = M.create () in
  C.record reg
    [ ("decrypt_time", 10.0, 5.0); ("ops_bytes", 4.0, 8.0) ];
  C.record reg [ ("decrypt_time", 6.0, 3.0) ];
  let samples = List.sort compare (samples_of_registry reg) in
  checkb "cumulative totals read back" true
    (samples = [ ("decrypt_time", 16.0, 8.0); ("ops_bytes", 4.0, 8.0) ]);
  (* Residuals landed in the labeled histogram. *)
  checkb "residual histogram populated" true
    (M.histogram_quantile reg
       ~labels:[ ("section", "decrypt_time") ]
       "arb_cal_residual_rel" 0.5
    <> None)

(* Synthetic residuals with planted per-section scales: the fit must
   recover each scale exactly (the model is linear in every scaled
   group), leaving zero post-fit error. *)
let test_fit_recovers_planted_scales () =
  let planted =
    [
      ("keygen_time", 0.25); ("keygen_bytes", 4.0); ("decrypt_time", 2.0);
      ("ops_time", 0.5); ("ops_bytes", 3.0); ("upload_bytes", 8.0);
    ]
  in
  let run magnitude =
    List.map
      (fun (section, scale) ->
        let p = magnitude in
        (section, p, p *. scale))
      planted
  in
  let runs = [ run 10.0; run 20.0; run 40.0 ] in
  match C.fit ~runs () with
  | Error m -> Alcotest.fail m
  | Ok t ->
      let prov = t.C.provenance in
      checki "runs counted" 3 prov.C.p_runs;
      checkf "post-fit error vanishes" 0.0 prov.C.p_err_after;
      checkb "pre-fit error was real" true (prov.C.p_err_before > 0.1);
      List.iter
        (fun f ->
          let want = List.assoc f.C.s_section planted in
          checkf ("scale " ^ f.C.s_section) want f.C.s_scale;
          checkf ("section err " ^ f.C.s_section) 0.0 f.C.s_err_after)
        prov.C.p_sections;
      (* Scales landed on the constants themselves. *)
      let d0 = CM.default in
      checkf "dec_coeff_time scaled" (d0.CM.dec_coeff_time *. 2.0)
        t.C.constants.CM.dec_coeff_time;
      checkf "kg_coeff_time scaled" (d0.CM.kg_coeff_time *. 0.25)
        t.C.constants.CM.kg_coeff_time;
      checkf "felt_bytes scaled" (d0.CM.felt_bytes *. 8.0)
        t.C.constants.CM.felt_bytes;
      (* And the wrapper is internally consistent. *)
      checks "fingerprint matches constants"
        (CM.fingerprint t.C.constants) t.C.fingerprint;
      checks "base fingerprint recorded" (CM.fingerprint d0) prov.C.p_base

let test_fit_no_samples () =
  (match C.fit ~runs:[] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty runs must not fit");
  match C.fit ~runs:[ [ ("decrypt_time", 0.0, 5.0) ] ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero-predicted samples must not fit"

(* A residual-log directory of this process, emptied. *)
let store name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "arb-test-cal-%s-%d" name (Unix.getpid ()))
  in
  let log = Filename.concat dir "residuals.jsonl" in
  if Sys.file_exists log then Sys.remove log;
  dir

let submission query =
  {
    Arb_service.Workload.query;
    epsilon = 0.5;
    categories = None;
    goal = P.Constraints.Min_part_exp_time;
    repeat = 1;
    every = None;
    window = None;
    tolerance = None;
  }

(* One service at 24 devices that drains each batch of queries in turn. *)
let drain_batches ?metrics ?calibration ~snapshots batches =
  let module S = Arb_service in
  let svc =
    S.Service.create ?metrics ?calibration ~snapshots
      ~budget:(Arb_dp.Budget.create ~epsilon:1.0e6 ~delta:0.5)
      ~devices:24 ~seed:11 ()
  in
  List.iter
    (fun batch ->
      List.iter (fun q -> ignore (S.Service.submit svc (submission q))) batch;
      ignore (S.Service.drain svc))
    batches

(* The loop end to end on real executions: one drain per query appends
   one residual line, the fit over that log at least halves the error it
   measures, and re-running the same drains under the fitted model at
   least halves the mean relative residual they record. *)
let test_observe_fit_rerun () =
  let module S = Arb_service in
  let dir = store "loop" in
  let drains ?calibration ?snapshots () =
    let reg = M.create () in
    List.iter
      (fun query ->
        let svc =
          S.Service.create ~metrics:reg ?calibration ?snapshots
            ~budget:(Arb_dp.Budget.create ~epsilon:1.0e6 ~delta:0.5)
            ~devices:24 ~seed:11 ()
        in
        ignore (S.Service.submit svc (submission query));
        ignore (S.Service.drain svc))
      [ "top1"; "median" ];
    reg
  in
  let mean_residual reg =
    match samples_of_registry reg with
    | [] -> Alcotest.fail "no residual samples"
    | samples ->
        List.fold_left
          (fun acc (_, p, m) ->
            acc +. (Float.abs (p -. m) /. Float.max (Float.abs m) 1e-12))
          0.0 samples
        /. float_of_int (List.length samples)
  in
  let observed = mean_residual (drains ~snapshots:dir ()) in
  match C.fit_snapshots ~dir () with
  | Error m -> Alcotest.fail m
  | Ok fitted ->
      let prov = fitted.C.provenance in
      checki "one run per query" 2 prov.C.p_runs;
      checkb "fit halves its own error" true
        (prov.C.p_err_after <= 0.5 *. prov.C.p_err_before);
      checkb "re-run under the fit halves the residual" true
        (mean_residual (drains ~calibration:fitted ()) <= 0.5 *. observed)

(* The mean of the relative residuals [C.record] observed for a section,
   one per execution. *)
let registry_mean_residual reg section =
  let h =
    List.find
      (fun i ->
        J.member "name" i = J.String "arb_cal_residual_rel"
        && J.member "labels" i = J.Obj [ ("section", J.String section) ])
      (J.to_list (M.to_json reg))
  in
  J.to_float (J.member "sum" h) /. float_of_int (J.to_int (J.member "count" h))

(* Each execution is one run of the fit: the fit's scales are the ratios
   of the totals the same executions recorded in the registry, and its
   errors before the fit are the means of their per-execution residuals.
   A missing log fits nothing; a torn line is skipped and counted. *)
let test_one_run_per_execution () =
  let dir = store "runs" in
  (match C.fit_snapshots ~dir () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a missing log must not fit");
  let reg = M.create () in
  drain_batches ~metrics:reg ~snapshots:dir [ [ "top1"; "median" ]; [ "top1" ] ];
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "residuals.jsonl")
  in
  output_string oc "{\"schema\":\"arb-resid\n";
  close_out oc;
  match C.fit_snapshots ~dir () with
  | Error m -> Alcotest.fail m
  | Ok fitted ->
      let prov = fitted.C.provenance in
      checki "one run per execution" 3 prov.C.p_runs;
      checki "torn line skipped" 1 prov.C.p_skipped;
      checki "every section fitted" (List.length C.sections)
        (List.length prov.C.p_sections);
      List.iter
        (fun f ->
          let total name =
            Option.get (M.value_at reg ~labels:[ ("section", f.C.s_section) ] name)
          in
          checki ("samples " ^ f.C.s_section) 3 f.C.s_samples;
          checkb ("scale " ^ f.C.s_section) true
            (f.C.s_scale
            = total "arb_cal_measured_total" /. total "arb_cal_predicted_total");
          checkb ("error before " ^ f.C.s_section) true
            (f.C.s_err_before = registry_mean_residual reg f.C.s_section))
        prov.C.p_sections

(* A refit over a log that also holds executions priced under the fit
   itself uses only the lines its base priced, and so reproduces the fit. *)
let test_fit_skips_other_models () =
  let dir = store "models" in
  let batch = [ [ "top1"; "median" ] ] in
  drain_batches ~snapshots:dir batch;
  match C.fit_snapshots ~dir () with
  | Error m -> Alcotest.fail m
  | Ok fitted -> (
      drain_batches ~calibration:fitted ~snapshots:dir batch;
      match C.fit_snapshots ~dir () with
      | Error m -> Alcotest.fail m
      | Ok refit ->
          checks "refit reproduces the fit" fitted.C.fingerprint
            refit.C.fingerprint;
          checki "runs under the base" 2 refit.C.provenance.C.p_runs;
          checki "lines priced under the fit skipped" 2
            refit.C.provenance.C.p_skipped)

let test_fingerprint_sensitivity () =
  let d0 = CM.default in
  let a = CM.fingerprint d0 in
  let b =
    CM.fingerprint { d0 with CM.felt_bytes = d0.CM.felt_bytes +. 1.0 }
  in
  checkb "fingerprint tracks constants" true (a <> b);
  checki "sha256 hex length" 64 (String.length a)

let () =
  Alcotest.run "calibration"
    [
      ( "json",
        [
          qtest prop_json_round_trip;
          Alcotest.test_case "save/load round-trip" `Quick test_save_load;
        ] );
      ( "failures",
        [
          Alcotest.test_case "unreadable -> typed + default" `Quick
            test_unreadable;
          Alcotest.test_case "malformed -> typed + default" `Quick
            test_malformed;
          Alcotest.test_case "stale fingerprint rejected" `Quick
            test_fingerprint_mismatch;
          Alcotest.test_case "future version -> typed + default" `Quick
            test_future_version;
        ] );
      ( "fit",
        [
          Alcotest.test_case "record + samples_of_registry" `Quick
            test_record_and_read_back;
          Alcotest.test_case "fit recovers planted scales" `Quick
            test_fit_recovers_planted_scales;
          Alcotest.test_case "fit refuses unusable samples" `Quick
            test_fit_no_samples;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "observe -> fit_snapshots -> re-run" `Quick
            test_observe_fit_rerun;
          Alcotest.test_case "one run per execution" `Quick
            test_one_run_per_execution;
          Alcotest.test_case "fit skips lines priced under other models"
            `Quick test_fit_skips_other_models;
        ] );
    ]
