type finding = { check : string; ok : bool; detail : string }

let verify_report ~query ~plan ~budget_before ~n_devices (report : Exec.report) =
  let cert = report.Exec.certificate in
  let findings = ref [] in
  let add check ok detail = findings := { check; ok; detail } :: !findings in

  (* 1. Certificate signatures (Lamport, against the signed payload). *)
  add "certificate signatures"
    (Setup.verify_certificate cert)
    (Printf.sprintf "%d member signature(s)" (List.length cert.Setup.signatures));

  (* 2. The certificate commits to exactly the plan that was executed. *)
  let plan_digest =
    Arb_crypto.Sha256.digest (Format.asprintf "%a" Arb_planner.Plan.pp plan)
  in
  add "plan commitment"
    (String.equal plan_digest cert.Setup.plan_digest)
    "certificate.plan_digest = H(plan)";

  (* 3. Budget arithmetic: before - charged cost = left, where a sampled
     plan is charged its amplified cost. *)
  let cert_report = Arb_lang.Certify.certify query.Arb_queries.Registry.program ~n:n_devices in
  let cost = Arb_planner.Plan.charged plan cert_report.Arb_lang.Certify.cost in
  (match Arb_dp.Budget.charge budget_before ~cost with
  | Some expected ->
      let close a b = Float.abs (a -. b) < 1e-9 in
      let left = cert.Setup.budget_left in
      add "budget arithmetic"
        (close expected.Arb_dp.Budget.epsilon left.Arb_dp.Budget.epsilon
        && close expected.Arb_dp.Budget.delta left.Arb_dp.Budget.delta)
        (Format.asprintf "left %a" Arb_dp.Budget.pp left)
  | None ->
      add "budget arithmetic" false "the run should have been refused: cost exceeds the balance");

  (* 4. The query itself was certified differentially private. *)
  add "differential privacy certification" cert_report.Arb_lang.Certify.certified
    (Option.value cert_report.Arb_lang.Certify.reason ~default:"certified");

  (* 5. The aggregator's Merkle audit held. *)
  add "aggregator audit" report.Exec.audit_ok
    (Printf.sprintf "%d challenge(s), %d failed"
       report.Exec.trace.Trace.audits_performed
       report.Exec.trace.Trace.audits_failed);

  (* 6. Accounting sanity: every device's input was adjudicated. *)
  add "input accounting"
    (report.Exec.accepted_inputs + report.Exec.rejected_inputs = n_devices)
    (Printf.sprintf "%d accepted + %d rejected = %d devices"
       report.Exec.accepted_inputs report.Exec.rejected_inputs n_devices);
  List.rev !findings

let all_ok findings = List.for_all (fun f -> f.ok) findings

let pp_findings fmt findings =
  List.iter
    (fun f ->
      Format.fprintf fmt "[%s] %-36s %s@."
        (if f.ok then "ok" else "FAIL")
        f.check f.detail)
    findings
