type finding = { check : string; ok : bool; detail : string }

(* Whether [k] is a plausible size for a sample that takes each of [n]
   devices with probability [phi], a Binomial(n, phi) draw X. The Chernoff
   bound on the tail beyond k, P(X <= k) or P(X >= k) <= exp (-n KL(k/n ||
   phi)), must be at least 1e-9, so an honest sample fails with probability
   below 2e-9. The bound is O(1) where an exact tail sum is O(n), and n
   reaches 10^9. *)
let plausible_sample_size ~n ~phi k =
  let q = float_of_int k /. float_of_int n in
  let term a b = if a = 0.0 then 0.0 else a *. Float.log (a /. b) in
  float_of_int n *. (term q phi +. term (1.0 -. q) (1.0 -. phi)) <= Float.log 1e9

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

  (* 6. Accounting sanity: every device's input was adjudicated. A sampled
     plan adjudicates only its sample, which is secret, so the count must
     be one the sampling rate plausibly draws. *)
  let accepted = report.Exec.accepted_inputs
  and rejected = report.Exec.rejected_inputs in
  let adjudicated = accepted + rejected in
  (match plan.Arb_planner.Plan.device_sample with
  | None ->
      add "input accounting" (adjudicated = n_devices)
        (Printf.sprintf "%d accepted + %d rejected = %d devices" accepted rejected
           n_devices)
  | Some phi ->
      add "input accounting"
        (adjudicated <= n_devices
        && plausible_sample_size ~n:n_devices ~phi adjudicated)
        (Printf.sprintf "%d accepted + %d rejected of %d devices sampled at %g"
           accepted rejected n_devices phi));
  List.rev !findings

let all_ok findings = List.for_all (fun f -> f.ok) findings

let pp_findings fmt findings =
  List.iter
    (fun f ->
      Format.fprintf fmt "[%s] %-36s %s@."
        (if f.ok then "ok" else "FAIL")
        f.check f.detail)
    findings
