(* Quickstart: write a query, certify + plan it for a billion devices, then
   execute it end to end at simulation scale with real cryptography.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* An analyst writes the query as if the whole database sat on one
     machine: db is N x C; each row one-hot-encodes a category. *)
  let query =
    Arboretum.query_of_source ~name:"favorite-color"
      ~source:
        {|
          counts = sum(db);
          winner = em(counts);
          output(winner);
        |}
      ~row:(Arboretum.one_hot 16) ~epsilon:2.0 ()
  in

  (* Planning phase (Fig. 1): certification, plan-space search, scoring. *)
  let planned = Arboretum.plan ~n:1_000_000_000 query in
  print_endline "=== chosen plan for N = 10^9 devices ===";
  print_string (Arboretum.explain planned);

  (* Execution phase at simulation scale: every ciphertext, share, proof and
     committee below is real. *)
  let db = Arboretum.synthesize_database query ~n:128 in
  let sim = Arboretum.plan ~limits:Arb_planner.Constraints.no_limits ~n:128 query in
  Printf.printf "\n=== simulated run over %d devices ===\n" (Array.length db);
  (* A run that fails closed (budget short, audit failed, ...) releases
     nothing and says which stage stopped it. *)
  (match Arboretum.run ~db sim with
  | Ok report ->
      Printf.printf "outputs: %s\n" (String.concat "; " (Arboretum.outputs_to_strings report));
      Printf.printf "certificate verified: %b; aggregator audit passed: %b\n"
        report.Arb_runtime.Exec.certificate_ok report.Arb_runtime.Exec.audit_ok
  | Error f -> Format.printf "run failed closed: %a@." Arb_runtime.Exec.pp_failure f);

  (* Compare against the single-machine reference semantics. *)
  let reference = Arboretum.reference_outputs ~db query in
  Printf.printf "reference (cleartext) output: %s\n"
    (String.concat "; " (List.map Arb_lang.Interp.value_to_string reference))
