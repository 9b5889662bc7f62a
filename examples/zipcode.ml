(* The paper's motivating query (§3.2): "Which zip code in the United States
   contains the most participants?" — a categorical query over 41,683
   possible zip codes, far beyond what single-committee systems can noise.

   This example shows how the planner handles the real category count for a
   10^8-device deployment (the strawman comparison of Table 1), then runs a
   scaled-down version (64 "zip codes", 192 devices) end to end.

   Run with:  dune exec examples/zipcode.exe *)

let zipcodes_in_us = 41_683

let source = {|
  perZip = sum(db);
  popular = em(perZip);
  output(popular);
|}

let () =
  let n = 100_000_000 in
  let query =
    Arboretum.query_of_source ~name:"zipcode" ~source
      ~row:(Arboretum.one_hot zipcodes_in_us) ~epsilon:0.1 ()
  in
  let planned = Arboretum.plan ~n query in
  Printf.printf "=== plan for %d zip codes, N = 10^8 ===\n" zipcodes_in_us;
  print_string (Arboretum.explain planned);

  (* Contrast with the strawmen of §3.2 / Table 1. *)
  let fhe = Arb_baselines.Baselines.fhe_only ~n ~cols:zipcodes_in_us in
  let mpc = Arb_baselines.Baselines.all_to_all_mpc ~n in
  Printf.printf "\n=== strawmen at the same scale ===\n";
  Printf.printf "FHE-only aggregator compute: %s (%s)\n"
    (Arb_util.Units.seconds_to_string fhe.Arb_baselines.Baselines.agg_compute_seconds)
    fhe.Arb_baselines.Baselines.description;
  Printf.printf "All-to-all MPC per-participant traffic: %s (%s)\n"
    (Arb_util.Units.bytes_to_string mpc.Arb_baselines.Baselines.participant_bytes_typical)
    mpc.Arb_baselines.Baselines.description;
  Printf.printf "Arboretum expected per-participant traffic: %s\n"
    (Arb_util.Units.bytes_to_string
       planned.Arboretum.metrics.Arb_planner.Cost_model.part_exp_bytes);

  (* Scaled-down end-to-end run. *)
  let small =
    Arboretum.query_of_source ~name:"zipcode-sim" ~source
      ~row:(Arboretum.one_hot 64) ~epsilon:2.0 ()
  in
  let db = Arboretum.synthesize_database ~skew:1.4 small ~n:192 in
  let sim = Arboretum.plan ~limits:Arb_planner.Constraints.no_limits ~n:192 small in
  let report =
    match Arboretum.run ~db sim with
    | Ok report -> report
    | Error f -> failwith (Format.asprintf "run failed closed: %a" Arb_runtime.Exec.pp_failure f)
  in
  let truth =
    (* Cleartext mode of the synthetic population, for comparison. *)
    let counts = Array.make 64 0 in
    Array.iter
      (fun row -> Array.iteri (fun j v -> counts.(j) <- counts.(j) + v) row)
      db;
    let best = ref 0 in
    Array.iteri (fun j c -> if c > counts.(!best) then best := j) counts;
    !best
  in
  Printf.printf "\n=== simulated run (64 zip codes, 192 devices) ===\n";
  Printf.printf "DP winner: %s   (true mode: %d)\n"
    (String.concat "; " (Arboretum.outputs_to_strings report))
    truth
