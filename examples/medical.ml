(* A medical-study scenario from the paper's introduction: a researcher
   looks for drug combinations that trigger rare side effects. Each device
   holds one patient's (drug-combination, side-effect) pair, one-hot
   encoded; the analyst asks two questions under one privacy budget:

     1. a DP hypothesis test — "do more than 10% of patients on combination
        X report the side effect?" (Laplace mechanism), and
     2. the most common combination among affected patients (exponential
        mechanism),

   demonstrating budget accounting across queries: the key-generation
   committee refuses the third query when the budget runs out (§5.2).

   Run with:  dune exec examples/medical.exe *)

let combos = 24 (* drug-combination categories *)

let hypotest_src = {|
  counts = sum(db);
  affected = laplace(counts[0]);
  threshold = N / 10;
  if affected > threshold then
    output(1);
  else
    output(0);
  endif
|}

let common_src = {|
  counts = sum(db);
  worst = em(counts);
  output(worst);
|}

let () =
  let n = 384 in
  let rng = Arb_util.Rng.create 13L in
  let mk name source =
    Arboretum.query_of_source ~name ~source ~row:(Arboretum.one_hot combos)
      ~epsilon:1.0 ()
  in
  let q1 = mk "side-effect-test" hypotest_src in
  let q2 = mk "worst-combination" common_src in
  (* Population: combination 3 is overrepresented; ~15% of rows fall in
     category 0 ("reports the side effect"). *)
  let db =
    Array.init n (fun _ ->
        let row = Array.make combos 0 in
        let c =
          if Arb_util.Rng.uniform01 rng < 0.15 then 0
          else if Arb_util.Rng.uniform01 rng < 0.5 then 3
          else Arb_util.Rng.int rng combos
        in
        row.(c) <- 1;
        row)
  in
  (* A standing budget: each query costs epsilon = 1.0; the third request
     must be refused. *)
  let budget = Arb_dp.Budget.create ~epsilon:2.0 ~delta:1e-6 in
  let config = { Arb_runtime.Exec.default_config with budget } in
  (* Each run returns the budget its certificate leaves standing. *)
  let run_query label q budget =
    let planned = Arboretum.plan ~limits:Arb_planner.Constraints.no_limits ~n q in
    Result.map
      (fun report ->
        let left = report.Arb_runtime.Exec.certificate.Arb_runtime.Setup.budget_left in
        Printf.printf "%-18s -> %s   (budget left: %s)\n" label
          (String.concat "; " (Arboretum.outputs_to_strings report))
          (Format.asprintf "%a" Arb_dp.Budget.pp left);
        left)
      (Arboretum.run ~config:{ config with budget } ~db planned)
  in
  let released = function
    | Ok left -> left
    | Error f -> failwith (Format.asprintf "%a" Arb_runtime.Exec.pp_failure f)
  in
  let budget = released (run_query "hypothesis test" q1 budget) in
  let budget = released (run_query "worst combination" q2 budget) in
  match run_query "third query" q1 budget with
  | Error { Arb_runtime.Exec.stage = "budget"; _ } ->
      print_endline "third query        -> refused: privacy budget exhausted (as intended)"
  | _ ->
      prerr_endline "BUG: third query should have been refused";
      exit 1
