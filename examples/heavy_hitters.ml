(* Heavy hitters: the app-battery-drain question from the paper's
   introduction ("which apps cause a large battery drain?"). Each device
   one-hot encodes the app that drained its battery most; the analyst wants
   the top five offenders — the topK query — plus how dominant the worst
   offender is (the free-gap variant).

   Compares the two exponential-mechanism instantiations (Fig. 4) that the
   planner chooses between, by forcing each and executing both.

   Run with:  dune exec examples/heavy_hitters.exe *)

let apps = 32

let topk_src = {|
  drains = sum(db);
  for round = 1 to 5 do
    worst = em(drains);
    output(worst);
    drains[worst] = 0 - N;
  endfor
|}

let gap_src = {|
  drains = sum(db);
  r = emGap(drains);
  output(r[0]);
  output(r[1]);
|}

(* A run either releases its outputs or fails closed at a named stage. *)
let released = function
  | Ok report -> report
  | Error f -> failwith (Format.asprintf "run failed closed: %a" Arb_runtime.Exec.pp_failure f)

let () =
  let n = 256 in
  (* Five em rounds at eps = 2.5 need a larger standing budget than the
     default config provides. *)
  let config =
    {
      Arb_runtime.Exec.default_config with
      budget = Arb_dp.Budget.create ~epsilon:100.0 ~delta:1e-3;
    }
  in
  let mk name source =
    Arboretum.query_of_source ~name ~source ~row:(Arboretum.one_hot apps)
      ~epsilon:2.5 ()
  in
  let topk = mk "battery-top5" topk_src in
  let db = Arboretum.synthesize_database ~seed:21L ~skew:1.6 topk ~n in
  let counts = Array.make apps 0 in
  Array.iter (fun row -> Array.iteri (fun j v -> counts.(j) <- counts.(j) + v) row) db;
  let order = Array.init apps Fun.id in
  Array.sort (fun a b -> compare counts.(b) counts.(a)) order;
  Printf.printf "true top-5 apps: %s\n"
    (String.concat ", " (Array.to_list (Array.map string_of_int (Array.sub order 0 5))));

  let planned = Arboretum.plan ~limits:Arb_planner.Constraints.no_limits ~n topk in
  Printf.printf "planner chose the %s instantiation of em\n"
    (match planned.Arboretum.plan.Arb_planner.Plan.em_variant with
    | `Gumbel -> "Gumbel-noise"
    | `Exponentiate -> "exponentiation"
    | `Sketch -> "count-min sketch"
    | `None -> "?");
  let report = released (Arboretum.run ~config ~db planned) in
  Printf.printf "DP top-5: %s\n" (String.concat ", " (Arboretum.outputs_to_strings report));

  (* Force the other instantiation (Fig. 4 left): same query, same data. *)
  let forced =
    {
      planned with
      Arboretum.plan =
        { planned.Arboretum.plan with Arb_planner.Plan.em_variant = `Exponentiate };
    }
  in
  let report' = released (Arboretum.run ~config ~db forced) in
  Printf.printf "DP top-5 (exponentiation variant): %s\n"
    (String.concat ", " (Arboretum.outputs_to_strings report'));

  (* Free-gap query: winner plus its lead over the runner-up. *)
  let gap = mk "battery-gap" gap_src in
  let gp = Arboretum.plan ~limits:Arb_planner.Constraints.no_limits ~n gap in
  let greport =
    released
      (Arboretum.run ~config ~db:(Arboretum.synthesize_database ~seed:21L ~skew:1.6 gap ~n) gp)
  in
  (match greport.Arb_runtime.Exec.outputs with
  | [ w; g ] ->
      Printf.printf "worst app: %s, noisy lead over runner-up: %s users\n"
        (Arb_lang.Interp.value_to_string w)
        (Arb_lang.Interp.value_to_string g)
  | _ -> print_endline "unexpected gap output shape")
