(* Query chains: a deployment answers many queries over its lifetime
   (§5.1–5.2). Each query's key-generation committee consumes the previous
   certificate's randomness block (so nobody can grind future committees),
   deducts the query's certified privacy cost from the shared budget, and
   mints the next block inside its signed certificate.

   This example runs an analyst "work session" — a mode query, a top-3
   sweep, and a median — over one device population, then shows the refusal
   when the budget runs dry and verifies the whole certificate chain.

   Run with:  dune exec examples/session.exe *)

let categories = 24

let mk name source epsilon =
  Arboretum.query_of_source ~name ~source ~row:(Arboretum.one_hot categories)
    ~epsilon ()

let () =
  let top1 = mk "mode" "h = sum(db); output(em(h));" 1.0 in
  let top3 =
    mk "top3"
      {|
        h = sum(db);
        for r = 1 to 3 do
          w = em(h);
          output(w);
          h[w] = 0 - N;
        endfor
      |}
      0.5
  in
  let median =
    mk "median"
      {|
        h = sum(db);
        pre = prefixSums(h);
        target = N / 2;
        for i = 0 to C - 1 do
          d = pre[i] - target;
          scores[i] = 0 - abs(d);
        endfor
        output(em(scores));
      |}
      1.0
  in
  let db = Arboretum.synthesize_database ~seed:77L ~skew:1.4 top1 ~n:128 in
  (* Budget for roughly the three queries: 1.0 + 3*0.5 + 1.0 = 3.5. *)
  let n = Array.length db in
  let session =
    Arb_runtime.Session.create
      ~budget:(Arb_dp.Budget.create ~epsilon:3.6 ~delta:1e-3)
      ~devices:n ()
  in
  let show name q =
    (* The planner chooses the plan; the session only runs it. *)
    let planned = Arboretum.plan ~n q in
    let result =
      Arb_runtime.Session.run session ~db ~plan:planned.Arboretum.plan q
    in
    (match result with
    | Ok r ->
        Printf.printf "%-8s (round %d, block %s...) -> %s   [budget left: %s]\n" name
          r.Arb_runtime.Session.query_index
          (String.sub r.Arb_runtime.Session.block_used 0
             (min 8 (String.length r.Arb_runtime.Session.block_used)))
          (String.concat "; "
             (List.map Arb_lang.Interp.value_to_string
                r.Arb_runtime.Session.report.Arb_runtime.Exec.outputs))
          (Format.asprintf "%a" Arb_dp.Budget.pp
             (Arb_runtime.Session.budget_left session))
    | Error m -> Printf.printf "%-8s -> refused: %s\n" name m);
    Result.is_ok result
  in
  let ran =
    List.map
      (fun (name, q) -> show name q)
      [ ("mode", top1); ("top3", top3); ("median", median) ]
  in
  (* The budget is now at 0.1 — another 1.0-epsilon query must be refused. *)
  let refused = not (show "mode" top1) in
  let verifies = Arb_runtime.Session.chain_verifies session in
  Printf.printf "certificate chain verifies: %b\n" verifies;
  if not (List.for_all Fun.id ran && refused && verifies) then begin
    prerr_endline
      "BUG: the first three queries must run, the fourth must be refused, \
       and the chain must verify";
    exit 1
  end
