(* Integration tests through the public Arboretum facade: the full
   plan-then-execute flow a library user sees. *)

module A = Arboretum
module L = Arb_lang
module P = Arb_planner

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let simple_query ?(epsilon = 100.0) ?(cols = 8) () =
  A.query_of_source ~name:"itest"
    ~source:"counts = sum(db); winner = em(counts); output(winner);"
    ~row:(A.one_hot cols) ~epsilon ()

let test_query_of_source_parses () =
  let q = simple_query () in
  checkb "uses em" true q.Arb_queries.Registry.uses_em;
  checki "categories" 8 q.Arb_queries.Registry.categories

let test_query_of_source_rejects_syntax () =
  checkb "parse error surfaces as Rejected" true
    (try
       ignore
         (A.query_of_source ~name:"bad" ~source:"x = (1 + ;" ~row:(A.one_hot 2)
            ~epsilon:1.0 ());
       false
     with A.Rejected _ -> true)

let test_plan_and_explain () =
  let q = simple_query () in
  let p = A.plan ~n:10_000_000 q in
  let text = A.explain p in
  checkb "explain mentions the plan" true (String.length text > 200);
  checkb "plan has vignettes" true
    (List.length p.A.plan.P.Plan.vignettes >= 5);
  checkb "metrics populated" true (p.A.metrics.P.Cost_model.agg_time > 0.0)

let test_plan_rejects_leaky_query () =
  let q =
    A.query_of_source ~name:"leak" ~source:"a = sum(db); output(a[0]);"
      ~row:(A.one_hot 4) ~epsilon:1.0 ()
  in
  checkb "leaky query rejected at plan time" true
    (try
       ignore (A.plan ~n:1000 q);
       false
     with A.Rejected _ -> true)

let test_plan_rejects_infeasible_limits () =
  let q = simple_query () in
  let limits =
    { P.Constraints.no_limits with P.Constraints.max_part_max_bytes = Some 1.0 }
  in
  checkb "infeasible limits rejected" true
    (try
       ignore (A.plan ~limits ~n:1_000_000 q);
       false
     with A.Rejected _ -> true)

let test_explain_prices_with_plan_model () =
  let d = P.Cost_model.default in
  let cm = { d with P.Cost_model.kg_coeff_time = 1.2 *. d.P.Cost_model.kg_coeff_time } in
  let q = simple_query () in
  let p = A.plan ~cm ~n:10_000_000 q in
  let table cm =
    P.Explain.full ~cm ~n_devices:p.A.planned_n ~cols:q.Arb_queries.Registry.categories
      p.A.plan p.A.metrics p.A.alternatives
  in
  checkb "the two models price the table differently" true (table cm <> table d);
  checkb "explain prints the plan's own model's table" true
    (String.starts_with ~prefix:(table cm) (A.explain p))

(* A program the planner cannot lower after certifying it, and one whose
   clip bounds cross, each end in [Rejected] with its reason. *)
let test_plan_raises_only_rejected () =
  List.iter
    (fun (source, reason) ->
      let q =
        A.query_of_source ~name:"rejected" ~source ~row:(A.one_hot 4) ~epsilon:5.0 ()
      in
      match A.plan ~n:48 q with
      | _ -> Alcotest.failf "planned %s" source
      | exception A.Rejected m -> Alcotest.(check string) source reason m)
    [ ("a[0] = 7; a[1] = 2; output(sum(a));",
       "cannot plan: builtin sum not allowed inside expressions here");
      ("output(clip(5, 10, 0));", "certification failed: type error: clip: lo > hi") ]

let test_plan_rejects_bad_tolerance () =
  List.iter
    (fun tol ->
      let q = A.builtin_query ~categories:16 ~error_tolerance:tol "top1" in
      match A.plan ~n:5_000 q with
      | _ -> Alcotest.failf "tolerance %g planned" tol
      | exception A.Rejected m ->
          Alcotest.(check string)
            (Printf.sprintf "tolerance %g" tol)
            (Printf.sprintf "error tolerance must be in (0, 1], got %g" tol)
            m)
    [ 5.0; -0.5; Float.nan; 0.0 ]

let released = function
  | Ok report -> report
  | Error f -> Alcotest.failf "run failed closed: %a" Arb_runtime.Exec.pp_failure f

let test_full_flow () =
  let q = simple_query () in
  let db = A.synthesize_database ~seed:3L ~skew:1.5 q ~n:96 in
  let planned = A.plan ~limits:P.Constraints.no_limits ~n:96 q in
  let config =
    {
      Arb_runtime.Exec.default_config with
      Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:1000.0 ~delta:0.01;
    }
  in
  let report = released (A.run ~config ~db planned) in
  let reference = A.reference_outputs ~db q in
  checki "one output" 1 (List.length report.Arb_runtime.Exec.outputs);
  (* At epsilon = 100 both must return the true mode. *)
  checkb "distributed = reference" true
    (List.map L.Interp.value_to_string report.Arb_runtime.Exec.outputs
    = List.map L.Interp.value_to_string reference);
  checkb "strings render" true (A.outputs_to_strings report <> [])

let test_builtin_queries_accessible () =
  List.iter
    (fun name ->
      let q = A.builtin_query name in
      checkb (name ^ " nonempty categories") true (q.Arb_queries.Registry.categories >= 1))
    Arb_queries.Registry.names;
  checkb "unknown raises Not_found" true
    (try
       ignore (A.builtin_query "nope");
       false
     with Not_found -> true);
  let custom = A.builtin_query ~categories:64 "top1" in
  checki "category override" 64 custom.Arb_queries.Registry.categories

let test_certify_through_facade () =
  let q = simple_query () in
  let r = A.certify q ~n:1000 in
  checkb "certified" true r.L.Certify.certified;
  checkb "epsilon recorded" true
    (r.L.Certify.cost.Arb_dp.Budget.epsilon > 0.0)

let test_bounded_row_flow () =
  (* A Bounded-row query through the whole pipeline. *)
  let q =
    A.query_of_source ~name:"avg"
      ~source:"s = sum(db); noisy = laplace(s[0]); output(noisy);"
      ~row:(A.bounded ~width:2 ~lo:0 ~hi:10) ~epsilon:10_000.0 ()
  in
  let db = Array.init 64 (fun i -> [| i mod 11; (i * 3) mod 11 |]) in
  let planned = A.plan ~limits:P.Constraints.no_limits ~n:64 q in
  let config =
    {
      Arb_runtime.Exec.default_config with
      Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:100_000.0 ~delta:0.1;
    }
  in
  let report = released (A.run ~config ~db planned) in
  let want = Array.fold_left (fun acc row -> acc + row.(0)) 0 db in
  match report.Arb_runtime.Exec.outputs with
  | [ v ] ->
      checkb "noisy sum close to the truth" true
        (Float.abs (L.Interp.as_float v -. float_of_int want) < 2.0)
  | _ -> Alcotest.fail "expected one output"

(* ---------------- query registry ---------------- *)

let test_registry_table2 () =
  checki "ten queries" 10 (List.length Arb_queries.Registry.names);
  List.iter
    (fun name ->
      let q = Arb_queries.Registry.paper_instance name in
      checkb (name ^ " concise") true
        (let lines = L.Ast.count_lines q.Arb_queries.Registry.program in
         lines >= 3 && lines <= 40))
    Arb_queries.Registry.names;
  (* §7.1 settings *)
  checki "bayes C" 115 (Arb_queries.Registry.paper_instance "bayes").Arb_queries.Registry.categories;
  checki "top1 C" 32768 (Arb_queries.Registry.paper_instance "top1").Arb_queries.Registry.categories;
  checki "hypotest C" 1 (Arb_queries.Registry.paper_instance "hypotest").Arb_queries.Registry.categories

let test_registry_database_shapes () =
  let rng = Arb_util.Rng.create 33L in
  (* one-hot rows *)
  let q = Arb_queries.Registry.test_instance "top1" in
  let db = Arb_queries.Registry.random_database rng q ~n:50 () in
  Array.iter
    (fun row ->
      checki "one-hot row sums to 1" 1 (Array.fold_left ( + ) 0 row))
    db;
  (* kmedians: (indicator, value) pairs with exactly one active cluster *)
  let km = Arb_queries.Registry.test_instance "kmedians" in
  let db = Arb_queries.Registry.random_database rng km ~n:50 () in
  Array.iter
    (fun row ->
      let clusters = Array.length row / 2 in
      let active = ref 0 in
      for c = 0 to clusters - 1 do
        if row.(2 * c) = 1 then incr active
      done;
      checki "one active cluster" 1 !active)
    db

let test_registry_skew_shifts_mode () =
  let rng = Arb_util.Rng.create 34L in
  let q = Arb_queries.Registry.test_instance "top1" in
  let db = Arb_queries.Registry.random_database rng q ~n:400 ~skew:2.0 () in
  let counts = Array.make 16 0 in
  Array.iter (fun row -> Array.iteri (fun j v -> counts.(j) <- counts.(j) + v) row) db;
  checkb "category 0 dominates under heavy skew" true
    (counts.(0) > counts.(8) && counts.(0) > 400 / 4)

(* ---------------- pipeline fuzzing ---------------- *)

(* Generate small certified-by-construction queries and push each through
   the whole stack: certify -> extract -> plan -> execute vs reference. *)
type fuzz_spec = {
  cols : int;
  scan : [ `None | `Prefix | `Suffix ];
  affine : (int * int) option; (* scale, offset *)
  mech : [ `Em | `Lap_scalar of int | `Lap_vector ];
}

let fuzz_source spec =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "h = sum(db);
";
  let v = ref "h" in
  (match spec.scan with
  | `None -> ()
  | `Prefix ->
      Buffer.add_string buf "p = prefixSums(h);
";
      v := "p"
  | `Suffix ->
      Buffer.add_string buf "p = suffixSums(h);
";
      v := "p");
  (match spec.affine with
  | None -> ()
  | Some (k, c) ->
      Buffer.add_string buf
        (Printf.sprintf "for i = 0 to C - 1 do t[i] = %d * %s[i] + %d; endfor
" k !v c);
      v := "t");
  (match spec.mech with
  | `Em -> Buffer.add_string buf (Printf.sprintf "w = em(%s); output(w);
" !v)
  | `Lap_scalar idx ->
      Buffer.add_string buf
        (Printf.sprintf "x = laplace(%s[%d]); output(x);
" !v idx)
  | `Lap_vector ->
      Buffer.add_string buf
        (Printf.sprintf
           "x = laplace(%s);
for i = 0 to C - 1 do output(x[i]); endfor
" !v));
  Buffer.contents buf

let gen_fuzz_spec : fuzz_spec QCheck.Gen.t =
  let open QCheck.Gen in
  let* cols = int_range 2 10 in
  let* scan = oneofl [ `None; `Prefix; `Suffix ] in
  let* affine =
    oneof
      [ return None;
        map2 (fun k c -> Some (k, c)) (int_range 1 5) (int_range 0 9) ]
  in
  let* mech =
    oneof
      [ return `Em;
        map (fun i -> `Lap_scalar i) (int_range 0 (cols - 1));
        return `Lap_vector ]
  in
  return { cols; scan; affine; mech }

let fuzz_query spec =
  A.query_of_source ~name:"fuzz" ~source:(fuzz_source spec)
    ~row:(A.one_hot spec.cols) ~epsilon:1000.0 ()

let prop_fuzz_certify_and_plan =
  QCheck.Test.make ~name:"random queries certify, extract and plan" ~count:60
    (QCheck.make ~print:(fun s -> fuzz_source s) gen_fuzz_spec)
    (fun spec ->
      let q = fuzz_query spec in
      let cert = A.certify q ~n:1_000_000 in
      cert.L.Certify.certified
      && (match Arb_planner.Extract.ops q.Arb_queries.Registry.program ~n:1_000_000 with
         | _ :: _ -> true
         | [] -> false)
      &&
      let r =
        Arb_planner.Search.plan ~limits:P.Constraints.no_limits ~query:q
          ~n:1_000_000 ()
      in
      r.Arb_planner.Search.plan <> None)

let prop_fuzz_execute_matches_reference =
  QCheck.Test.make ~name:"random queries execute like the reference" ~count:12
    (QCheck.make ~print:(fun s -> fuzz_source s) gen_fuzz_spec)
    (fun spec ->
      let q = fuzz_query spec in
      let db = A.synthesize_database ~seed:9L ~skew:1.4 q ~n:64 in
      let planned = A.plan ~limits:P.Constraints.no_limits ~n:64 q in
      let config =
        {
          Arb_runtime.Exec.default_config with
          Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.9;
        }
      in
      let report = released (A.run ~config ~db planned) in
      let reference = A.reference_outputs ~db q in
      List.length report.Arb_runtime.Exec.outputs = List.length reference
      &&
      (* At epsilon = 1000 the em winner is deterministic; laplace outputs
         only need to be near the reference. *)
      List.for_all2
        (fun got want ->
          match (got, want) with
          | L.Interp.V_int a, L.Interp.V_int b -> a = b
          | got, want ->
              Float.abs (L.Interp.as_float got -. L.Interp.as_float want) < 1.0)
        report.Arb_runtime.Exec.outputs reference)

(* ---------------- differential: MPC runtime vs cleartext reference ----------------

   Every registry query, executed end to end through Exec.run_source,
   must agree with the cleartext reference interpreter up to DP noise: at
   epsilon 1000 integer outputs (em winners, medians, decisions) are
   deterministic and compared exactly; noisy numeric outputs must land
   within a small tolerance; secrecy-of-the-sample draws its own hidden
   window on each side, so only the magnitude is comparable.

   EM category picks (top1/topK) are compared by the picked category's
   count rather than its index: when two categories tie, either is a
   correct winner and the tiny eps-1000 noise breaks the tie by RNG
   stream, which the runtime and the reference do not share. *)

let exact_int_queries = [ "gap"; "median"; "hypotest"; "auction" ]
let count_equiv_queries = [ "top1"; "topK" ]

let column_count db j = Array.fold_left (fun acc row -> acc + row.(j)) 0 db

let differential_tolerance name ~n =
  if name = "secrecy" then float_of_int n
  else if name = "kmedians" then 20.0
    (* kmedians outputs laplace(tot)/laplace(cnt): Laplace noise on the
       ~13-member cluster count divides the ~120-range center, so a single
       heavy-tailed draw moves the ratio by |out/cnt| ~ 9 per unit of
       denominator noise even at eps 1000. At eps 1e9 the runtime matches
       the exact ratios to the printed digit at every seed (the decrypted
       sums are exact); the spread here is entirely the mechanism's, so the
       tolerance covers its observed tail rather than the additive-noise
       queries' 2.0. *)
  else 2.0

let test_differential_all_registry_queries () =
  List.iter
    (fun name ->
      let q = Arb_queries.Registry.test_instance ~epsilon:1000.0 name in
      let db =
        Arb_queries.Registry.random_database (Arb_util.Rng.create 77L) q ~n:64
          ~skew:2.0 ()
      in
      let n = Array.length db in
      let planned =
        Arb_planner.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n ()
      in
      let plan =
        match planned.Arb_planner.Search.plan with
        | Some p -> p
        | None -> Alcotest.fail (name ^ ": no plan")
      in
      let config =
        {
          Arb_runtime.Exec.default_config with
          Arb_runtime.Exec.seed = 5L;
          budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.9;
        }
      in
      match
        Arb_runtime.Exec.run_source config ~query:q ~plan
          ~src:(Arb_runtime.Exec.source_of_db db)
      with
      | Error f ->
          Alcotest.fail
            (Format.asprintf "%s failed closed unexpectedly: %a" name
               Arb_runtime.Exec.pp_failure f)
      | Ok report ->
          let reference = A.reference_outputs ~db q in
          checki (name ^ ": output arity") (List.length reference)
            (List.length report.Arb_runtime.Exec.outputs);
          let tol = differential_tolerance name ~n in
          let idx = ref 0 in
          List.iter2
            (fun got want ->
              let i = !idx in
              incr idx;
              match (got, want) with
              | L.Interp.V_int a, L.Interp.V_int b
                when List.mem name exact_int_queries ->
                  checki (Printf.sprintf "%s[%d]: exact int" name i) b a
              | L.Interp.V_int a, L.Interp.V_int b
                when List.mem name count_equiv_queries ->
                  checki
                    (Printf.sprintf "%s[%d]: count-equivalent pick" name i)
                    (column_count db b) (column_count db a)
              | got, want ->
                  let g = L.Interp.as_float got and w = L.Interp.as_float want in
                  checkb
                    (Printf.sprintf "%s[%d]: %.3f within %.1f of %.3f" name i g
                       tol w)
                    true
                    (Float.abs (g -. w) <= tol))
            report.Arb_runtime.Exec.outputs reference)
    Arb_queries.Registry.names

let () =
  Alcotest.run "integration"
    [
      ( "facade",
        [
          Alcotest.test_case "query_of_source" `Quick test_query_of_source_parses;
          Alcotest.test_case "syntax errors rejected" `Quick
            test_query_of_source_rejects_syntax;
          Alcotest.test_case "plan + explain" `Quick test_plan_and_explain;
          Alcotest.test_case "leaky query rejected" `Quick test_plan_rejects_leaky_query;
          Alcotest.test_case "infeasible limits rejected" `Quick
            test_plan_rejects_infeasible_limits;
          Alcotest.test_case "explain prices with the plan's model" `Quick
            test_explain_prices_with_plan_model;
          Alcotest.test_case "plan raises only Rejected" `Quick
            test_plan_raises_only_rejected;
          Alcotest.test_case "tolerance outside (0, 1] rejected" `Quick
            test_plan_rejects_bad_tolerance;
          Alcotest.test_case "builtin queries" `Quick test_builtin_queries_accessible;
          Alcotest.test_case "certify" `Quick test_certify_through_facade;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "full flow (one-hot)" `Slow test_full_flow;
          Alcotest.test_case "full flow (bounded rows)" `Slow test_bounded_row_flow;
        ] );
      ( "registry",
        [
          Alcotest.test_case "table 2 settings" `Quick test_registry_table2;
          Alcotest.test_case "database shapes" `Quick test_registry_database_shapes;
          Alcotest.test_case "skew" `Quick test_registry_skew_shifts_mode;
        ] );
      ( "differential",
        [
          Alcotest.test_case "runtime matches reference on every registry query"
            `Slow test_differential_all_registry_queries;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_certify_and_plan;
          QCheck_alcotest.to_alcotest prop_fuzz_execute_matches_reference;
        ] );
    ]
