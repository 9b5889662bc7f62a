(* Tests for the query language: lexer, parser, pretty-printer, type/range
   inference, interpreter, and differential-privacy certification. *)

module L = Arb_lang
module Q = Arb_queries.Registry
module I = Arb_util.Interval
module Rng = Arb_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let one_hot k = L.Ast.One_hot k

let program ?(epsilon = 0.5) ?(row = one_hot 4) src =
  { L.Ast.name = "t"; body = L.Parser.parse_stmt src; row; epsilon }

(* ---------------- lexer ---------------- *)

let test_lexer_tokens () =
  let toks = L.Lexer.tokenize "for i = 0 to 9 do x[i] = i * 2; endfor" in
  checki "token count" 18 (List.length toks) (* incl. EOF *)

let test_lexer_operators () =
  let toks = L.Lexer.tokenize "a <= b && c != d || !e" in
  checkb "has LE" true (List.mem L.Lexer.LE toks);
  checkb "has AND" true (List.mem L.Lexer.AND toks);
  checkb "has NE" true (List.mem L.Lexer.NE toks);
  checkb "has OR" true (List.mem L.Lexer.OR toks);
  checkb "has NOT" true (List.mem L.Lexer.NOT toks)

let test_lexer_comments_and_floats () =
  let toks = L.Lexer.tokenize "x = 2.5; // a comment\ny = 3" in
  checkb "float lexed" true (List.mem (L.Lexer.FLOAT 2.5) toks);
  checkb "comment skipped" true
    (not (List.exists (function L.Lexer.IDENT "comment" -> true | _ -> false) toks))

let test_lexer_rejects () =
  checkb "bad character" true
    (try
       ignore (L.Lexer.tokenize "x = #");
       false
     with L.Lexer.Lex_error _ -> true)

(* ---------------- parser ---------------- *)

let test_parser_precedence () =
  let e = L.Parser.parse_expr "1 + 2 * 3" in
  checkb "mul binds tighter" true
    (e = L.Ast.Binop (L.Ast.Add, L.Ast.Int_lit 1,
                       L.Ast.Binop (L.Ast.Mul, L.Ast.Int_lit 2, L.Ast.Int_lit 3)));
  let e2 = L.Parser.parse_expr "(1 + 2) * 3" in
  checkb "parens override" true
    (e2 = L.Ast.Binop (L.Ast.Mul,
                        L.Ast.Binop (L.Ast.Add, L.Ast.Int_lit 1, L.Ast.Int_lit 2),
                        L.Ast.Int_lit 3))

let test_parser_left_assoc () =
  let e = L.Parser.parse_expr "10 - 4 - 3" in
  checkb "subtraction left-assoc" true
    (e = L.Ast.Binop (L.Ast.Sub,
                       L.Ast.Binop (L.Ast.Sub, L.Ast.Int_lit 10, L.Ast.Int_lit 4),
                       L.Ast.Int_lit 3))

let test_parser_statements () =
  let s = L.Parser.parse_stmt "if a > 1 then output(1); else output(0); endif" in
  (match s with
  | L.Ast.If (_, L.Ast.Output _, L.Ast.Output _) -> ()
  | _ -> Alcotest.fail "unexpected if shape");
  let s2 = L.Parser.parse_stmt "for i = 1 to 3 do x[i] = i; endfor" in
  (match s2 with
  | L.Ast.For ("i", L.Ast.Int_lit 1, L.Ast.Int_lit 3, L.Ast.Assign_idx _) -> ()
  | _ -> Alcotest.fail "unexpected for shape")

let test_parser_rejects () =
  List.iter
    (fun src ->
      checkb src true
        (try
           ignore (L.Parser.parse_stmt src);
           false
         with L.Parser.Parse_error _ -> true))
    [ "x = "; "for i = 1 do x = 1; endfor"; "if x then y = 1;";
      "output(1, 2);"; "x = (1 + 2" ]

(* Random AST generator for the parse/pretty roundtrip property. *)
let gen_expr : L.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ map (fun i -> L.Ast.Int_lit (abs i)) small_int;
                return (L.Ast.Var "x");
                return (L.Ast.Var "y");
                map (fun b -> L.Ast.Bool_lit b) bool ]
          else
            frequency
              [ (3, map2 (fun op (e1, e2) -> L.Ast.Binop (op, e1, e2))
                     (oneofl L.Ast.[ Add; Sub; Mul; Div ])
                     (pair (self (n / 2)) (self (n / 2))));
                (1, map (fun e -> L.Ast.Unop (L.Ast.Neg, e)) (self (n - 1)));
                (1, map (fun e -> L.Ast.Index ("arr", [ e ])) (self (n - 1)));
                (1, map (fun e -> L.Ast.Call ("abs", [ e ])) (self (n - 1)));
                (2, self 0) ])
        (min n 8))

let prop_parse_pretty_roundtrip_expr =
  QCheck.Test.make ~name:"parse (pretty e) = e" ~count:500
    (QCheck.make ~print:L.Pretty.expr gen_expr)
    (fun e -> L.Parser.parse_expr (L.Pretty.expr e) = e)

let gen_stmt : L.Ast.stmt QCheck.Gen.t =
  let open QCheck.Gen in
  let expr = gen_expr in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ map (fun e -> L.Ast.Assign ("v", e)) expr;
                map (fun e -> L.Ast.Output e) expr;
                map2 (fun i e -> L.Ast.Assign_idx ("arr", [ L.Ast.Int_lit (abs i) ], e)) small_int expr ]
          else
            frequency
              [ (2, map2 (fun a b -> L.Ast.Seq [ a; b ]) (self (n / 2)) (self (n / 2)));
                (1, map2 (fun c (s1, s2) -> L.Ast.If (L.Ast.Binop (L.Ast.Lt, c, L.Ast.Int_lit 5), s1, s2))
                       expr (pair (self (n / 2)) (self (n / 2))));
                (1, map (fun s -> L.Ast.For ("i", L.Ast.Int_lit 0, L.Ast.Int_lit 3, s)) (self (n - 1)));
                (3, self 0) ])
        (min n 6))

(* The parser flattens Seq nesting; compare modulo that normalization. *)
let rec normalize (s : L.Ast.stmt) : L.Ast.stmt list =
  match s with
  | L.Ast.Seq ss -> List.concat_map normalize ss
  | L.Ast.For (v, a, b, body) -> [ L.Ast.For (v, a, b, renest body) ]
  | L.Ast.If (c, s1, s2) -> [ L.Ast.If (c, renest s1, renest s2) ]
  | s -> [ s ]

and renest s = match normalize s with [ x ] -> x | xs -> L.Ast.Seq xs

let prop_parse_pretty_roundtrip_stmt =
  QCheck.Test.make ~name:"parse (pretty s) = s (modulo Seq nesting)" ~count:300
    (QCheck.make ~print:L.Pretty.stmt gen_stmt)
    (fun s -> normalize (L.Parser.parse_stmt (L.Pretty.stmt s)) = normalize s)

let test_roundtrip_all_registry_queries () =
  List.iter
    (fun name ->
      let q = Q.test_instance name in
      let body = q.Q.program.L.Ast.body in
      checkb name true (L.Parser.parse_stmt (L.Pretty.stmt body) = body))
    Q.names

(* ---------------- validation ---------------- *)

let test_validate_catches_issues () =
  let issues src =
    L.Validate.check (program src) |> List.map (fun i -> i.L.Validate.message)
  in
  checkb "unknown builtin" true
    (List.exists (fun m -> String.length m > 0) (issues "x = frobnicate(1);"));
  checkb "wrong arity" true (issues "x = clip(1, 2);" <> []);
  checkb "assign to db" true (issues "db = 1;" <> []);
  checkb "assign to N" true (issues "N = 1;" <> []);
  checkb "output as expression" true (issues "x = output(1);" <> []);
  checkb "clean program passes" true (issues "h = sum(db); output(em(h));" = [])

let test_validate_row_and_epsilon () =
  let bad_eps = { (program "output(1);") with L.Ast.epsilon = 0.0 } in
  checkb "epsilon 0 flagged" true (L.Validate.check bad_eps <> []);
  let bad_row =
    { (program "output(1);") with L.Ast.row = L.Ast.Bounded { width = 2; lo = 5; hi = 1 } }
  in
  checkb "inverted bounds flagged" true (L.Validate.check bad_row <> []);
  Alcotest.check_raises "check_exn raises"
    (Invalid_argument "epsilon must be positive (privacy)") (fun () ->
      L.Validate.check_exn bad_eps)

let test_builtins_table () =
  checkb "sum is a builtin" true (L.Builtins.is_builtin "sum");
  checkb "frobnicate is not" false (L.Builtins.is_builtin "frobnicate");
  checkb "mechanisms listed" true
    (List.sort compare L.Builtins.mechanisms = [ "em"; "emGap"; "laplace" ]);
  (match L.Builtins.find "clip" with
  | Some i -> checki "clip arity" 3 i.L.Builtins.arity
  | None -> Alcotest.fail "clip missing")

(* ---------------- types ---------------- *)

let test_types_ranges () =
  let p = program "aggr = sum(db); x = aggr[0] + 5;" in
  let env = L.Types.infer p ~n:100 in
  (match L.Types.lookup env "aggr" with
  | Some ty ->
      checkb "histogram range [0,100]" true (I.equal ty.L.Types.range (I.make 0 100));
      checkb "vector of C" true (ty.L.Types.dims = [ 4 ])
  | None -> Alcotest.fail "aggr untyped");
  match L.Types.lookup env "x" with
  | Some ty -> checkb "x range [5,105]" true (I.equal ty.L.Types.range (I.make 5 105))
  | None -> Alcotest.fail "x untyped"

let test_types_loop_accumulator_converges () =
  let p = program "t = 0; for i = 0 to 9 do t = t + i; endfor output(t);" in
  let env = L.Types.infer p ~n:10 in
  match L.Types.lookup env "t" with
  | Some ty -> checkb "accumulator widened, not diverged" true (ty.L.Types.range.I.hi > 0)
  | None -> Alcotest.fail "t untyped"

let test_types_plaintext_bits () =
  let p = program "aggr = sum(db); output(em(aggr));" in
  let env = L.Types.infer p ~n:1000 in
  checkb "bits cover counts up to 1000" true (L.Types.plaintext_bits_needed env >= 11);
  checki "category count" 4 (L.Types.max_category_count env)

let test_types_rejects () =
  List.iter
    (fun src ->
      checkb src true
        (try
           ignore (L.Types.infer (program src) ~n:10);
           false
         with L.Types.Type_error _ -> true))
    [ "x = y + 1;" (* unbound *);
      "x = 1 && 2;" (* bool op on ints *);
      "if 1 + 1 then output(1); endif" (* non-bool condition *);
      "x = db[0][0][0];" (* over-indexing *) ]

let test_types_static_loop_bounds_required () =
  let src = "h = sum(db); x = laplace(h[0]); for i = 0 to x do output(1); endfor" in
  checkb "dynamic bound rejected" true
    (try
       ignore (L.Types.infer (program src) ~n:10);
       false
     with L.Types.Type_error _ -> true)

(* ---------------- interpreter ---------------- *)

let run_src ?(row = one_hot 4) ?(epsilon = 1000.0) ?(db = [| [| 0; 1; 0; 0 |]; [| 0; 1; 0; 0 |]; [| 1; 0; 0; 0 |] |]) src =
  L.Interp.run (program ~epsilon ~row src) ~db (Rng.create 5L)

let test_interp_sum_and_em () =
  (* epsilon huge -> em is effectively argmax. *)
  match run_src "aggr = sum(db); output(em(aggr));" with
  | [ L.Interp.V_int 1 ] -> ()
  | other ->
      Alcotest.failf "unexpected output: %s"
        (String.concat ";" (List.map L.Interp.value_to_string other))

let test_interp_loops_arrays () =
  match run_src "s = 0; for i = 1 to 10 do s = s + i; endfor output(s);" with
  | [ L.Interp.V_int 55 ] -> ()
  | _ -> Alcotest.fail "bad loop sum"

let test_interp_prefix_suffix () =
  (match run_src "h = sum(db); p = prefixSums(h); output(p[3]);" with
  | [ L.Interp.V_int 3 ] -> ()
  | _ -> Alcotest.fail "prefix total");
  match run_src "h = sum(db); s = suffixSums(h); output(s[0]);" with
  | [ L.Interp.V_int 3 ] -> ()
  | _ -> Alcotest.fail "suffix total"

let test_interp_division_by_zero () =
  checkb "div by zero raises" true
    (try
       ignore (run_src "x = 1 / 0; output(x);");
       false
     with L.Interp.Runtime_error _ -> true)

let test_interp_fix_arithmetic () =
  match run_src "x = 2.5 * 4; output(x);" with
  | [ L.Interp.V_fix f ] ->
      checkb "2.5 * 4 = 10" true (Float.abs (Arb_util.Fixed.to_float f -. 10.0) < 0.001)
  | _ -> Alcotest.fail "expected fix"

let test_interp_clip_abs () =
  (match run_src "output(clip(17, 0, 10));" with
  | [ L.Interp.V_int 10 ] -> ()
  | _ -> Alcotest.fail "clip");
  match run_src "output(abs(0 - 5));" with
  | [ L.Interp.V_int 5 ] -> ()
  | _ -> Alcotest.fail "abs"

let test_interp_all_queries_produce_output () =
  let rng = Rng.create 6L in
  List.iter
    (fun name ->
      let q = Q.test_instance name in
      let db = Q.random_database rng q ~n:50 () in
      let outs = L.Interp.run q.Q.program ~db (Rng.create 7L) in
      checkb (name ^ " produces outputs") true (List.length outs > 0))
    Q.names

let test_interp_em_respects_epsilon () =
  (* Tiny epsilon: very noisy, winner varies; huge epsilon: always mode. *)
  let db = Array.init 60 (fun i -> if i < 50 then [| 1; 0; 0; 0 |] else [| 0; 0; 1; 0 |]) in
  let winners eps =
    List.init 20 (fun s ->
        match
          L.Interp.run (program ~epsilon:eps "output(em(sum(db)));") ~db
            (Rng.create (Int64.of_int s))
        with
        | [ L.Interp.V_int w ] -> w
        | _ -> -1)
  in
  checkb "high epsilon deterministic mode" true
    (List.for_all (fun w -> w = 0) (winners 10000.0));
  checkb "low epsilon varies" true
    (List.sort_uniq compare (winners 0.001) |> List.length > 1)

let test_interp_nested_arrays () =
  match run_src "m[1][2] = 7; output(m[1][2]); output(m[1][0]);" with
  | [ L.Interp.V_int 7; L.Interp.V_int 0 ] -> ()
  | other ->
      Alcotest.failf "nested arrays: %s"
        (String.concat ";" (List.map L.Interp.value_to_string other))

let test_interp_out_of_bounds () =
  checkb "read out of bounds raises" true
    (try
       ignore (run_src "h = sum(db); output(declassify(h[99]));");
       false
     with L.Interp.Runtime_error _ -> true)

let test_interp_update_primitive () =
  let a = L.Interp.V_arr [| L.Interp.V_int 1 |] in
  (match L.Interp.update a [ 2 ] (L.Interp.V_int 9) with
  | L.Interp.V_arr [| L.Interp.V_int 1; L.Interp.V_int 0; L.Interp.V_int 9 |] -> ()
  | v -> Alcotest.failf "grown write: %s" (L.Interp.value_to_string v));
  checkb "the written array is unchanged" true (a = L.Interp.V_arr [| L.Interp.V_int 1 |]);
  checkb "a negative index raises" true
    (try
       ignore (L.Interp.update a [ -1 ] (L.Interp.V_int 9));
       false
     with L.Interp.Runtime_error _ -> true)

let test_interp_empty_loop () =
  match run_src "s = 1; for i = 5 to 4 do s = s + 1; endfor output(s);" with
  | [ L.Interp.V_int 1 ] -> ()
  | _ -> Alcotest.fail "empty loop should not execute"

let test_interp_gap_shape () =
  match run_src "h = sum(db); r = emGap(h); output(r[0]); output(r[1]);" with
  | [ L.Interp.V_int w; L.Interp.V_fix _ ] -> checki "winner is mode" 1 w
  | _ -> Alcotest.fail "emGap must yield [int; fix]"

let test_interp_bool_ops () =
  match run_src "x = 3; if x > 1 && !(x > 5) then output(1); else output(0); endif" with
  | [ L.Interp.V_int 1 ] -> ()
  | _ -> Alcotest.fail "boolean combination"

(* ---------------- certification ---------------- *)

let certified src row =
  (L.Certify.certify (program ~row src) ~n:1000).L.Certify.certified

let test_certify_accepts_registry () =
  List.iter
    (fun name ->
      let q = Q.test_instance name in
      let r = L.Certify.certify q.Q.program ~n:1000 in
      checkb (name ^ " certified") true r.L.Certify.certified)
    Q.names

let test_certify_rejects_leaks () =
  List.iter
    (fun src -> checkb src false (certified src (one_hot 4)))
    [
      "a = sum(db); output(a[0]);" (* raw count *);
      "output(db[0][0]);" (* raw input *);
      "a = sum(db); if a[0] > 5 then output(1); else output(0); endif"
      (* implicit flow *);
      "a = sum(db); b = a[0] * a[1]; output(laplace(b));"
      (* nonlinear sensitivity *);
      "output(declassify(db[0][0]));" (* declassify of raw data *);
      "a = sum(db); b = max(a); output(laplace(b));" (* max has unbounded sens *);
    ]

let test_certify_budget_accounting () =
  let r =
    L.Certify.certify
      (program ~epsilon:0.3 "a = sum(db); for i = 1 to 4 do output(em(a)); endfor")
      ~n:100
  in
  checkb "certified" true r.L.Certify.certified;
  checki "4 calls" 4 r.L.Certify.mechanism_calls;
  checkb "eps = 1.2" true (Float.abs (r.L.Certify.cost.Arb_dp.Budget.epsilon -. 1.2) < 1e-9)

let test_certify_sensitivity_values () =
  let sens src row =
    (L.Certify.certify (program ~row src) ~n:1000).L.Certify.sensitivity
  in
  checkb "histogram sens 1" true (sens "output(em(sum(db)));" (one_hot 4) = 1.0);
  (* prefix sums double the bound *)
  checkb "scan sens 2" true
    (sens "output(em(prefixSums(sum(db))));" (one_hot 4) = 2.0);
  (* bounded rows *)
  let r =
    L.Certify.certify
      (program ~row:(L.Ast.Bounded { width = 2; lo = 0; hi = 50 })
         "h = sum(db); output(laplace(h[0]));")
      ~n:1000
  in
  checkb "bounded row sens 50" true (r.L.Certify.sensitivity = 50.0)

let test_certify_amplification () =
  let r =
    L.Certify.certify
      (program ~epsilon:1.0
         "s = sampleUniform(db, 0.1); h = sum(s); output(laplace(h[0]));")
      ~n:1000
  in
  checkb "certified" true r.L.Certify.certified;
  let expect = Arb_dp.Budget.amplified_epsilon ~epsilon:1.0 ~phi:0.1 in
  checkb "amplified epsilon charged" true
    (Float.abs (r.L.Certify.cost.Arb_dp.Budget.epsilon -. expect) < 1e-9)

let test_certify_never_raises () =
  (* Even type errors come back as reports, not exceptions. *)
  let r = L.Certify.certify (program "x = unknown_fn(1);") ~n:10 in
  checkb "not certified" false r.L.Certify.certified;
  checkb "has reason" true (r.L.Certify.reason <> None);
  (* So does a population or a row width below 1, which the analysis
     cannot scale its ranges by. *)
  List.iter
    (fun name ->
      List.iter
        (fun (n, c) ->
          let r = L.Certify.certify (Q.make ~name ~c ()).Q.program ~n in
          checkb
            (Printf.sprintf "%s at N = %d, C = %d refused with a reason" name n c)
            true
            ((not r.L.Certify.certified) && r.L.Certify.reason <> None))
        [ (-5, 16); (0, 16); (1000, -1); (1000, 0) ])
    Q.names

let () =
  Alcotest.run "arb_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments and floats" `Quick test_lexer_comments_and_floats;
          Alcotest.test_case "rejects" `Quick test_lexer_rejects;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "left associativity" `Quick test_parser_left_assoc;
          Alcotest.test_case "statements" `Quick test_parser_statements;
          Alcotest.test_case "rejects" `Quick test_parser_rejects;
          qtest prop_parse_pretty_roundtrip_expr;
          qtest prop_parse_pretty_roundtrip_stmt;
          Alcotest.test_case "registry roundtrips" `Quick
            test_roundtrip_all_registry_queries;
        ] );
      ( "validate",
        [
          Alcotest.test_case "structural issues" `Quick test_validate_catches_issues;
          Alcotest.test_case "row shape and epsilon" `Quick
            test_validate_row_and_epsilon;
          Alcotest.test_case "builtin table" `Quick test_builtins_table;
        ] );
      ( "types",
        [
          Alcotest.test_case "ranges" `Quick test_types_ranges;
          Alcotest.test_case "loop accumulator" `Quick
            test_types_loop_accumulator_converges;
          Alcotest.test_case "plaintext bits" `Quick test_types_plaintext_bits;
          Alcotest.test_case "rejects" `Quick test_types_rejects;
          Alcotest.test_case "static loop bounds" `Quick
            test_types_static_loop_bounds_required;
        ] );
      ( "interp",
        [
          Alcotest.test_case "sum + em" `Quick test_interp_sum_and_em;
          Alcotest.test_case "loops and accumulators" `Quick test_interp_loops_arrays;
          Alcotest.test_case "prefix/suffix sums" `Quick test_interp_prefix_suffix;
          Alcotest.test_case "division by zero" `Quick test_interp_division_by_zero;
          Alcotest.test_case "fixpoint arithmetic" `Quick test_interp_fix_arithmetic;
          Alcotest.test_case "clip and abs" `Quick test_interp_clip_abs;
          Alcotest.test_case "all queries run" `Quick
            test_interp_all_queries_produce_output;
          Alcotest.test_case "em epsilon behavior" `Slow test_interp_em_respects_epsilon;
          Alcotest.test_case "nested arrays" `Quick test_interp_nested_arrays;
          Alcotest.test_case "out of bounds" `Quick test_interp_out_of_bounds;
          Alcotest.test_case "update copies, refuses a negative index" `Quick
            test_interp_update_primitive;
          Alcotest.test_case "empty loop" `Quick test_interp_empty_loop;
          Alcotest.test_case "emGap shape" `Quick test_interp_gap_shape;
          Alcotest.test_case "boolean operators" `Quick test_interp_bool_ops;
        ] );
      ( "certify",
        [
          Alcotest.test_case "accepts the ten queries" `Quick test_certify_accepts_registry;
          Alcotest.test_case "rejects leaky queries" `Quick test_certify_rejects_leaks;
          Alcotest.test_case "budget accounting" `Quick test_certify_budget_accounting;
          Alcotest.test_case "sensitivity values" `Quick test_certify_sensitivity_values;
          Alcotest.test_case "amplification" `Quick test_certify_amplification;
          Alcotest.test_case "never raises" `Quick test_certify_never_raises;
        ] );
    ]
