type query = Arb_queries.Registry.query

type planned = {
  query : query;
  plan : Arb_planner.Plan.t;
  metrics : Arb_planner.Cost_model.metrics;
  alternatives : (Arb_planner.Plan.t * Arb_planner.Cost_model.metrics) list;
  stats : Arb_planner.Search.stats;
  certification : Arb_lang.Certify.report;
  planned_n : int;
  cost_model : Arb_planner.Cost_model.t;
}

exception Rejected of string

let one_hot k = Arb_lang.Ast.One_hot k
let bounded ~width ~lo ~hi = Arb_lang.Ast.Bounded { width; lo; hi }

let width_of = function
  | Arb_lang.Ast.One_hot k -> k
  | Arb_lang.Ast.Bounded { width; _ } -> width

let query_of_source ?error_tolerance ~name ~source ~row ~epsilon () =
  match Arb_lang.Parser.parse_stmt source with
  | body ->
      let program = { Arb_lang.Ast.name; body; row; epsilon } in
      (match Arb_lang.Validate.check program with
      | [] -> ()
      | { Arb_lang.Validate.message; context } :: _ ->
          raise (Rejected (Printf.sprintf "%s (%s)" message context)));
      {
        Arb_queries.Registry.name;
        action = "custom query";
        source = "analyst";
        program = { Arb_lang.Ast.name; body; row; epsilon };
        categories = width_of row;
        uses_em =
          (let has_em_expr e =
             Arb_lang.Ast.fold_exprs
               (fun acc e ->
                 acc
                 ||
                 match e with
                 | Arb_lang.Ast.Call (("em" | "emGap"), _) -> true
                 | _ -> false)
               false e
           in
           Arb_lang.Ast.fold_stmts
             (fun acc s -> acc || List.exists has_em_expr (Arb_lang.Ast.exprs_of_stmt s))
             false body);
        error_tolerance;
      }
  | exception Arb_lang.Parser.Parse_error m -> raise (Rejected ("parse error: " ^ m))
  | exception Arb_lang.Lexer.Lex_error { pos; message } ->
      raise (Rejected (Printf.sprintf "lex error at %d: %s" pos message))

let builtin_query ?epsilon ?error_tolerance ?categories name =
  let q =
    match categories with
    | Some c -> Arb_queries.Registry.make ?epsilon ~name ~c ()
    | None -> Arb_queries.Registry.paper_instance ?epsilon name
  in
  match error_tolerance with
  | None -> q
  | Some _ -> { q with Arb_queries.Registry.error_tolerance }

let certify (q : query) ~n = Arb_lang.Certify.certify q.Arb_queries.Registry.program ~n

let plan ?(cm = Arb_planner.Cost_model.default) ?goal
    ?(limits = Arb_planner.Constraints.no_limits) ?tracer ?metrics:registry ~n
    (q : query) =
  (match Arb_queries.Registry.check_tolerance q.Arb_queries.Registry.error_tolerance with
  | Ok () -> ()
  | Error m -> raise (Rejected ("error tolerance " ^ m)));
  let certification = certify q ~n in
  if not certification.Arb_lang.Certify.certified then
    raise
      (Rejected
         ("certification failed: "
         ^ Option.value certification.Arb_lang.Certify.reason ~default:"?"));
  let r =
    try
      Arb_planner.Search.plan ~cm ?goal ?tracer ?metrics:registry ~limits
        ~query:q ~n ()
    with Arb_planner.Extract.Unsupported m -> raise (Rejected ("cannot plan: " ^ m))
  in
  match (r.Arb_planner.Search.plan, r.Arb_planner.Search.metrics) with
  | Some plan, Some metrics ->
      { query = q; plan; metrics;
        alternatives = r.Arb_planner.Search.alternatives;
        stats = r.Arb_planner.Search.stats; certification; planned_n = n;
        cost_model = cm }
  | _ ->
      raise
        (Rejected
           (Printf.sprintf
              "no plan satisfies the limits (%d prefixes, %d complete candidates explored)"
              r.Arb_planner.Search.stats.Arb_planner.Search.prefixes
              r.Arb_planner.Search.stats.Arb_planner.Search.full_plans))

let explain p =
  Arb_planner.Explain.full ~cm:p.cost_model
    ~n_devices:p.planned_n ~cols:p.query.Arb_queries.Registry.categories p.plan
    p.metrics p.alternatives
  ^ Format.asprintf "privacy: %a over %d mechanism call(s)@.planner: %d prefixes, %d complete candidates, %.3f s@."
      Arb_dp.Budget.pp p.certification.Arb_lang.Certify.cost
      p.certification.Arb_lang.Certify.mechanism_calls
      p.stats.Arb_planner.Search.prefixes p.stats.Arb_planner.Search.full_plans
      p.stats.Arb_planner.Search.elapsed

let synthesize_database ?(seed = 7L) ?skew (q : query) ~n =
  let rng = Arb_util.Rng.create seed in
  Arb_queries.Registry.random_database rng q ~n ?skew ()

let run ?(config = Arb_runtime.Exec.default_config) ~db p =
  Arb_runtime.Exec.run_source config ~query:p.query ~plan:p.plan
    ~src:(Arb_runtime.Exec.source_of_db db)

let reference_outputs ?(seed = 7L) ~db (q : query) =
  Arb_lang.Interp.run q.Arb_queries.Registry.program ~db (Arb_util.Rng.create seed)

let outputs_to_strings (r : Arb_runtime.Exec.report) =
  List.map Arb_lang.Interp.value_to_string r.Arb_runtime.Exec.outputs
