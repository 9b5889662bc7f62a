module J = Arb_util.Json
module C = Arb_planner.Constraints

type window_spec = {
  w_epochs : int;
  w_budget : Arb_dp.Budget.t;
  w_compose : int option;
}

type submission = {
  query : string;
  epsilon : float;
  categories : int option;
  goal : C.goal;
  repeat : int;
  every : int option;
  window : window_spec option;
  tolerance : float option;
}

type t = {
  budget : Arb_dp.Budget.t option;
  devices : int option;
  seed : int option;
  epochs : int option;
  submissions : submission list;
}

type recurring_error =
  | Bad_every of { query : string; every : int }
  | Bad_window_epochs of { query : string; epochs : int }
  | Bad_compose of { query : string; compose : int }
  | Window_below_compose of { query : string; epochs : int; compose : int }
  | Window_without_every of { query : string }
  | Recurring_repeat of { query : string; repeat : int }

let recurring_error_message = function
  | Bad_every { query; every } ->
      Printf.sprintf
        "query %s: \"every\" must be a positive epoch count, got %d" query
        every
  | Bad_window_epochs { query; epochs } ->
      Printf.sprintf
        "query %s: window \"epochs\" must be at least 1, got %d" query epochs
  | Bad_compose { query; compose } ->
      Printf.sprintf
        "query %s: window \"compose\" must be at least 1, got %d" query compose
  | Window_below_compose { query; epochs; compose } ->
      Printf.sprintf
        "query %s: window of %d epochs is smaller than its composition \
         horizon %d — widen \"epochs\" or lower \"compose\""
        query epochs compose
  | Window_without_every { query } ->
      Printf.sprintf
        "query %s: a budget \"window\" only applies to recurring queries — \
         add \"every\""
        query
  | Recurring_repeat { query; repeat } ->
      Printf.sprintf
        "query %s: recurring queries run once per due epoch; \"repeat\" must \
         be 1, got %d"
        query repeat

let is_recurring s = s.every <> None

let validate_recurring s =
  match (s.every, s.window) with
  | None, None -> Ok ()
  | None, Some _ -> Error (Window_without_every { query = s.query })
  | Some every, w ->
      if every <= 0 then Error (Bad_every { query = s.query; every })
      else if s.repeat <> 1 then
        Error (Recurring_repeat { query = s.query; repeat = s.repeat })
      else (
        match w with
        | None -> Ok ()
        | Some { w_epochs; w_compose; _ } ->
            if w_epochs < 1 then
              Error (Bad_window_epochs { query = s.query; epochs = w_epochs })
            else (
              match w_compose with
              | Some c when c < 1 ->
                  Error (Bad_compose { query = s.query; compose = c })
              | Some c when c > w_epochs ->
                  Error
                    (Window_below_compose
                       { query = s.query; epochs = w_epochs; compose = c })
              | _ -> Ok ()))

let expand t =
  List.concat_map
    (fun s -> List.init s.repeat (fun _ -> { s with repeat = 1 }))
    (List.filter (fun s -> not (is_recurring s)) t.submissions)

let recurring t = List.filter is_recurring t.submissions

let goal_names =
  [
    ("part-exp-time", C.Min_part_exp_time);
    ("part-max-time", C.Min_part_max_time);
    ("part-exp-bytes", C.Min_part_exp_bytes);
    ("part-max-bytes", C.Min_part_max_bytes);
    ("agg-time", C.Min_agg_time);
    ("agg-bytes", C.Min_agg_bytes);
  ]

let goal_to_name g =
  fst (List.find (fun (_, g') -> g' = g) goal_names)

let window_to_json w =
  J.Obj
    (("epochs", J.Int w.w_epochs)
     :: ("epsilon", J.Float w.w_budget.Arb_dp.Budget.epsilon)
     :: ("delta", J.Float w.w_budget.Arb_dp.Budget.delta)
     ::
     (match w.w_compose with
     | None -> []
     | Some c -> [ ("compose", J.Int c) ]))

let submission_to_json s =
  J.Obj
    (List.concat
       [
         [
           ("query", J.String s.query);
           ("epsilon", J.Float s.epsilon);
           ("goal", J.String (goal_to_name s.goal));
           ("repeat", J.Int s.repeat);
         ];
         (match s.categories with
         | None -> []
         | Some c -> [ ("categories", J.Int c) ]);
         (match s.every with None -> [] | Some e -> [ ("every", J.Int e) ]);
         (match s.window with
         | None -> []
         | Some w -> [ ("window", window_to_json w) ]);
         (match s.tolerance with
         | None -> []
         | Some tol -> [ ("tolerance", J.Float tol) ]);
       ])

let to_json t =
  J.Obj
    (List.concat
       [
         (match t.budget with
         | None -> []
         | Some b -> [ ("budget", Arb_dp.Budget.to_json b) ]);
         (match t.devices with None -> [] | Some d -> [ ("devices", J.Int d) ]);
         (match t.seed with None -> [] | Some s -> [ ("seed", J.Int s) ]);
         (match t.epochs with None -> [] | Some e -> [ ("epochs", J.Int e) ]);
         [ ("queries", J.List (List.map submission_to_json t.submissions)) ];
       ])

(* Optional field access: [J.member] raises on absence, which here means
   "use the default", not an error. *)
let opt_member name json =
  match J.member name json with j -> Some j | exception J.Parse_error _ -> None

let window_of_json j =
  {
    w_epochs = J.to_int (J.member "epochs" j);
    w_budget =
      Arb_dp.Budget.create
        ~epsilon:(J.to_float (J.member "epsilon" j))
        ~delta:
          (match opt_member "delta" j with
          | Some d -> J.to_float d
          | None -> 0.0);
    w_compose = Option.map J.to_int (opt_member "compose" j);
  }

let submission_of_json j =
  match J.to_str (J.member "query" j) with
  | exception J.Parse_error m -> Error ("query entry: " ^ m)
  | query -> (
      match
        let epsilon =
          match opt_member "epsilon" j with Some e -> J.to_float e | None -> 0.1
        in
        let categories = Option.map J.to_int (opt_member "categories" j) in
        let repeat =
          match opt_member "repeat" j with Some r -> J.to_int r | None -> 1
        in
        let every = Option.map J.to_int (opt_member "every" j) in
        let window = Option.map window_of_json (opt_member "window" j) in
        let tolerance = Option.map J.to_float (opt_member "tolerance" j) in
        let goal_spelling =
          match opt_member "goal" j with
          | Some g -> J.to_str g
          | None -> "part-exp-time"
        in
        (goal_spelling, epsilon, categories, repeat, every, window, tolerance)
      with
      | exception J.Parse_error m ->
          Error (Printf.sprintf "query %s: %s" query m)
      | exception Invalid_argument m ->
          Error (Printf.sprintf "query %s: %s" query m)
      | goal_spelling, epsilon, categories, repeat, every, window, tolerance
        -> (
          match List.assoc_opt goal_spelling goal_names with
          | None ->
              Error
                (Printf.sprintf
                   "query %s: unknown goal %S (expected one of %s)" query
                   goal_spelling
                   (String.concat ", " (List.map fst goal_names)))
          | Some goal ->
              if repeat <= 0 then
                Error (Printf.sprintf "query %s: repeat must be positive" query)
              else (
                match Arb_queries.Registry.check_tolerance tolerance with
                | Error m ->
                    Error (Printf.sprintf "query %s: tolerance %s" query m)
                | Ok () ->
                    let s =
                      {
                        query; epsilon; categories; goal; repeat; every; window;
                        tolerance;
                      }
                    in
                    (match validate_recurring s with
                    | Ok () -> Ok s
                    | Error e -> Error (recurring_error_message e)))))

let of_json json =
  match
    let budget = Option.map Arb_dp.Budget.of_json (opt_member "budget" json) in
    let devices = Option.map J.to_int (opt_member "devices" json) in
    let seed = Option.map J.to_int (opt_member "seed" json) in
    let epochs = Option.map J.to_int (opt_member "epochs" json) in
    (match epochs with
    | Some e when e < 1 ->
        raise (J.Parse_error (Printf.sprintf "epochs must be at least 1, got %d" e))
    | _ -> ());
    let entries = J.to_list (J.member "queries" json) in
    let submissions =
      List.map
        (fun j ->
          match submission_of_json j with
          | Ok s -> s
          | Error m -> raise (J.Parse_error m))
        entries
    in
    { budget; devices; seed; epochs; submissions }
  with
  | t -> Ok t
  | exception J.Parse_error m -> Error m
  | exception Invalid_argument m -> Error m

let load path =
  Result.bind (Arb_planner.Plan_io.load_versioned path) (fun json ->
      Result.map_error (fun m -> path ^ ": " ^ m) (of_json json))

let save path t =
  match to_json t with
  | J.Obj fields -> Arb_planner.Plan_io.save_versioned path fields
  | _ -> assert false
