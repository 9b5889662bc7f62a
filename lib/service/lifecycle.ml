module J = Arb_util.Json
module B = Arb_dp.Budget

type status =
  | Refused of string
  | Plan_failed of string
  | Exec_failed of string
  | Executed of { outputs : string list }

type timings = { admit_s : float; plan_s : float; exec_s : float }

type record = {
  index : int;
  query : string;
  categories : int;
  epsilon : float;
  cache_key : Cache.key;
  cache_hit : bool;
  cost : B.t;
  budget_before : B.t;
  budget_after : B.t;
  status : status;
  timings : timings;
}

type counters = {
  submitted : int;
  refused : int;
  planned : int;
  cache_hits : int;
  executed : int;
  failed : int;
  plan_seconds : float;
  exec_seconds : float;
  spent : B.t;
}

let status_name = function
  | Refused _ -> "refused"
  | Plan_failed _ -> "planFailed"
  | Exec_failed _ -> "execFailed"
  | Executed _ -> "executed"

let to_json ?(timings = false) r =
  let status_fields =
    match r.status with
    | Refused reason -> [ ("reason", J.String reason) ]
    | Plan_failed reason -> [ ("reason", J.String reason) ]
    | Exec_failed reason -> [ ("reason", J.String reason) ]
    | Executed { outputs } ->
        [ ("outputs", J.List (List.map (fun s -> J.String s) outputs)) ]
  in
  let timing_fields =
    if not timings then []
    else
      [
        ( "timings",
          J.Obj
            [
              ("admitSeconds", J.Float r.timings.admit_s);
              ("planSeconds", J.Float r.timings.plan_s);
              ("execSeconds", J.Float r.timings.exec_s);
            ] );
      ]
  in
  J.Obj
    ([
       ("index", J.Int r.index);
       ("query", J.String r.query);
       ("categories", J.Int r.categories);
       ("epsilon", J.Float r.epsilon);
       ("cacheKey", J.String r.cache_key);
       ("cacheHit", J.Bool r.cache_hit);
       ("cost", B.to_json r.cost);
       ("budgetBefore", B.to_json r.budget_before);
       ("budgetAfter", B.to_json r.budget_after);
       ("status", J.String (status_name r.status));
     ]
    @ status_fields @ timing_fields)

let records_to_string ?timings rs =
  J.to_string (J.List (List.map (to_json ?timings) rs))

let counters_of rs =
  List.fold_left
    (fun c r ->
      let executed = match r.status with Executed _ -> true | _ -> false in
      {
        submitted = c.submitted + 1;
        refused =
          (c.refused + match r.status with Refused _ -> 1 | _ -> 0);
        planned =
          (c.planned
          +
          match r.status with
          | Refused _ -> 0
          | _ -> if r.cache_hit then 0 else 1);
        cache_hits = (c.cache_hits + if r.cache_hit then 1 else 0);
        executed = (c.executed + if executed then 1 else 0);
        failed =
          (c.failed
          + match r.status with Plan_failed _ | Exec_failed _ -> 1 | _ -> 0);
        plan_seconds = c.plan_seconds +. r.timings.plan_s;
        exec_seconds = c.exec_seconds +. r.timings.exec_s;
        spent = (if executed then B.spend_all c.spent r.cost else c.spent);
      })
    {
      submitted = 0;
      refused = 0;
      planned = 0;
      cache_hits = 0;
      executed = 0;
      failed = 0;
      plan_seconds = 0.0;
      exec_seconds = 0.0;
      spent = B.zero;
    }
    rs

let counters_to_json c =
  J.Obj
    [
      ("submitted", J.Int c.submitted);
      ("refused", J.Int c.refused);
      ("planned", J.Int c.planned);
      ("cacheHits", J.Int c.cache_hits);
      ("executed", J.Int c.executed);
      ("failed", J.Int c.failed);
      ("planSeconds", J.Float c.plan_seconds);
      ("execSeconds", J.Float c.exec_seconds);
      ("spent", B.to_json c.spent);
    ]

let pp ppf r =
  let detail =
    match r.status with
    | Refused m | Plan_failed m | Exec_failed m -> m
    | Executed { outputs } -> String.concat "; " outputs
  in
  Format.fprintf ppf "#%-3d %-9s %-10s %-5s %a -> %a  plan %s exec %s  %s"
    r.index r.query (status_name r.status)
    (match r.status with
    | Refused _ -> "-"
    | _ -> if r.cache_hit then "hit" else "cold")
    B.pp r.budget_before B.pp r.budget_after
    (Arb_util.Units.seconds_to_string r.timings.plan_s)
    (Arb_util.Units.seconds_to_string r.timings.exec_s)
    detail
