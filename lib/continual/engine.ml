(* The continual-analytics scheduler: epoch-indexed recurring sessions
   layered over the one-shot {!Arb_service.Service} core.

   Each tick advances every session's sliding budget window (collecting
   expiry refunds), re-submits the sessions due this epoch, drains the
   service once, and settles: window charges for executed queries,
   mechanism-state carryover, per-epoch records.

   Plan reuse is the point, and the service's plan cache decides it: the
   cache key names every input of the search, the pricing model included,
   so a due epoch whose key hits reuses the plan (*re-validation*) and one
   whose key misses searches again (a *re-plan*, or the session's *cold*
   first plan). Settle reads which it was off the lifecycle record.

   Determinism: sessions are processed in registration order, windows and
   carried state are updated sequentially, and execution runs through the
   service's canonically-ordered pipeline — so epoch records are
   byte-identical at any worker count. *)

module B = Arb_dp.Budget
module W = B.Window
module J = Arb_util.Json
module S = Arb_service

let src = Logs.Src.create "arb.continual" ~doc:"Continual analytics engine"

module Log = (val Logs.src_log src : Logs.LOG)

type planned = Cold | Revalidated | Replanned

let planned_name = function
  | Cold -> "cold"
  | Revalidated -> "revalidated"
  | Replanned -> "replanned"

type outcome =
  | Skipped
  | Window_refused of string
  | Ran of {
      index : int;
      planned : planned;
      status : string;
      outputs : string list;
    }

type epoch_record = {
  er_epoch : int;
  er_session : string;
  er_outcome : outcome;
  er_refunded : B.t;
  er_window : (B.t * B.t) option;  (* (spent, balance) after settling *)
  er_estimate : string list;
}

type session = {
  name : string;
  sub : S.Workload.submission;
  every : int;
  start_epoch : int;
  window : W.t option;
  compose : int option;
  kind : Mstate.kind;
  mutable state : Mstate.t;
  mutable last_cost : B.t option;
  mutable cold : int;
  mutable replans : int;
  mutable revalidations : int;
  mutable window_refusals : int;
  mutable runs : int;
  mutable history : epoch_record list;  (* newest first *)
}

type t = {
  service : S.Service.t;
  tick_lock : Mutex.t;  (* serializes whole ticks *)
  lock : Mutex.t;  (* guards epoch / sessions *)
  mutable epoch : int;
  mutable sessions : session list;  (* newest first *)
}

let create ~service () =
  {
    service;
    tick_lock = Mutex.create ();
    lock = Mutex.create ();
    epoch = 0;
    sessions = [];
  }

let epoch t = Mutex.protect t.lock (fun () -> t.epoch)

let in_order t = List.rev t.sessions

let register t ?name (sub : S.Workload.submission) =
  match S.Workload.validate_recurring sub with
  | Error e -> Error (S.Workload.recurring_error_message e)
  | Ok () -> (
      match sub.S.Workload.every with
      | None ->
          Error
            (Printf.sprintf
               "query %s: not recurring — add \"every\" to register a session"
               sub.S.Workload.query)
      | Some every ->
          Mutex.protect t.lock @@ fun () ->
          let exists n = List.exists (fun s -> s.name = n) t.sessions in
          let base = Option.value name ~default:sub.S.Workload.query in
          if name <> None && exists base then
            Error (Printf.sprintf "session %s already exists" base)
          else begin
            let rec uniq candidate k =
              if exists candidate then
                uniq (Printf.sprintf "%s#%d" base k) (k + 1)
              else candidate
            in
            let sname = uniq base 2 in
            let kind =
              match S.Service.resolve sub with
              | Some q -> Mstate.kind_for q
              | None -> Mstate.Winners
            in
            let window =
              Option.map
                (fun w ->
                  W.create ~horizon:w.S.Workload.w_epochs
                    ~limit:w.S.Workload.w_budget)
                sub.S.Workload.window
            in
            let s =
              {
                name = sname;
                sub;
                every;
                start_epoch = t.epoch + 1;
                window;
                compose =
                  Option.bind sub.S.Workload.window (fun w ->
                      w.S.Workload.w_compose);
                kind;
                state = Mstate.create kind;
                last_cost = None;
                cold = 0;
                replans = 0;
                revalidations = 0;
                window_refusals = 0;
                runs = 0;
                history = [];
              }
            in
            t.sessions <- s :: t.sessions;
            Ok sname
          end)

let current_estimate s = Option.value (Mstate.estimate s.state) ~default:[]

(* ---------------- metrics ---------------- *)

let emit_counter t ?labels name help =
  match S.Service.metrics t.service with
  | None -> ()
  | Some reg -> Arb_obs.Metrics.add reg ?labels ~help name 1.0

let emit_window_gauges t s =
  match (S.Service.metrics t.service, s.window) with
  | Some reg, Some w ->
      let set name help v =
        Arb_obs.Metrics.set_gauge reg
          ~labels:[ ("session", s.name) ]
          ~help name v
      in
      let spent = W.spent w and bal = W.balance w in
      set "arb_budget_window_spent_epsilon"
        "Epsilon spent inside the live budget window" spent.B.epsilon;
      set "arb_budget_window_spent_delta"
        "Delta spent inside the live budget window" spent.B.delta;
      set "arb_budget_window_balance_epsilon"
        "Epsilon remaining in the sliding budget window" bal.B.epsilon;
      set "arb_budget_window_balance_delta"
        "Delta remaining in the sliding budget window" bal.B.delta;
      set "arb_budget_window_limit_epsilon"
        "Epsilon limit of the sliding budget window" (W.limit w).B.epsilon;
      set "arb_budget_window_live_epochs"
        "Epochs carrying live charges in the budget window"
        (float_of_int (List.length (W.charges w)))
  | _ -> ()

(* ---------------- tick ---------------- *)

type pending = { pd_session : session; pd_refunded : B.t; pd_index : int }

let window_view s = Option.map (fun w -> (W.spent w, W.balance w)) s.window

let push_record s r = s.history <- r :: s.history

(* Settle one due session from its lifecycle record: label the plan (a
   hit revalidated; a miss is the session's cold first plan, or a re-plan
   once an earlier epoch planned), bump counters, charge the window for
   executed work, and fold outputs into carried state. *)
let settle t pd record =
  let s = pd.pd_session in
  let planned =
    match record with
    | Some r when r.S.Lifecycle.cache_hit -> Revalidated
    | _ -> if s.cold + s.replans + s.revalidations = 0 then Cold else Replanned
  in
  (match record with
  | None -> ()
  | Some (r : S.Lifecycle.record) -> (
      match r.S.Lifecycle.status with
      | S.Lifecycle.Refused _ ->
          (* The service's own admission refused it: nothing was planned or
             executed, so neither counters nor the window move. *)
          ()
      | status ->
          s.last_cost <- Some r.S.Lifecycle.cost;
          (match planned with
          | Cold ->
              s.cold <- s.cold + 1;
              emit_counter t "arb_continual_cold_plans_total"
                "First-epoch cold plans by continual sessions"
          | Replanned ->
              s.replans <- s.replans + 1;
              emit_counter t "arb_continual_replans_total"
                "Due epochs whose plan-cache key missed after an earlier plan"
          | Revalidated ->
              s.revalidations <- s.revalidations + 1;
              emit_counter t "arb_continual_revalidations_total"
                "Epochs that reused the cached plan via re-validation");
          (match status with
          | S.Lifecycle.Executed { outputs } -> (
              s.runs <- s.runs + 1;
              s.state <- Mstate.update s.state ~outputs;
              match s.window with
              | None -> ()
              | Some w -> (
                  match W.charge w ~cost:r.S.Lifecycle.cost with
                  | Some _ -> ()
                  | None ->
                      (* Prescreened before submission; only reachable if the
                         certified cost changed in between. *)
                      Log.warn (fun f ->
                          f "session %s: window charge failed post-execution"
                            s.name)))
          | _ -> ())));
  let status, outputs =
    match record with
    | None -> ("missing", [])
    | Some r -> (
        ( S.Lifecycle.status_name r.S.Lifecycle.status,
          match r.S.Lifecycle.status with
          | S.Lifecycle.Executed { outputs } -> outputs
          | _ -> [] ))
  in
  {
    er_epoch = 0 (* patched by the caller *);
    er_session = s.name;
    er_outcome = Ran { index = pd.pd_index; planned; status; outputs };
    er_refunded = pd.pd_refunded;
    er_window = window_view s;
    er_estimate = current_estimate s;
  }

let tick ?tracer ?(workers = 1) t =
  Mutex.protect t.tick_lock @@ fun () ->
  let epoch, all_sessions =
    Mutex.protect t.lock (fun () ->
        t.epoch <- t.epoch + 1;
        (t.epoch, in_order t))
  in
  (* Phase 1, in registration order: advance windows (collect refunds),
     decide skip / window-refuse / submit, and enqueue due work. *)
  let pendings =
    List.filter_map
      (fun s ->
        let refunded =
          match s.window with None -> B.zero | Some w -> W.advance w epoch
        in
        let record_now outcome =
          push_record s
            {
              er_epoch = epoch;
              er_session = s.name;
              er_outcome = outcome;
              er_refunded = refunded;
              er_window = window_view s;
              er_estimate = current_estimate s;
            };
          None
        in
        if epoch < s.start_epoch || (epoch - s.start_epoch) mod s.every <> 0
        then record_now Skipped
        else
          match (s.window, S.Service.certified_cost t.service s.sub) with
          | Some w, Some c when not (W.can_afford w ~cost:c) ->
              (* Refused before anything reaches the service: session and
                 window budgets stay byte-identical. *)
              let reason =
                Format.asprintf "window budget exhausted (need %a, have %a)%s"
                  B.pp c B.pp (W.balance w)
                  (match W.next_expiry w with
                  | Some (e, r) ->
                      Format.asprintf "; %a expires at epoch %d" B.pp r e
                  | None -> "")
              in
              s.window_refusals <- s.window_refusals + 1;
              emit_counter t "arb_continual_window_refusals_total"
                "Epochs refused by the sliding-window budget prescreen";
              record_now (Window_refused reason)
          | _ ->
              Some
                {
                  pd_session = s;
                  pd_refunded = refunded;
                  pd_index = S.Service.submit t.service s.sub;
                })
      all_sessions
  in
  (* Phase 2: one drain for the whole epoch. An API executor may have
     taken some of this epoch's submissions into its own drain; drains
     serialize and append their records before releasing the drain lock,
     so once this call returns every submission above has its record. *)
  if pendings <> [] then ignore (S.Service.drain ?tracer ~workers t.service);
  (* Phase 3, in registration order: settle and record. *)
  List.iter
    (fun pd ->
      let er = settle t pd (S.Service.record t.service pd.pd_index) in
      push_record pd.pd_session { er with er_epoch = epoch })
    pendings;
  emit_counter t "arb_continual_epochs_total" "Epoch ticks processed";
  (match S.Service.metrics t.service with
  | None -> ()
  | Some reg ->
      Arb_obs.Metrics.set_gauge reg ~help:"Current continual epoch"
        "arb_continual_epoch" (float_of_int epoch);
      Arb_obs.Metrics.set_gauge reg ~help:"Registered continual sessions"
        "arb_continual_sessions"
        (float_of_int (List.length all_sessions)));
  List.iter (emit_window_gauges t) all_sessions;
  Log.info (fun f ->
      f "epoch %d: %d sessions, %d due" epoch (List.length all_sessions)
        (List.length pendings));
  (* Every session's record for this epoch, in registration order. *)
  Mutex.protect t.lock (fun () ->
      List.filter_map
        (fun s -> List.find_opt (fun r -> r.er_epoch = epoch) s.history)
        (in_order t))

let run_epochs ?tracer ?workers t n =
  List.init n (fun _ -> tick ?tracer ?workers t)

(* ---------------- views / JSON ---------------- *)

type session_view = {
  v_name : string;
  v_query : string;
  v_every : int;
  v_kind : Mstate.kind;
  v_runs : int;
  v_cold : int;
  v_replans : int;
  v_revalidations : int;
  v_window_refusals : int;
  v_estimate : string list;
  v_state : J.t;
  v_window : W.t option;
  v_compose : int option;
  v_last_cost : B.t option;
  v_history : epoch_record list;  (* oldest first *)
}

let view_of s =
  {
    v_name = s.name;
    v_query = s.sub.S.Workload.query;
    v_every = s.every;
    v_kind = s.kind;
    v_runs = s.runs;
    v_cold = s.cold;
    v_replans = s.replans;
    v_revalidations = s.revalidations;
    v_window_refusals = s.window_refusals;
    v_estimate = current_estimate s;
    v_state = Mstate.to_json s.state;
    v_window = s.window;
    v_compose = s.compose;
    v_last_cost = s.last_cost;
    v_history = List.rev s.history;
  }

let sessions t = Mutex.protect t.lock (fun () -> List.map view_of (in_order t))

let session t name =
  Mutex.protect t.lock (fun () ->
      Option.map view_of (List.find_opt (fun s -> s.name = name) t.sessions))

let strings l = J.List (List.map (fun s -> J.String s) l)

let record_json r =
  let outcome_fields =
    match r.er_outcome with
    | Skipped -> [ ("outcome", J.String "skipped") ]
    | Window_refused reason ->
        [ ("outcome", J.String "windowRefused"); ("reason", J.String reason) ]
    | Ran { index; planned; status; outputs } ->
        [
          ("outcome", J.String "ran");
          ("index", J.Int index);
          ("planned", J.String (planned_name planned));
          ("status", J.String status);
          ("outputs", strings outputs);
        ]
  in
  J.Obj
    (List.concat
       [
         [ ("epoch", J.Int r.er_epoch); ("session", J.String r.er_session) ];
         outcome_fields;
         [ ("refunded", B.to_json r.er_refunded) ];
         (match r.er_window with
         | None -> []
         | Some (spent, balance) ->
             [
               ("windowSpent", B.to_json spent);
               ("windowBalance", B.to_json balance);
             ]);
         [ ("estimate", strings r.er_estimate) ];
       ])

let records_string records =
  J.to_string (J.List (List.map record_json records))

let session_summary_json v =
  J.Obj
    (List.concat
       [
         [
           ("name", J.String v.v_name);
           ("query", J.String v.v_query);
           ("every", J.Int v.v_every);
           ("state", J.String (Mstate.kind_name v.v_kind));
           ("runs", J.Int v.v_runs);
           ("coldPlans", J.Int v.v_cold);
           ("replans", J.Int v.v_replans);
           ("revalidations", J.Int v.v_revalidations);
           ("windowRefusals", J.Int v.v_window_refusals);
           ("estimate", strings v.v_estimate);
         ];
         (match v.v_window with
         | None -> []
         | Some w ->
             ("window", W.to_json w)
             :: ("composed", B.to_json (W.composed w))
             ::
             (match (v.v_compose, v.v_last_cost) with
             | Some k, Some cost ->
                 (* Worst case over the declared composition horizon: k
                    charges of the session's certified cost, priced at the
                    tighter of sequential and advanced composition. *)
                 let seq = B.scale cost (float_of_int k) in
                 let adv =
                   if cost.B.epsilon > 0.0 then
                     B.advanced_composition ~epsilon:cost.B.epsilon
                       ~delta:cost.B.delta ~k ~delta_slack:1e-9
                   else seq
                 in
                 [
                   ( "projectedComposed",
                     B.to_json
                       (if adv.B.epsilon < seq.B.epsilon then adv else seq) );
                 ]
             | _ -> []));
       ])

let session_json v =
  match session_summary_json v with
  | J.Obj fields ->
      J.Obj (fields @ [ ("history", J.List (List.map record_json v.v_history)) ])
  | j -> j

let to_json t =
  J.Obj
    [
      ("epoch", J.Int (epoch t));
      ("sessions", J.List (List.map session_summary_json (sessions t)));
    ]
