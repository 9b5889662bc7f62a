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

   Sessions, their windows and their carried state are values. A writer
   (a tick or a registration) holds the engine's one lock, builds the next
   sessions from the last published ones and publishes them whole, so a
   reader sees every session as of one completed tick without locking.

   Determinism: sessions are processed in registration order, and
   execution runs through the service's canonically-ordered pipeline — so
   epoch records are byte-identical at any worker count. *)

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
  state : Mstate.t;
  last_cost : B.t option;
  cold : int;
  replans : int;
  revalidations : int;
  window_refusals : int;
  runs : int;
  history : epoch_record list;  (* newest first *)
}

(* Every session as of one completed tick, in registration order. *)
type snapshot = { epoch : int; sessions : session list }

type t = {
  service : S.Service.t;
  lock : Mutex.t;  (* serializes the writers: tick and register *)
  snapshot : snapshot Atomic.t;
}

let create ~service () =
  {
    service;
    lock = Mutex.create ();
    snapshot = Atomic.make { epoch = 0; sessions = [] };
  }

let epoch t = (Atomic.get t.snapshot).epoch
let sessions t = (Atomic.get t.snapshot).sessions
let session t name = List.find_opt (fun s -> s.name = name) (sessions t)

let register t (sub : S.Workload.submission) =
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
          let snap = Atomic.get t.snapshot in
          let base = sub.S.Workload.query in
          let rec uniq candidate k =
            if List.exists (fun s -> s.name = candidate) snap.sessions then
              uniq (Printf.sprintf "%s#%d" base k) (k + 1)
            else candidate
          in
          let name = uniq base 2 in
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
              name;
              sub;
              every;
              start_epoch = snap.epoch + 1;
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
          Atomic.set t.snapshot { snap with sessions = snap.sessions @ [ s ] };
          Ok name)

let estimate s = Option.value (Mstate.estimate s.state) ~default:[]

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

(* [s] with this epoch's record, taken from its own counters, window and
   state, on top of its history. *)
let recorded s ~epoch ~refunded outcome =
  let r =
    {
      er_epoch = epoch;
      er_session = s.name;
      er_outcome = outcome;
      er_refunded = refunded;
      er_window = Option.map (fun w -> (W.spent w, W.balance w)) s.window;
      er_estimate = estimate s;
    }
  in
  { s with history = r :: s.history }

(* A session after phase 1: settled already, or submitted and waiting for
   its lifecycle record. *)
type step = Settled of session | Due of (session * B.t * int)

(* Settle one due session from its lifecycle record: label the plan (a
   hit revalidated; a miss is the session's cold first plan, or a re-plan
   once an earlier epoch planned), bump counters, charge the window for
   executed work, and fold outputs into carried state. *)
let settle t ~epoch (s, refunded, index) record =
  let planned =
    match record with
    | Some r when r.S.Lifecycle.cache_hit -> Revalidated
    | _ -> if s.cold + s.replans + s.revalidations = 0 then Cold else Replanned
  in
  let ran ?(outputs = []) status s =
    recorded s ~epoch ~refunded (Ran { index; planned; status; outputs })
  in
  match record with
  | None -> ran "missing" s
  | Some ({ S.Lifecycle.status = S.Lifecycle.Refused _; _ } as r) ->
      (* The service's own admission refused it: nothing was planned or
         executed, so neither counters nor the window move. *)
      ran (S.Lifecycle.status_name r.S.Lifecycle.status) s
  | Some r -> (
      let s =
        match planned with
        | Cold ->
            emit_counter t "arb_continual_cold_plans_total"
              "First-epoch cold plans by continual sessions";
            { s with cold = s.cold + 1 }
        | Replanned ->
            emit_counter t "arb_continual_replans_total"
              "Due epochs whose plan-cache key missed after an earlier plan";
            { s with replans = s.replans + 1 }
        | Revalidated ->
            emit_counter t "arb_continual_revalidations_total"
              "Epochs that reused the cached plan via re-validation";
            { s with revalidations = s.revalidations + 1 }
      in
      let cost = r.S.Lifecycle.cost in
      let s = { s with last_cost = Some cost } in
      let status = S.Lifecycle.status_name r.S.Lifecycle.status in
      match r.S.Lifecycle.status with
      | S.Lifecycle.Executed { outputs } ->
          let charge w =
            match W.charge w ~cost with
            | Some w -> w
            | None ->
                (* Prescreened before submission; only reachable if the
                   certified cost changed in between. *)
                Log.warn (fun f ->
                    f "session %s: window charge failed post-execution" s.name);
                w
          in
          ran ~outputs status
            {
              s with
              runs = s.runs + 1;
              state = Mstate.update s.state ~outputs;
              window = Option.map charge s.window;
            }
      | _ -> ran status s)

let tick ?tracer ?(workers = 1) t =
  Mutex.protect t.lock @@ fun () ->
  let prev = Atomic.get t.snapshot in
  let epoch = prev.epoch + 1 in
  (* Phase 1, in registration order: advance windows (collect refunds),
     decide skip / window-refuse / submit, and enqueue due work. *)
  let steps =
    List.map
      (fun s ->
        let s, refunded =
          match s.window with
          | None -> (s, B.zero)
          | Some w ->
              let w, refunded = W.advance w epoch in
              ({ s with window = Some w }, refunded)
        in
        if epoch < s.start_epoch || (epoch - s.start_epoch) mod s.every <> 0
        then Settled (recorded s ~epoch ~refunded Skipped)
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
              emit_counter t "arb_continual_window_refusals_total"
                "Epochs refused by the sliding-window budget prescreen";
              Settled
                (recorded
                   { s with window_refusals = s.window_refusals + 1 }
                   ~epoch ~refunded (Window_refused reason))
          | _ -> Due (s, refunded, S.Service.submit t.service s.sub))
      prev.sessions
  in
  let due = List.filter (function Due _ -> true | Settled _ -> false) steps in
  (* Phase 2: one drain for the whole epoch. An API executor may have
     taken some of this epoch's submissions into its own drain; drains
     serialize and append their records before releasing the drain lock,
     so once this call returns every submission above has its record. *)
  if due <> [] then ignore (S.Service.drain ?tracer ~workers t.service);
  (* Phase 3, in registration order: settle and record. *)
  let sessions =
    List.map
      (function
        | Settled s -> s
        | Due ((_, _, index) as d) ->
            settle t ~epoch d (S.Service.record t.service index))
      steps
  in
  Atomic.set t.snapshot { epoch; sessions };
  emit_counter t "arb_continual_epochs_total" "Epoch ticks processed";
  (match S.Service.metrics t.service with
  | None -> ()
  | Some reg ->
      Arb_obs.Metrics.set_gauge reg ~help:"Current continual epoch"
        "arb_continual_epoch" (float_of_int epoch);
      Arb_obs.Metrics.set_gauge reg ~help:"Registered continual sessions"
        "arb_continual_sessions"
        (float_of_int (List.length sessions)));
  List.iter (emit_window_gauges t) sessions;
  Log.info (fun f ->
      f "epoch %d: %d sessions, %d due" epoch (List.length sessions)
        (List.length due));
  (* Every session's record for this epoch, in registration order. *)
  List.map (fun s -> List.hd s.history) sessions

let run_epochs ?tracer ?workers t n =
  List.init n (fun _ -> tick ?tracer ?workers t)

(* ---------------- JSON ---------------- *)

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

let session_summary_json s =
  J.Obj
    (List.concat
       [
         [
           ("name", J.String s.name);
           ("query", J.String s.sub.S.Workload.query);
           ("every", J.Int s.every);
           ("state", J.String (Mstate.kind_name s.kind));
           ("runs", J.Int s.runs);
           ("coldPlans", J.Int s.cold);
           ("replans", J.Int s.replans);
           ("revalidations", J.Int s.revalidations);
           ("windowRefusals", J.Int s.window_refusals);
           ("estimate", strings (estimate s));
         ];
         (match s.window with
         | None -> []
         | Some w ->
             ("window", W.to_json w)
             :: ("composed", B.to_json (W.composed w))
             ::
             (match (s.compose, s.last_cost) with
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

let session_json s =
  match session_summary_json s with
  | J.Obj fields ->
      J.Obj
        (fields
        @ [ ("history", J.List (List.rev_map record_json s.history)) ])
  | j -> j

let to_json t =
  let snap = Atomic.get t.snapshot in
  J.Obj
    [
      ("epoch", J.Int snap.epoch);
      ("sessions", J.List (List.map session_summary_json snap.sessions));
    ]
