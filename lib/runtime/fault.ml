type kind =
  | Committee_dropout
  | Share_corruption
  | Message_drop
  | Message_delay
  | Ciphertext_tamper
  | Audit_failure
  | Accept_drop
  | Response_truncate

let all_kinds =
  [
    Committee_dropout;
    Share_corruption;
    Message_drop;
    Message_delay;
    Ciphertext_tamper;
    Audit_failure;
    Accept_drop;
    Response_truncate;
  ]

let kind_name = function
  | Committee_dropout -> "committee_dropout"
  | Share_corruption -> "share_corruption"
  | Message_drop -> "message_drop"
  | Message_delay -> "message_delay"
  | Ciphertext_tamper -> "ciphertext_tamper"
  | Audit_failure -> "audit_failure"
  | Accept_drop -> "accept_drop"
  | Response_truncate -> "response_truncate"

let kind_index = function
  | Committee_dropout -> 0
  | Share_corruption -> 1
  | Message_drop -> 2
  | Message_delay -> 3
  | Ciphertext_tamper -> 4
  | Audit_failure -> 5
  | Accept_drop -> 6
  | Response_truncate -> 7

type spec = {
  dropout_p : float;
  dropout_at : int option;
  share_corrupt_p : float;
  corrupt_parties : int;
  message_drop_p : float;
  message_delay_p : float;
  delay_s : float;
  tamper_p : float;
  audit_fail_p : float;
  max_retries : int;
  backoff_base_s : float;
  backoff_budget_s : float;
  accept_drop_p : float;
  response_truncate_p : float;
}

let no_faults =
  {
    dropout_p = 0.0;
    dropout_at = None;
    share_corrupt_p = 0.0;
    corrupt_parties = 1;
    message_drop_p = 0.0;
    message_delay_p = 0.0;
    delay_s = 0.25;
    tamper_p = 0.0;
    audit_fail_p = 0.0;
    max_retries = 4;
    backoff_base_s = 0.05;
    backoff_budget_s = 60.0;
    accept_drop_p = 0.0;
    response_truncate_p = 0.0;
  }

let chaos =
  {
    no_faults with
    dropout_p = 0.25;
    share_corrupt_p = 0.05;
    message_drop_p = 0.1;
    message_delay_p = 0.1;
    tamper_p = 0.1;
    audit_fail_p = 0.2;
  }

type t = {
  spec : spec;
  streams : Arb_util.Rng.t array; (* one decision stream per kind *)
  sites : int array; (* opportunities seen per kind *)
  injected : int array;
  recovered : int array;
  mutable retries : int;
  mutable backoff_spent : float;
  seed : int64;
}

let n_kinds = List.length all_kinds

let create ~seed spec =
  (* Independent splitmix streams per kind: injection decisions for one
     kind never perturb another's, so a schedule is reproducible even if
     the runtime changes how sites interleave. *)
  let streams =
    Array.init n_kinds (fun k ->
        Arb_util.Rng.create
          (Int64.add
             (Int64.mul seed 0x9E3779B97F4A7C15L)
             (Int64.of_int ((k + 1) * 0x2545F49))))
  in
  {
    spec;
    streams;
    sites = Array.make n_kinds 0;
    injected = Array.make n_kinds 0;
    recovered = Array.make n_kinds 0;
    retries = 0;
    backoff_spent = 0.0;
    seed;
  }

let spec t = t.spec

let probability t = function
  | Committee_dropout -> t.spec.dropout_p
  | Share_corruption -> t.spec.share_corrupt_p
  | Message_drop -> t.spec.message_drop_p
  | Message_delay -> t.spec.message_delay_p
  | Ciphertext_tamper -> t.spec.tamper_p
  | Audit_failure -> t.spec.audit_fail_p
  | Accept_drop -> t.spec.accept_drop_p
  | Response_truncate -> t.spec.response_truncate_p

let fires t kind =
  let k = kind_index kind in
  let site = t.sites.(k) in
  t.sites.(k) <- site + 1;
  (* The stream advances on every opportunity, fired or not, so the
     schedule depends only on (seed, spec, site), never on outcomes. *)
  let draw = Arb_util.Rng.uniform01 t.streams.(k) in
  let forced =
    match (kind, t.spec.dropout_at) with
    | Committee_dropout, Some at -> site = at
    | _ -> false
  in
  let hit = forced || draw < probability t kind in
  if hit then t.injected.(k) <- t.injected.(k) + 1;
  hit

let record_recovery t kind =
  let k = kind_index kind in
  t.recovered.(k) <- t.recovered.(k) + 1

let backoff t ~attempt =
  let d = t.spec.backoff_base_s *. (2.0 ** float_of_int attempt) in
  if t.backoff_spent +. d > t.spec.backoff_budget_s then None
  else begin
    t.backoff_spent <- t.backoff_spent +. d;
    t.retries <- t.retries + 1;
    Some d
  end

let injected t = List.map (fun k -> (k, t.injected.(kind_index k))) all_kinds
let recovered t = List.map (fun k -> (k, t.recovered.(kind_index k))) all_kinds
let retries t = t.retries
let backoff_spent t = t.backoff_spent
let total_injected t = Array.fold_left ( + ) 0 t.injected

let injected_named t = List.map (fun (k, n) -> (kind_name k, n)) (injected t)
let recovered_named t = List.map (fun (k, n) -> (kind_name k, n)) (recovered t)

let pp fmt t =
  Format.fprintf fmt "faults[seed=%Ld]:" t.seed;
  List.iter
    (fun (k, n) -> if n > 0 then Format.fprintf fmt " %s=%d" (kind_name k) n)
    (injected t);
  Format.fprintf fmt " retries=%d backoff=%.2fs" t.retries t.backoff_spent
