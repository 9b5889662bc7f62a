type t = { epsilon : float; delta : float }

let create ~epsilon ~delta =
  if epsilon < 0.0 || delta < 0.0 then invalid_arg "Budget.create: negative";
  { epsilon; delta }

let zero = { epsilon = 0.0; delta = 0.0 }

let can_afford balance ~cost =
  cost.epsilon <= balance.epsilon && cost.delta <= balance.delta

let charge balance ~cost =
  if can_afford balance ~cost then
    Some { epsilon = balance.epsilon -. cost.epsilon; delta = balance.delta -. cost.delta }
  else None

let spend_all a b = { epsilon = a.epsilon +. b.epsilon; delta = a.delta +. b.delta }

let scale t k =
  if k < 0.0 then invalid_arg "Budget.scale: negative factor";
  { epsilon = t.epsilon *. k; delta = t.delta *. k }

let amplified_epsilon ~epsilon ~phi =
  if phi <= 0.0 || phi > 1.0 then
    invalid_arg "Budget.amplified_epsilon: phi out of (0,1]";
  (* ln(1 + phi(e^eps - 1)); for large eps compute the asymptote
     eps + ln(phi) directly so e^eps never overflows. *)
  if epsilon > 30.0 then Float.max 0.0 (epsilon +. Float.log phi)
  else Float.log1p (phi *. (exp epsilon -. 1.0))

let amplify t ~phi =
  (* Privacy amplification by subsampling: when only a phi-fraction of
     devices contribute, the mechanism's effective charge shrinks to
     (ln(1 + phi(e^eps - 1)), phi * delta) — strictly below (eps, delta)
     for phi < 1 and eps > 0. *)
  { epsilon = amplified_epsilon ~epsilon:t.epsilon ~phi; delta = t.delta *. phi }

let equal a b = a.epsilon = b.epsilon && a.delta = b.delta

let pp fmt t = Format.fprintf fmt "(eps=%.4f, delta=%.2e)" t.epsilon t.delta

let to_json t =
  Arb_util.Json.Obj
    [ ("epsilon", Arb_util.Json.Float t.epsilon);
      ("delta", Arb_util.Json.Float t.delta) ]

let of_json j =
  let open Arb_util.Json in
  create ~epsilon:(to_float (member "epsilon" j))
    ~delta:(to_float (member "delta" j))

let advanced_composition ~epsilon ~delta ~k ~delta_slack =
  if k <= 0 then invalid_arg "Budget.advanced_composition: k <= 0";
  if delta_slack <= 0.0 || delta_slack >= 1.0 then
    invalid_arg "Budget.advanced_composition: delta_slack out of (0,1)";
  let kf = float_of_int k in
  let eps' =
    (epsilon *. sqrt (2.0 *. kf *. Float.log (1.0 /. delta_slack)))
    +. (kf *. epsilon *. (Float.exp epsilon -. 1.0))
  in
  { epsilon = eps'; delta = (kf *. delta) +. delta_slack }

(* --- sliding-window accounting (continual analytics) --- *)

module Window = struct
  module J = Arb_util.Json

  type budget = t

  type w = {
    horizon : int;
    limit : budget;
    current : int;
    (* Live charges by ascending epoch, each epoch's individual charges
       newest first. Totals are always computed over the canonically
       sorted list, so any insertion order within an epoch sums to the
       same bytes. *)
    charges : (int * budget list) list;
  }

  type t = w

  let create ~horizon ~limit =
    if horizon < 1 then invalid_arg "Budget.Window.create: horizon < 1";
    { horizon; limit; current = 0; charges = [] }

  let horizon t = t.horizon
  let limit t = t.limit
  let epoch t = t.current

  let canon cs =
    List.sort (fun a b -> compare (a.epsilon, a.delta) (b.epsilon, b.delta)) cs

  let sum cs = List.fold_left spend_all zero (canon cs)

  let charges t = List.map (fun (e, cs) -> (e, sum cs)) t.charges

  let spent t =
    List.fold_left (fun acc (_, b) -> spend_all acc b) zero (charges t)

  let balance t =
    let s = spent t in
    {
      epsilon = t.limit.epsilon -. s.epsilon;
      delta = t.limit.delta -. s.delta;
    }

  let window_can_afford t ~cost = can_afford (balance t) ~cost

  (* Charges land on the current epoch, the newest one held. *)
  let charge t ~cost =
    if cost.epsilon < 0.0 || cost.delta < 0.0 then
      invalid_arg "Budget.Window.charge: negative cost";
    if window_can_afford t ~cost then
      let rec add = function
        | [ (e, cs) ] when e = t.current -> [ (e, cost :: cs) ]
        | [] -> [ (t.current, [ cost ]) ]
        | ec :: rest -> ec :: add rest
      in
      Some { t with charges = add t.charges }
    else None

  (* Epoch [e'] stays live at [e] iff e - horizon < e' <= e. *)
  let advance t e =
    if e < t.current then invalid_arg "Budget.Window.advance: epoch moved backwards";
    let expired, live =
      List.partition (fun (e', _) -> e' <= e - t.horizon) t.charges
    in
    ( { t with current = e; charges = live },
      List.fold_left (fun acc (_, cs) -> spend_all acc (sum cs)) zero expired )

  let next_expiry t =
    match t.charges with
    | [] -> None
    | (oldest, cs) :: _ -> Some (oldest + t.horizon, sum cs)

  let composed ?(delta_slack = 1e-9) t =
    let cs = canon (List.concat_map snd t.charges) in
    let k = List.length cs in
    if k = 0 then zero
    else
      let sequential = List.fold_left spend_all zero cs in
      let eps_max = List.fold_left (fun m c -> Float.max m c.epsilon) 0.0 cs in
      let delta_max = List.fold_left (fun m c -> Float.max m c.delta) 0.0 cs in
      let adv =
        advanced_composition ~epsilon:eps_max ~delta:delta_max ~k ~delta_slack
      in
      if adv.epsilon < sequential.epsilon then adv else sequential

  let equal_window a b =
    a.horizon = b.horizon && equal a.limit b.limit && a.current = b.current
    && charges a = charges b

  let to_json t =
    let epochs =
      List.map
        (fun (e, cost) ->
          J.Obj [ ("epoch", J.Int e); ("cost", to_json cost) ])
        (charges t)
    in
    let next =
      match next_expiry t with
      | None -> J.Null
      | Some (e, cost) ->
          J.Obj [ ("epoch", J.Int e); ("refund", to_json cost) ]
    in
    J.Obj
      [
        ("horizon", J.Int t.horizon);
        ("epoch", J.Int t.current);
        ("limit", to_json t.limit);
        ("spent", to_json (spent t));
        ("balance", to_json (balance t));
        ("epochs", J.List epochs);
        ("nextRefund", next);
      ]

  let pp fmt t =
    Format.fprintf fmt "window(epoch=%d, horizon=%d, spent=%a of %a)" t.current
      t.horizon pp (spent t) pp t.limit

  (* Shadow the outer names under the conventional ones now that the
     implementation above no longer needs the scalar versions. *)
  let can_afford = window_can_afford
  let equal = equal_window
end
