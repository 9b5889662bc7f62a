module Rng = Arb_util.Rng

let laplace_sample rng ~scale = Rng.laplace rng ~scale
let gumbel_sample rng ~scale = Rng.gumbel rng ~scale

let laplace rng ~epsilon ~sensitivity v =
  if epsilon <= 0.0 then invalid_arg "Mechanisms.laplace: epsilon <= 0";
  v +. laplace_sample rng ~scale:(sensitivity /. epsilon)

let argmax_float (a : float array) =
  if Array.length a = 0 then invalid_arg "Mechanisms: empty scores";
  let best = ref 0 in
  Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
  !best

let exponential_gumbel rng ~epsilon ~sensitivity scores =
  if epsilon <= 0.0 then invalid_arg "Mechanisms.exponential_gumbel: epsilon <= 0";
  let scale = 2.0 *. sensitivity /. epsilon in
  argmax_float (Array.map (fun s -> s +. gumbel_sample rng ~scale) scores)

let exponential_sample rng ~epsilon ~sensitivity scores =
  if epsilon <= 0.0 then invalid_arg "Mechanisms.exponential_sample: epsilon <= 0";
  let n = Array.length scores in
  if n = 0 then invalid_arg "Mechanisms.exponential_sample: empty scores";
  let k = epsilon /. (2.0 *. sensitivity) in
  let m = Array.fold_left Float.max neg_infinity scores in
  (* 16-bit window below the max, as in Fig. 4 (left): scores further than
     window/k below the max get weight 0 (contributes the small delta). *)
  let window = 16.0 *. Float.log 2.0 /. k in
  let weights =
    Array.map
      (fun s -> if s < m -. window then 0.0 else exp (k *. (s -. m)))
      scores
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let r = Rng.float rng total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if r < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let top_k rng ~epsilon ~sensitivity ~k ?(fresh_noise = true) scores =
  if k <= 0 || k > Array.length scores then invalid_arg "Mechanisms.top_k";
  if fresh_noise then begin
    (* k rounds of noisy argmax, masking previous winners. *)
    let masked = Array.copy scores in
    Array.init k (fun _ ->
        let w = exponential_gumbel rng ~epsilon ~sensitivity masked in
        masked.(w) <- neg_infinity;
        w)
  end
  else begin
    let scale = 2.0 *. sensitivity /. epsilon in
    let noised =
      Array.mapi (fun i s -> (s +. gumbel_sample rng ~scale, i)) scores
    in
    Array.sort (fun (a, _) (b, _) -> Float.compare b a) noised;
    Array.init k (fun i -> snd noised.(i))
  end

let noisy_max_gap rng ~epsilon ~sensitivity scores =
  if Array.length scores < 2 then invalid_arg "Mechanisms.noisy_max_gap";
  let scale = 2.0 *. sensitivity /. epsilon in
  let noised = Array.map (fun s -> s +. gumbel_sample rng ~scale) scores in
  let best = argmax_float noised in
  let second = ref neg_infinity in
  Array.iteri (fun i v -> if i <> best && v > !second then second := v) noised;
  (best, noised.(best) -. !second)

let geometric rng ~epsilon ~sensitivity v =
  (* Discrete Laplace (two-sided geometric): P[k] proportional to
     alpha^|k| with alpha = exp(-eps/sens). Exact on integers, avoiding the
     floating-point pathologies of naive Laplace (Mironov 2012). *)
  if epsilon <= 0.0 then invalid_arg "Mechanisms.geometric: epsilon <= 0";
  let alpha = exp (-.epsilon /. sensitivity) in
  (* Standard construction: draw (sign, magnitude) and reject the duplicate
     (-, 0) outcome so that P[k] = (1-alpha)/(1+alpha) * alpha^|k| exactly —
     the naive "fold zero" shortcut overweights 0 and breaks the eps ratio
     at the origin. *)
  let rec draw () =
    let magnitude = Rng.geometric rng ~p:(1.0 -. alpha) in
    let positive = Rng.bool rng in
    if magnitude = 0 && not positive then draw ()
    else if magnitude = 0 then 0
    else if positive then magnitude
    else -magnitude
  in
  v + draw ()

let exponential_base2 rng ~epsilon ~sensitivity scores =
  (* Ilvento-style base-2 exponential mechanism (§6): all weights are
     computed as exact powers of two on the 30.16 fixpoint lattice —
     2^(k * (s - max)) with k = eps / (2 sens ln 2) — so the sampling
     probabilities are identical on every platform, sidestepping
     floating-point transcendental differences. *)
  if epsilon <= 0.0 then invalid_arg "Mechanisms.exponential_base2: epsilon <= 0";
  let n = Array.length scores in
  if n = 0 then invalid_arg "Mechanisms.exponential_base2: empty scores";
  let module Fx = Arb_util.Fixed in
  let k = epsilon /. (2.0 *. sensitivity *. Float.log 2.0) in
  let m = Array.fold_left Float.max neg_infinity scores in
  (* 16-bit window below the max, as in Fig. 4 left. *)
  let weights =
    Array.map
      (fun s ->
        let e = k *. (s -. m) in
        if e < -16.0 then Fx.zero else Fx.exp2 (Fx.of_float e))
      scores
  in
  let total =
    Array.fold_left (fun acc w -> acc + Fx.to_raw w) 0 weights
  in
  (* r uniform on the integer lattice [0, total). *)
  let r = Rng.int rng (max 1 total) in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc + Fx.to_raw weights.(i) in
      if r < acc then i else scan (i + 1) acc
  in
  scan 0 0
