type params = {
  n : int;
  q_primes : int list;
  t : int;
  sigma : float;
}

(* NTT-friendly primes: 119*2^23+1 and 45*2^24+1. *)
let prime_a = 998244353
let prime_b = 754974721

let find_plaintext_modulus ~n ~min_t =
  let step = 2 * n in
  let rec go t = if t >= min_t && Field.is_prime t then t else go (t + step) in
  go (step + 1)

let validate p =
  if p.n <= 0 || p.n land (p.n - 1) <> 0 then
    invalid_arg "Bgv: n must be a power of two";
  List.iter
    (fun q ->
      if not (Field.is_prime q) then invalid_arg "Bgv: q prime expected";
      if (q - 1) mod (2 * p.n) <> 0 then invalid_arg "Bgv: q not NTT-friendly")
    p.q_primes;
  if p.q_primes = [] || List.length p.q_primes > 2 then
    invalid_arg "Bgv: 1 or 2 ciphertext primes supported";
  if not (Field.is_prime p.t) then invalid_arg "Bgv: t must be prime";
  if (p.t - 1) mod (2 * p.n) <> 0 then
    invalid_arg "Bgv: t must be 1 mod 2n for slot packing";
  if p.sigma <= 0.0 then invalid_arg "Bgv: sigma must be positive"

let ahe_params ?(n = 2048) ?(min_t = 12289) () =
  let p =
    { n; q_primes = [ prime_a ]; t = find_plaintext_modulus ~n ~min_t; sigma = 3.2 }
  in
  validate p;
  p

let fhe_params ?(n = 2048) ?(min_t = 12289) () =
  let p =
    {
      n;
      q_primes = [ prime_a; prime_b ];
      t = find_plaintext_modulus ~n ~min_t;
      sigma = 3.2;
    }
  in
  validate p;
  p

(* Per-domain scratch buffers so the per-ciphertext steady state of
   encrypt/decrypt/relinearize/serialize allocates nothing beyond its
   result. Domain-local (not ctx-global mutable state) because Exec fans
   device encryption out over OCaml domains sharing one ctx. *)
type workspace = {
  w_u : int array array; (* nprimes x n: u in evaluation form during encrypt *)
  w_phase : int array array; (* nprimes x n: decrypt phase accumulators *)
  w_small : int array; (* n: general coeff-domain staging *)
  w_digit : int array; (* n: relin/galois digit in coefficient form *)
}

let scratch_words = Atomic.make 0

(* Cached per-params machinery: fields, NTT plans, CRT constants. *)
type ctx = {
  params : params;
  fields : Field.t array;
  plans : Ntt.plan array;
  pt_field : Field.t;
  pt_plan : Ntt.plan;
  q_total : int; (* product of primes; fits: both primes < 2^30.9 *)
  crt_inv : int; (* q1^-1 mod q2 when two primes *)
  log2_q : float;
  wk : workspace Domain.DLS.key;
}

let ctx_cache : (params, ctx) Hashtbl.t = Hashtbl.create 8

let ctx_of params =
  match Hashtbl.find_opt ctx_cache params with
  | Some c -> c
  | None ->
      validate params;
      let primes = Array.of_list params.q_primes in
      let fields = Array.map Field.create_unchecked primes in
      let plans = Array.map (fun q -> Ntt.plan ~n:params.n ~p:q) primes in
      let pt_field = Field.create_unchecked params.t in
      let pt_plan = Ntt.plan ~n:params.n ~p:params.t in
      let q_total = Array.fold_left ( * ) 1 primes in
      let crt_inv =
        if Array.length primes = 2 then Field.inv fields.(1) (primes.(0) mod primes.(1))
        else 0
      in
      let log2_q = Array.fold_left (fun a q -> a +. Float.log2 (float_of_int q)) 0.0 primes in
      let n = params.n and np = Array.length primes in
      (* Counted once per context (the per-workspace footprint), not per
         domain: every worker domain materializes its own DLS copy, and a
         per-instantiation count would make the gauge — and hence the
         deterministic metrics bytes — depend on the worker count. *)
      ignore (Atomic.fetch_and_add scratch_words (((2 * np) + 2) * n));
      let wk =
        Domain.DLS.new_key (fun () ->
            {
              w_u = Array.init np (fun _ -> Array.make n 0);
              w_phase = Array.init np (fun _ -> Array.make n 0);
              w_small = Array.make n 0;
              w_digit = Array.make n 0;
            })
      in
      let c =
        { params; fields; plans; pt_field; pt_plan; q_total; crt_inv; log2_q; wk }
      in
      Hashtbl.replace ctx_cache params c;
      c

let workspace ctx = Domain.DLS.get ctx.wk

(* An element of R_q in RNS form: one array per prime, always in
   evaluation (NTT) form. Everything — ciphertexts, public keys,
   relin/galois keys, secret-key shares — is held in that form end-to-end,
   so homomorphic add stays a coefficient-wise map and mul/relinearize
   become pointwise products with no redundant transforms. Coefficient
   form appears only transiently, in scratch arrays, at the encode/decode,
   serialize, galois and relin-digit boundaries (DESIGN.md §10). *)
type rq = { rs : int array array }

type secret_key = { sk_ctx : ctx; s : rq }
type public_key = { pk_ctx : ctx; pk_a : rq; pk_b : rq }
type relin_key = { rk_ctx : ctx; rk : (rq * rq) array (* per digit: (b, a) *) }

type ciphertext = {
  ct_ctx : ctx;
  cs : rq array; (* c0, c1 [, c2] *)
  noise_bits : float; (* log2 estimate of |m + t*e - m| = |t*e| *)
}

let ciphertext_degree ct = Array.length ct.cs - 1

let ciphertext_bytes p degree =
  (degree + 1) * List.length p.q_primes * p.n * 4

let public_key_bytes p = 2 * List.length p.q_primes * p.n * 4

let noise_budget_bits ct = ct.ct_ctx.log2_q -. 1.0 -. ct.noise_bits

(* --- small-integer polynomials, reduced consistently into every prime --- *)

(* Reduce a small signed coefficient vector into every prime and transform
   to evaluation form. *)
let reduce_small_eval ctx (small : int array) : rq =
  let rs =
    Array.mapi
      (fun j fld ->
        let v = Array.map (Field.of_int fld) small in
        Ntt.forward ctx.plans.(j) v;
        v)
      ctx.fields
  in
  { rs }

let sample_ternary ctx rng =
  Array.init ctx.params.n (fun _ -> Arb_util.Rng.int rng 3 - 1)

let sample_error ctx rng =
  Array.init ctx.params.n (fun _ ->
      int_of_float (Float.round (Arb_util.Rng.gaussian rng ~sigma:ctx.params.sigma)))

let rq_add_into ctx ~(dst : rq) (a : rq) (b : rq) =
  Array.iteri
    (fun j fld -> Poly.add_into fld ~dst:dst.rs.(j) a.rs.(j) b.rs.(j))
    ctx.fields

let rq_fresh ctx = { rs = Array.map (fun _ -> Array.make ctx.params.n 0) ctx.fields }

let rq_add ctx a b =
  let dst = rq_fresh ctx in
  rq_add_into ctx ~dst a b;
  dst

let rq_sub ctx a b =
  let dst = rq_fresh ctx in
  Array.iteri
    (fun j fld -> Poly.sub_into fld ~dst:dst.rs.(j) a.rs.(j) b.rs.(j))
    ctx.fields;
  dst

(* Pointwise product of evaluation-form elements — the whole point of the
   representation: ring multiplication with no transforms. *)
let rq_mul_eval ctx a b =
  let dst = rq_fresh ctx in
  Array.iteri
    (fun j plan -> Ntt.pointwise_into plan ~dst:dst.rs.(j) a.rs.(j) b.rs.(j))
    ctx.plans;
  dst

(* Uniform draws interpreted directly as evaluation-form residues: the
   uniform distribution on R_q is domain-independent, and the draw count
   and order match the seed implementation exactly. *)
let rq_uniform ctx rng : rq =
  {
    rs = Array.map (fun fld -> Poly.random_uniform fld rng ctx.params.n) ctx.fields;
  }

let rq_zero ctx : rq = rq_fresh ctx

(* --- plaintext slot encoding: NTT over Z_t --- *)

let encode ctx (slots : int array) : int array =
  if Array.length slots > ctx.params.n then invalid_arg "Bgv.encode: too many slots";
  let v =
    Array.init ctx.params.n (fun i ->
        if i < Array.length slots then Field.of_int ctx.pt_field slots.(i) else 0)
  in
  Ntt.inverse ctx.pt_plan v;
  v

let decode ctx (coeffs : int array) : int array =
  let v = Array.copy coeffs in
  Ntt.forward ctx.pt_plan v;
  v

(* --- noise bookkeeping (log2 of the |t*e| deviation) --- *)

let log2f x = Float.log2 (max x 1.0)

let fresh_noise_bits ctx =
  let n = float_of_int ctx.params.n and t = float_of_int ctx.params.t in
  (* e1 + e2*s - e*u: two small-by-small products, probabilistic bound. *)
  log2f (t *. ctx.params.sigma *. ((2.0 *. sqrt n) +. 3.0)) +. 1.0

(* --- key generation --- *)

(* b = -(a (.) s) - t*e + extra, in evaluation form, where [extra] (if any)
   is added only at digit prime [at]. Shared by keygen / relin_keygen /
   galois_keygen. *)
let masked_key_poly ctx ~a ~s ~e ?extra ~at () =
  let t = ctx.params.t in
  let rs =
    Array.init (Array.length ctx.fields) (fun j ->
        let fld = ctx.fields.(j) and plan = ctx.plans.(j) in
        let dst = Array.make ctx.params.n 0 in
        Ntt.pointwise_into plan ~dst a.rs.(j) s.rs.(j);
        let tm = Field.of_int fld t in
        for i = 0 to ctx.params.n - 1 do
          dst.(i) <-
            Field.sub fld (Field.neg fld dst.(i)) (Field.mul fld tm e.rs.(j).(i))
        done;
        (match extra with
        | Some x when j = at -> Poly.add_into fld ~dst dst x.rs.(j)
        | _ -> ());
        dst)
  in
  { rs }

let keygen params rng =
  let ctx = ctx_of params in
  let s_small = sample_ternary ctx rng in
  let s = reduce_small_eval ctx s_small in
  let e = reduce_small_eval ctx (sample_error ctx rng) in
  let a = rq_uniform ctx rng in
  (* b = -(a*s) - t*e *)
  let b = masked_key_poly ctx ~a ~s ~e ~at:(-1) () in
  ({ sk_ctx = ctx; s }, { pk_ctx = ctx; pk_a = a; pk_b = b })

(* --- encryption ---

   Split into randomness sampling (sequential, preserves the shared-RNG
   draw order: u then e1 then e2) and a deterministic compute half, so the
   runtime can sample for a whole device cohort in canonical order and fan
   the arithmetic out over domains with byte-identical results. *)

type encrypt_randomness = {
  r_u : int array; (* ternary *)
  r_e1 : int array; (* rounded Gaussian *)
  r_e2 : int array;
}

let sample_encrypt_randomness pk rng =
  let ctx = pk.pk_ctx in
  let r_u = sample_ternary ctx rng in
  let r_e1 = sample_error ctx rng in
  let r_e2 = sample_error ctx rng in
  { r_u; r_e1; r_e2 }

let encrypt_with_randomness pk r slots =
  let ctx = pk.pk_ctx in
  let ws = workspace ctx in
  let n = ctx.params.n and t = ctx.params.t in
  let nprimes = Array.length ctx.fields in
  let m = encode ctx slots in
  (* u in evaluation form, once per prime, reused by both components. *)
  for j = 0 to nprimes - 1 do
    let fld = ctx.fields.(j) and dst = ws.w_u.(j) in
    for i = 0 to n - 1 do
      dst.(i) <- Field.of_int fld r.r_u.(i)
    done;
    Ntt.forward ctx.plans.(j) dst
  done;
  let c0 = rq_fresh ctx and c1 = rq_fresh ctx in
  for j = 0 to nprimes - 1 do
    let fld = ctx.fields.(j) and plan = ctx.plans.(j) in
    let s = ws.w_small in
    (* c0 = pk_b (.) u + NTT(t*e1 + m) *)
    for i = 0 to n - 1 do
      s.(i) <-
        Field.add fld
          (Field.of_int fld (t * r.r_e1.(i)))
          (Field.of_int fld m.(i))
    done;
    Ntt.forward plan s;
    Ntt.pointwise_into plan ~dst:c0.rs.(j) pk.pk_b.rs.(j) ws.w_u.(j);
    Poly.add_into fld ~dst:c0.rs.(j) c0.rs.(j) s;
    (* c1 = pk_a (.) u + NTT(t*e2) *)
    for i = 0 to n - 1 do
      s.(i) <- Field.of_int fld (t * r.r_e2.(i))
    done;
    Ntt.forward plan s;
    Ntt.pointwise_into plan ~dst:c1.rs.(j) pk.pk_a.rs.(j) ws.w_u.(j);
    Poly.add_into fld ~dst:c1.rs.(j) c1.rs.(j) s
  done;
  { ct_ctx = ctx; cs = [| c0; c1 |]; noise_bits = fresh_noise_bits ctx }

let encrypt pk rng slots =
  encrypt_with_randomness pk (sample_encrypt_randomness pk rng) slots

let encrypt_with_sk sk rng slots =
  let ctx = sk.sk_ctx in
  let m = reduce_small_eval ctx (encode ctx slots) in
  let e = reduce_small_eval ctx (sample_error ctx rng) in
  let a = rq_uniform ctx rng in
  let t = ctx.params.t in
  (* c0 = -(a*s) - t*e + m ; c1 = a  -> c0 + c1*s = m - t*e *)
  let c0 = rq_add ctx (masked_key_poly ctx ~a ~s:sk.s ~e ~at:(-1) ()) m in
  {
    ct_ctx = ctx;
    cs = [| c0; a |];
    noise_bits = log2f (float_of_int t *. ctx.params.sigma *. 3.0) +. 1.0;
  }

(* --- CRT lift of a full RNS value to a centered integer, then mod t --- *)

let lift_centered_mod_t ctx (residues : int array) : int =
  let q = ctx.q_total in
  let x =
    match Array.length ctx.fields with
    | 1 -> residues.(0)
    | 2 ->
        let q1 = (ctx.fields.(0)).Field.p in
        let f2 = ctx.fields.(1) in
        let d = Field.sub f2 residues.(1) (residues.(0) mod f2.Field.p) in
        residues.(0) + (q1 * Field.mul f2 d ctx.crt_inv)
    | _ -> assert false
  in
  let centered = if x > q / 2 then x - q else x in
  let t = ctx.params.t in
  ((centered mod t) + t) mod t

let decrypt sk ct =
  let ctx = sk.sk_ctx in
  let ws = workspace ctx in
  let nprimes = Array.length ctx.fields in
  let deg = Array.length ct.cs - 1 in
  (* phase = c0 + c1*s + c2*s^2: pointwise accumulation in evaluation form,
     one inverse transform per prime at the end. *)
  for j = 0 to nprimes - 1 do
    let plan = ctx.plans.(j) in
    let acc = ws.w_phase.(j) in
    Array.blit ct.cs.(0).rs.(j) 0 acc 0 ctx.params.n;
    let spow = ws.w_small in
    Array.blit sk.s.rs.(j) 0 spow 0 ctx.params.n;
    for d = 1 to deg do
      Ntt.pointwise_add_into plan ~dst:acc ct.cs.(d).rs.(j) spow;
      if d < deg then Ntt.pointwise_into plan ~dst:spow spow sk.s.rs.(j)
    done;
    Ntt.inverse plan acc
  done;
  let coeffs =
    Array.init ctx.params.n (fun i ->
        lift_centered_mod_t ctx (Array.init nprimes (fun j -> ws.w_phase.(j).(i))))
  in
  decode ctx coeffs

(* --- homomorphic operations --- *)

let check_same a b =
  if a.ct_ctx != b.ct_ctx then invalid_arg "Bgv: mismatched parameters"

(* Noise of a sum is the sum of noises: combine the log2 estimates with a
   log-sum-exp so that long chains of additions are tracked accurately. *)
let add_noise_bits a b =
  let ln2 = Float.log 2.0 in
  Arb_util.Stats.log_sum_exp (a *. ln2) (b *. ln2) /. ln2

let add a b =
  check_same a b;
  let ctx = a.ct_ctx in
  let deg = max (Array.length a.cs) (Array.length b.cs) in
  let get ct i = if i < Array.length ct.cs then ct.cs.(i) else rq_zero ctx in
  {
    ct_ctx = ctx;
    cs = Array.init deg (fun i -> rq_add ctx (get a i) (get b i));
    noise_bits = add_noise_bits a.noise_bits b.noise_bits;
  }

(* In-place accumulation for long aggregation folds: reuses [a]'s
   coefficient storage (only the small record is fresh), so the
   aggregator's steady state allocates nothing per addition. [a] must not
   be used again by the caller. Falls back to {!add} on degree mismatch. *)
let accumulate a b =
  check_same a b;
  if Array.length a.cs <> Array.length b.cs then add a b
  else begin
    let ctx = a.ct_ctx in
    Array.iteri (fun i ai -> rq_add_into ctx ~dst:ai ai b.cs.(i)) a.cs;
    { a with noise_bits = add_noise_bits a.noise_bits b.noise_bits }
  end

let sub a b =
  check_same a b;
  let ctx = a.ct_ctx in
  let deg = max (Array.length a.cs) (Array.length b.cs) in
  let get ct i = if i < Array.length ct.cs then ct.cs.(i) else rq_zero ctx in
  {
    ct_ctx = ctx;
    cs = Array.init deg (fun i -> rq_sub ctx (get a i) (get b i));
    noise_bits = add_noise_bits a.noise_bits b.noise_bits;
  }

let mul_plain ct slots =
  let ctx = ct.ct_ctx in
  let m = reduce_small_eval ctx (encode ctx slots) in
  let t = float_of_int ctx.params.t and n = float_of_int ctx.params.n in
  {
    ct_ctx = ctx;
    cs = Array.map (fun c -> rq_mul_eval ctx c m) ct.cs;
    noise_bits = ct.noise_bits +. log2f t +. (0.5 *. log2f n) +. 1.0;
  }

let mul a b =
  check_same a b;
  if ciphertext_degree a <> 1 || ciphertext_degree b <> 1 then
    invalid_arg "Bgv.mul: inputs must be degree-1 ciphertexts";
  let ctx = a.ct_ctx in
  (* Pure pointwise tensor: no transforms at all in evaluation form. *)
  let c0 = rq_mul_eval ctx a.cs.(0) b.cs.(0) in
  let c1 = rq_mul_eval ctx a.cs.(0) b.cs.(1) in
  Array.iteri
    (fun j plan ->
      Ntt.pointwise_add_into plan ~dst:c1.rs.(j) a.cs.(1).rs.(j) b.cs.(0).rs.(j))
    ctx.plans;
  let c2 = rq_mul_eval ctx a.cs.(1) b.cs.(1) in
  let t = log2f (float_of_int ctx.params.t) in
  let half_n = 0.5 *. log2f (float_of_int ctx.params.n) in
  let nb =
    List.fold_left max neg_infinity
      [
        a.noise_bits +. b.noise_bits +. half_n -. t;
        a.noise_bits +. t +. half_n;
        b.noise_bits +. t +. half_n;
      ]
    +. 2.0
  in
  { ct_ctx = ctx; cs = [| c0; c1; c2 |]; noise_bits = nb }

(* --- relinearization: RNS-gadget key switching --- *)

let relin_keygen params rng sk =
  let ctx = ctx_of params in
  let nprimes = Array.length ctx.fields in
  let s2 = rq_mul_eval ctx sk.s sk.s in
  let rk =
    Array.init nprimes (fun j ->
        let a = rq_uniform ctx rng in
        let e = reduce_small_eval ctx (sample_error ctx rng) in
        (* b = -(a*s) - t*e + qtilde_j * s^2, where qtilde_j is the CRT basis
           element: 1 mod q_j, 0 mod the others. In RNS that means adding
           s^2's residue only at prime j. *)
        let b = masked_key_poly ctx ~a ~s:sk.s ~e ~extra:s2 ~at:j () in
        (b, a))
  in
  { rk_ctx = ctx; rk }

(* Key-switch the digits of [src] through the per-digit key pairs,
   accumulating b-parts into [acc0] and a-parts into [acc1].
   Digit j is src's coefficient-form residue at prime j promoted into every
   prime: one inverse transform recovers it, and at prime j itself the
   promotion is the identity, so src's residue is reused untransformed. *)
let key_switch_digits ctx ws ~keys ~src ~acc0 ~acc1 =
  let nprimes = Array.length ctx.fields in
  let n = ctx.params.n in
  for j = 0 to nprimes - 1 do
    let dig = ws.w_digit in
    Array.blit src.rs.(j) 0 dig 0 n;
    Ntt.inverse ctx.plans.(j) dig;
    let b, a = keys.(j) in
    for k = 0 to nprimes - 1 do
      let dig_eval =
        if k = j then src.rs.(j) (* NTT(INTT(x)) = x *)
        else begin
          let fld = ctx.fields.(k) and s = ws.w_small in
          for i = 0 to n - 1 do
            s.(i) <- Field.of_int fld dig.(i)
          done;
          Ntt.forward ctx.plans.(k) s;
          s
        end
      in
      Ntt.pointwise_add_into ctx.plans.(k) ~dst:acc0.rs.(k) dig_eval b.rs.(k);
      Ntt.pointwise_add_into ctx.plans.(k) ~dst:acc1.rs.(k) dig_eval a.rs.(k)
    done
  done

let switch_noise ctx =
  (* sum over digits of (digit * t * e): digit coeffs < q_j ~ 2^30. *)
  30.0 +. log2f (float_of_int ctx.params.t)
  +. log2f (ctx.params.sigma *. float_of_int ctx.params.n)
  +. log2f (float_of_int (Array.length ctx.fields))

let relinearize rk ct =
  if ciphertext_degree ct <> 2 then invalid_arg "Bgv.relinearize: degree-2 expected";
  let ctx = ct.ct_ctx in
  if rk.rk_ctx != ctx then invalid_arg "Bgv.relinearize: mismatched parameters";
  let ws = workspace ctx in
  let c0 = { rs = Array.map Array.copy ct.cs.(0).rs }
  and c1 = { rs = Array.map Array.copy ct.cs.(1).rs } in
  key_switch_digits ctx ws ~keys:rk.rk ~src:ct.cs.(2) ~acc0:c0 ~acc1:c1;
  {
    ct_ctx = ctx;
    cs = [| c0; c1 |];
    noise_bits = add_noise_bits ct.noise_bits (switch_noise ctx);
  }

(* --- threshold decryption --- *)

let share_secret_key params rng sk ~parties =
  let ctx = ctx_of params in
  if parties < 1 then invalid_arg "Bgv.share_secret_key";
  let shares =
    Array.init (parties - 1) (fun _ -> rq_uniform ctx rng)
  in
  let sum =
    Array.fold_left (fun acc sh -> rq_add ctx acc sh) (rq_zero ctx) shares
  in
  let last = rq_sub ctx sk.s sum in
  Array.append shares [| last |]
  |> Array.map (fun s -> { sk_ctx = ctx; s })

let partial_decrypt params rng share ct =
  let ctx = ctx_of params in
  if ciphertext_degree ct <> 1 then
    invalid_arg "Bgv.partial_decrypt: degree-1 ciphertext required";
  (* d_i = c1 * s_i + t * e_smudge, per prime, CRT-consistent noise. *)
  let smudge = reduce_small_eval ctx (sample_error ctx rng) in
  let t = ctx.params.t in
  let d =
    Array.init (Array.length ctx.fields) (fun j ->
        let fld = ctx.fields.(j) and plan = ctx.plans.(j) in
        let dst = Array.make ctx.params.n 0 in
        Ntt.pointwise_into plan ~dst ct.cs.(1).rs.(j) share.s.rs.(j);
        let tm = Field.of_int fld t in
        for i = 0 to ctx.params.n - 1 do
          dst.(i) <- Field.add fld dst.(i) (Field.mul fld tm smudge.rs.(j).(i))
        done;
        dst)
  in
  Array.to_list d

let combine_partials params ct partials =
  let ctx = ctx_of params in
  let nprimes = Array.length ctx.fields in
  let acc = Array.init nprimes (fun j -> Array.copy ct.cs.(0).rs.(j)) in
  List.iter
    (fun partial ->
      List.iteri
        (fun j dj -> Poly.add_into ctx.fields.(j) ~dst:acc.(j) acc.(j) dj)
        partial)
    partials;
  Array.iteri (fun j a -> Ntt.inverse ctx.plans.(j) a) acc;
  let coeffs =
    Array.init ctx.params.n (fun i ->
        lift_centered_mod_t ctx (Array.init nprimes (fun j -> acc.(j).(i))))
  in
  decode ctx coeffs

(* --- Galois automorphisms and slot rotations --- *)

(* a(x) -> a(x^k) in Z_p[x]/(x^n+1): coefficient i lands at i*k mod 2n,
   negated when the exponent wraps past n. *)
let galois_poly fld n k (a : int array) =
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    let e = i * k mod (2 * n) in
    if e < n then out.(e) <- Field.add fld out.(e) a.(i)
    else out.(e - n) <- Field.sub fld out.(e - n) a.(i)
  done;
  out

(* Evaluation-form galois: through the coefficient domain (the automorphism
   is a coefficient permutation with signs). Cold path — key setup and
   rotations only. *)
let rq_galois ctx k (a : rq) : rq =
  let rs =
    Array.mapi
      (fun j aj ->
        let c = Array.copy aj in
        Ntt.inverse ctx.plans.(j) c;
        let g = galois_poly ctx.fields.(j) ctx.params.n k c in
        Ntt.forward ctx.plans.(j) g;
        g)
      a.rs
  in
  { rs }

(* The generator of the slot-rotation subgroup for power-of-two
   cyclotomics. *)
let rotation_generator _params = 3

type galois_key = { gk_ctx : ctx; gk_k : int; gk : (rq * rq) array }

let galois_keygen params rng sk ~k =
  if k land 1 = 0 then invalid_arg "Bgv.galois_keygen: k must be odd";
  let ctx = ctx_of params in
  let sk_gal = rq_galois ctx k sk.s in
  let nprimes = Array.length ctx.fields in
  let gk =
    Array.init nprimes (fun j ->
        let a = rq_uniform ctx rng in
        let e = reduce_small_eval ctx (sample_error ctx rng) in
        (* b = -(a*s) - t*e + qtilde_j * s(x^k) (cf. relin_keygen). *)
        let b = masked_key_poly ctx ~a ~s:sk.s ~e ~extra:sk_gal ~at:j () in
        (b, a))
  in
  { gk_ctx = ctx; gk_k = k; gk }

let apply_galois gkey ct =
  let ctx = ct.ct_ctx in
  if gkey.gk_ctx != ctx then invalid_arg "Bgv.apply_galois: mismatched parameters";
  if ciphertext_degree ct <> 1 then
    invalid_arg "Bgv.apply_galois: degree-1 ciphertext required";
  let ws = workspace ctx in
  let k = gkey.gk_k in
  let c0g = rq_galois ctx k ct.cs.(0) in
  let c1g = rq_galois ctx k ct.cs.(1) in
  (* Key-switch c1g from s(x^k) back to s with the RNS gadget. *)
  let c1 = rq_zero ctx in
  key_switch_digits ctx ws ~keys:gkey.gk ~src:c1g ~acc0:c0g ~acc1:c1;
  {
    ct_ctx = ctx;
    cs = [| c0g; c1 |];
    noise_bits = add_noise_bits ct.noise_bits (switch_noise ctx);
  }

(* The slot permutation a Galois map induces, derived empirically from the
   plaintext encoding (cached per (params, k)). slot i of the input appears
   at position perm.(i) of the output. *)
let slot_perm_cache : (params * int, int array) Hashtbl.t = Hashtbl.create 8

let slot_rotation_of_galois params ~k =
  match Hashtbl.find_opt slot_perm_cache (params, k) with
  | Some p -> p
  | None ->
      let ctx = ctx_of params in
      let n = params.n in
      let perm = Array.make n (-1) in
      (* sigma_k on an encoded basis vector moves exactly one slot; track
         all n at once by encoding slot i with value i+1. *)
      let slots = Array.init n (fun i -> (i + 1) mod params.t) in
      let m = encode ctx slots in
      let m' = galois_poly ctx.pt_field n k m in
      let slots' = decode ctx m' in
      Array.iteri
        (fun pos v ->
          let v = ((v mod params.t) + params.t) mod params.t in
          if v >= 1 && v <= n then perm.(v - 1) <- pos)
        slots';
      Hashtbl.replace slot_perm_cache (params, k) perm;
      perm

(* --- serialization --- *)

(* Wire format: [degree:u8][n:u32][primes:u8][t:u32] then, per component
   polynomial and per RNS prime, n little-endian u32 coefficients in
   canonical COEFFICIENT form — evaluation-form components are inverse-
   transformed on the way out (and forward-transformed on the way in), so
   the bytes are identical to the seed's coefficient-form wire format. The
   size matches [ciphertext_bytes] up to the 14-byte header. *)

let header_bytes = 14

let serialize_ciphertext ct =
  let ctx = ct.ct_ctx in
  let ws = workspace ctx in
  let n = ctx.params.n in
  let nprimes = Array.length ctx.fields in
  let degree = ciphertext_degree ct in
  let buf = Buffer.create (header_bytes + ((degree + 1) * nprimes * n * 4)) in
  Buffer.add_uint8 buf degree;
  Buffer.add_int32_le buf (Int32.of_int n);
  Buffer.add_uint8 buf nprimes;
  Buffer.add_int32_le buf (Int32.of_int ctx.params.t);
  (* Noise estimate travels too (it is bookkeeping, not secret). *)
  let noise_q = int_of_float (ct.noise_bits *. 256.0) in
  Buffer.add_int32_le buf (Int32.of_int noise_q);
  Array.iter
    (fun (comp : rq) ->
      Array.iteri
        (fun j poly ->
          let c = ws.w_small in
          Array.blit poly 0 c 0 n;
          Ntt.inverse ctx.plans.(j) c;
          Array.iter (fun x -> Buffer.add_int32_le buf (Int32.of_int x)) c)
        comp.rs)
    ct.cs;
  Buffer.contents buf

(* Canonical coefficient-form rendering of a public key: [n:u32][primes:u8]
   [t:u32] then a's and b's residue polynomials as little-endian u32
   coefficients. Representation-independent — used for certificate
   digests. *)
let serialize_public_key pk =
  let ctx = pk.pk_ctx in
  let ws = workspace ctx in
  let n = ctx.params.n in
  let nprimes = Array.length ctx.fields in
  let buf = Buffer.create (9 + (2 * nprimes * n * 4)) in
  Buffer.add_int32_le buf (Int32.of_int n);
  Buffer.add_uint8 buf nprimes;
  Buffer.add_int32_le buf (Int32.of_int ctx.params.t);
  List.iter
    (fun (comp : rq) ->
      Array.iteri
        (fun j poly ->
          let c = ws.w_small in
          Array.blit poly 0 c 0 n;
          Ntt.inverse ctx.plans.(j) c;
          Array.iter (fun x -> Buffer.add_int32_le buf (Int32.of_int x)) c)
        comp.rs)
    [ pk.pk_a; pk.pk_b ];
  Buffer.contents buf

let deserialize_ciphertext params s =
  let ctx = ctx_of params in
  let pos = ref 0 in
  let u8 () =
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u32 () =
    let v = Int32.to_int (String.get_int32_le s !pos) in
    pos := !pos + 4;
    v
  in
  (try
     let degree = u8 () in
     let n = u32 () in
     let nprimes = u8 () in
     let t = u32 () in
     if n <> params.n || nprimes <> Array.length ctx.fields || t <> params.t then
       invalid_arg "Bgv.deserialize_ciphertext: parameter mismatch";
     let noise_q = u32 () in
     let expected = header_bytes + ((degree + 1) * nprimes * n * 4) in
     if String.length s <> expected then
       invalid_arg "Bgv.deserialize_ciphertext: truncated";
     let css =
       Array.init (degree + 1) (fun _ ->
           Array.init nprimes (fun _ -> Array.init n (fun _ -> u32 ())))
     in
     (* Canonicality: every coefficient reduced mod its prime. *)
     Array.iter
       (fun comp ->
         Array.iteri
           (fun j poly ->
             Array.iter
               (fun c ->
                 if c < 0 || c >= ctx.fields.(j).Field.p then
                   invalid_arg "Bgv.deserialize_ciphertext: non-canonical coefficient")
               poly)
           comp)
       css;
     let cs =
       Array.map
         (fun comp ->
           Array.iteri (fun j poly -> Ntt.forward ctx.plans.(j) poly) comp;
           { rs = comp })
         css
     in
     { ct_ctx = ctx; cs; noise_bits = float_of_int noise_q /. 256.0 }
   with Invalid_argument m when m = "index out of bounds" ->
     invalid_arg "Bgv.deserialize_ciphertext: truncated")

let serialized_bytes params degree = header_bytes + ciphertext_bytes params degree

(* Allocation gauge exported as arb_crypto_scratch_words by the runtime. *)
let scratch_words_allocated () = Atomic.get scratch_words
