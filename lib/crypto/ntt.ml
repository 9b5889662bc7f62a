type plan = {
  n : int;
  p : int;
  p2 : int; (* 2p: lazy-reduction bound used by the butterflies *)
  log2n : int;
  psi_rev : int array; (* powers of psi in bit-reversed order *)
  ipsi_rev : int array; (* powers of psi^-1 in bit-reversed order *)
  psi_rev_q : float array; (* psi_rev.(i) / p, Shoup-style twiddle ratios *)
  ipsi_rev_q : float array;
  n_inv : int;
  n_inv_q : float;
  inv_p : float;
}

(* Process-lifetime kernel counters, exported as arb_crypto_* metrics by
   the runtime (Trace.export). Bumped once per transform / vector op —
   never inside the butterfly loops. *)
module Stats = struct
  let transforms = Atomic.make 0
  let pointwise_ops = Atomic.make 0
  let reductions_saved = Atomic.make 0

  let get () =
    ( Atomic.get transforms,
      Atomic.get pointwise_ops,
      Atomic.get reductions_saved )
end

let bit_reverse bits x =
  let r = ref 0 in
  for i = 0 to bits - 1 do
    if x land (1 lsl i) <> 0 then r := !r lor (1 lsl (bits - 1 - i))
  done;
  !r

let plan ~n ~p =
  if n <= 0 || n land (n - 1) <> 0 then invalid_arg "Ntt.plan: n not a power of two";
  (* Reject moduli whose butterfly products would silently wrap. The plain
     (p-1)^2 bound covers the seed's canonical butterflies; the lazy
     butterflies below keep values in [0, 4p) and multiply them by
     twiddles < p, so they need the stronger 4p(p-1) <= max_int headroom,
     i.e. p <= 2^30. Every RNS / plaintext prime in this repository is
     below 2^30. Both checks are written division-style so the guard
     itself cannot overflow. *)
  if p > 2 && p - 1 > max_int / (p - 1) then
    invalid_arg "Ntt.plan: (p-1)^2 overflows 62 bits";
  if p > 1 lsl 30 then
    invalid_arg "Ntt.plan: p > 2^30 breaks lazy-reduction headroom";
  let f = Field.create p in
  if (p - 1) mod (2 * n) <> 0 then invalid_arg "Ntt.plan: 2n does not divide p-1";
  let psi = Field.root_of_unity f ~order:(2 * n) in
  let ipsi = Field.inv f psi in
  let bits =
    let rec go b v = if v = 1 then b else go (b + 1) (v lsr 1) in
    go 0 n
  in
  let powers root =
    let a = Array.make n 1 in
    for i = 1 to n - 1 do
      a.(i) <- Field.mul f a.(i - 1) root
    done;
    Array.init n (fun i -> a.(bit_reverse bits i))
  in
  let fp = float_of_int p in
  let ratios a = Array.map (fun w -> float_of_int w /. fp) a in
  let psi_rev = powers psi and ipsi_rev = powers ipsi in
  let n_inv = Field.inv f n in
  {
    n;
    p;
    p2 = 2 * p;
    log2n = bits;
    psi_rev;
    ipsi_rev;
    psi_rev_q = ratios psi_rev;
    ipsi_rev_q = ratios ipsi_rev;
    n_inv;
    n_inv_q = float_of_int n_inv /. fp;
    inv_p = 1.0 /. fp;
  }

let n t = t.n
let p t = t.p

(* The seed kernels did one hardware division per butterfly (n/2 per stage,
   log2 n stages) plus one per coefficient in the inverse's final scaling
   and pointwise products; the lazy kernels issue none. *)
let saved_per_transform t = t.n / 2 * t.log2n

let count_transform t extra =
  Atomic.incr Stats.transforms;
  ignore
    (Atomic.fetch_and_add Stats.reductions_saved (saved_per_transform t + extra))

(* --- Reference kernels (seed implementation, hardware `mod`) ---

   Kept verbatim as differential-test oracles. *)

let forward_reference t a =
  if Array.length a <> t.n then invalid_arg "Ntt.forward: wrong length";
  let p = t.p in
  let m = ref 1 and len = ref (t.n / 2) in
  while !len >= 1 do
    let m' = !m and l = !len in
    for i = 0 to m' - 1 do
      let w = t.psi_rev.(m' + i) in
      let j0 = 2 * i * l in
      for j = j0 to j0 + l - 1 do
        let u = a.(j) in
        let v = a.(j + l) * w mod p in
        let s = u + v in
        a.(j) <- (if s >= p then s - p else s);
        let d = u - v in
        a.(j + l) <- (if d < 0 then d + p else d)
      done
    done;
    m := m' * 2;
    len := l / 2
  done

let inverse_reference t a =
  if Array.length a <> t.n then invalid_arg "Ntt.inverse: wrong length";
  let p = t.p in
  let m = ref (t.n / 2) and len = ref 1 in
  while !m >= 1 do
    let m' = !m and l = !len in
    for i = 0 to m' - 1 do
      let w = t.ipsi_rev.(m' + i) in
      let j0 = 2 * i * l in
      for j = j0 to j0 + l - 1 do
        let u = a.(j) in
        let v = a.(j + l) in
        let s = u + v in
        a.(j) <- (if s >= p then s - p else s);
        let d = u - v in
        let d = if d < 0 then d + p else d in
        a.(j + l) <- d * w mod p
      done
    done;
    m := m' / 2;
    len := l * 2
  done;
  for j = 0 to t.n - 1 do
    a.(j) <- a.(j) * t.n_inv mod p
  done

let multiply_reference t a b =
  let a' = Array.copy a and b' = Array.copy b in
  forward_reference t a';
  forward_reference t b';
  let p = t.p in
  let c = Array.init t.n (fun i -> a'.(i) * b'.(i) mod p) in
  inverse_reference t c;
  c

(* --- Production kernels: Barrett twiddles + Harvey lazy reduction ---

   Forward: Cooley–Tukey decimation-in-time with merged psi twisting.
   Coefficients live in [0, 4p) between stages; each butterfly does one
   Barrett product against a precomputed float twiddle ratio (quotient
   estimate off by at most one, a single correction keeps the product in
   [0, 2p)) and defers the rest of the reduction. A final pass normalizes
   to the canonical [0, p), so results are bit-identical to the reference
   kernels. Overflow-safe because plan enforces p <= 2^30:
   v*w < 4p*p <= 2^62.

   Every correction is mask arithmetic, not a branch: whether a value
   needs one depends on the data, so a branch would be mispredicted about
   half the time. On a 63-bit int, [x asr 62] is all ones when x is
   negative and zero otherwise, so [x + (m land (x asr 62))] adds m
   exactly when x < 0; a test x >= m is made on x - m. *)
let[@inline] add_if_neg m x = x + (m land (x asr 62))

let forward t a =
  if Array.length a <> t.n then invalid_arg "Ntt.forward: wrong length";
  let p = t.p and p2 = t.p2 in
  let psi = t.psi_rev and psi_q = t.psi_rev_q in
  let m = ref 1 and len = ref (t.n / 2) in
  while !len >= 1 do
    let m' = !m and l = !len in
    for i = 0 to m' - 1 do
      let w = Array.unsafe_get psi (m' + i) in
      let wq = Array.unsafe_get psi_q (m' + i) in
      let j0 = 2 * i * l in
      for j = j0 to j0 + l - 1 do
        let u = add_if_neg p2 (Array.unsafe_get a j - p2) in
        let v = Array.unsafe_get a (j + l) in
        let q = int_of_float (float_of_int v *. wq) in
        let x = add_if_neg p ((v * w) - (q * p)) in
        Array.unsafe_set a j (u + x);
        Array.unsafe_set a (j + l) (u - x + p2)
      done
    done;
    m := m' * 2;
    len := l / 2
  done;
  for j = 0 to t.n - 1 do
    let x = add_if_neg p2 (Array.unsafe_get a j - p2) in
    Array.unsafe_set a j (add_if_neg p (x - p))
  done;
  count_transform t 0

(* Inverse: Gentleman–Sande decimation-in-frequency, values kept in
   [0, 2p) between stages; the 1/n scaling doubles as the final full
   reduction to canonical form. *)
let inverse t a =
  if Array.length a <> t.n then invalid_arg "Ntt.inverse: wrong length";
  let p = t.p and p2 = t.p2 in
  let ipsi = t.ipsi_rev and ipsi_q = t.ipsi_rev_q in
  let m = ref (t.n / 2) and len = ref 1 in
  while !m >= 1 do
    let m' = !m and l = !len in
    for i = 0 to m' - 1 do
      let w = Array.unsafe_get ipsi (m' + i) in
      let wq = Array.unsafe_get ipsi_q (m' + i) in
      let j0 = 2 * i * l in
      for j = j0 to j0 + l - 1 do
        let u = Array.unsafe_get a j in
        let v = Array.unsafe_get a (j + l) in
        Array.unsafe_set a j (add_if_neg p2 (u + v - p2));
        let d = u - v + p2 in
        let q = int_of_float (float_of_int d *. wq) in
        Array.unsafe_set a (j + l) (add_if_neg p ((d * w) - (q * p)))
      done
    done;
    m := m' / 2;
    len := l * 2
  done;
  let ninv = t.n_inv and ninv_q = t.n_inv_q in
  for j = 0 to t.n - 1 do
    let x = Array.unsafe_get a j in
    let q = int_of_float (float_of_int x *. ninv_q) in
    let r = add_if_neg p ((x * ninv) - (q * p)) in
    Array.unsafe_set a j (add_if_neg p (r - p))
  done;
  count_transform t t.n

let count_pointwise t =
  Atomic.incr Stats.pointwise_ops;
  ignore (Atomic.fetch_and_add Stats.reductions_saved t.n)

(* Slot-wise Barrett product of canonical vectors; [dst] may alias either
   input. Canonical output so NTT-domain values stay in [0, p) at rest. *)
let pointwise_into t ~dst a b =
  if Array.length a <> t.n || Array.length b <> t.n || Array.length dst <> t.n
  then invalid_arg "Ntt.pointwise: wrong length";
  let p = t.p and ip = t.inv_p in
  for i = 0 to t.n - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    let q = int_of_float (float_of_int x *. float_of_int y *. ip) in
    let r = (x * y) - (q * p) in
    let r = if r < 0 then r + p else r in
    Array.unsafe_set dst i (if r >= p then r - p else r)
  done;
  count_pointwise t

(* dst.(i) <- dst.(i) + a.(i)*b.(i) mod p, canonical. *)
let pointwise_add_into t ~dst a b =
  if Array.length a <> t.n || Array.length b <> t.n || Array.length dst <> t.n
  then invalid_arg "Ntt.pointwise: wrong length";
  let p = t.p and ip = t.inv_p in
  for i = 0 to t.n - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    let q = int_of_float (float_of_int x *. float_of_int y *. ip) in
    let r = (x * y) - (q * p) in
    let r = if r < 0 then r + p else r in
    let r = if r >= p then r - p else r in
    let s = Array.unsafe_get dst i + r in
    Array.unsafe_set dst i (if s >= p then s - p else s)
  done;
  count_pointwise t

let pointwise t a b =
  let dst = Array.make t.n 0 in
  pointwise_into t ~dst a b;
  dst

let multiply t a b =
  let a' = Array.copy a and b' = Array.copy b in
  forward t a';
  forward t b';
  pointwise_into t ~dst:a' a' b';
  inverse t a';
  a'
