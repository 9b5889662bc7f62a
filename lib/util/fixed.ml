type t = int

let frac_bits = 16
let int_bits = 30
let scale = 1 lsl frac_bits
let scale_f = float_of_int scale

let one = scale
let zero = 0
let of_int n = n * scale

let of_float f =
  let scaled = f *. scale_f in
  int_of_float (Float.round scaled)

let to_float x = float_of_int x /. scale_f
let to_int x = if x >= 0 then x asr frac_bits else -((-x) asr frac_bits)
let of_raw x = x
let to_raw x = x

let add = ( + )
let sub = ( - )
let neg x = -x

(* Product carries 32 fractional bits; shift back with rounding half away
   from zero so that mul is symmetric under negation. *)
let mul a b =
  let p = a * b in
  let half = 1 lsl (frac_bits - 1) in
  if p >= 0 then (p + half) asr frac_bits else -(((-p) + half) asr frac_bits)

let div a b =
  if b = 0 then raise Division_by_zero;
  let num = a lsl frac_bits in
  let q = num / b and r = num mod b in
  (* Round to nearest. *)
  let adj =
    if 2 * abs r >= abs b then if (a >= 0) = (b >= 0) then 1 else -1 else 0
  in
  q + adj

let compare = Int.compare
let equal = Int.equal
let min = Stdlib.min
let max = Stdlib.max
let abs = Stdlib.abs

let max_nominal = (1 lsl (int_bits + frac_bits - 1)) - 1

(* 2^f for f in [0,1), degree-4 polynomial fit of 2^x (max abs error ~1e-7,
   well below the 2^-16 quantum). *)
let exp2_frac f =
  let c0 = 1.0
  and c1 = 0.6931471805599453
  and c2 = 0.2401596780245026
  and c3 = 0.0558016049633903
  and c4 = 0.0089892745566750 in
  c0 +. (f *. (c1 +. (f *. (c2 +. (f *. (c3 +. (f *. c4)))))))

let exp2 x =
  let xf = to_float x in
  if xf >= float_of_int (int_bits - 1) then max_nominal
  else if xf < float_of_int (-frac_bits - 1) then 0
  else
    let ip = Float.floor xf in
    let fp = xf -. ip in
    let v = exp2_frac fp *. (2.0 ** ip) in
    of_float v

let log2 x =
  if x <= 0 then invalid_arg "Fixed.log2: non-positive input";
  of_float (Float.log2 (to_float x))

let pp fmt x = Format.fprintf fmt "%.6f" (to_float x)
let to_string x = Printf.sprintf "%.6f" (to_float x)
