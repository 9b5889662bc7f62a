(* The splitmix64 state lives in an 8-byte buffer, read and written as a
   raw int64. A mutable [int64] record field would hold a boxed Int64: every
   draw would allocate a fresh box and store it through [caml_modify]. The
   buffer's loads and stores stay unboxed, and with [mix] and [next_int64]
   inlined a draw allocates nothing. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let split t =
  let s = next_int64 t in
  create (mix (Int64.add s golden_gamma))

(* Two rounds of the splitmix finalizer over (seed, i) give an independent
   stream per index without touching any other generator's state — the
   primitive behind per-device randomness at simulated billion-device
   scale (each device's draws are a pure function of (seed, i)). *)
let derive seed i =
  let z = mix (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) golden_gamma)) in
  create (mix (Int64.logxor z golden_gamma))

let copy = Bytes.copy

(* Top 53 bits -> float in [0,1). *)
let[@inline] float01 t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let[@inline] uniform01 t =
  let u = float01 t in
  if u <= 0.0 then 1.0 /. 9007199254740992.0 else u

let float t bound = float01 t *. bound

(* 62 uniform bits: shifting by 2 keeps the value within OCaml's 63-bit
   native int without wrapping negative. *)
let[@inline] draw62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then draw62 t land (bound - 1)
  else begin
    (* Reject the tail of the range to keep uniformity: [limit] is
       2^62 - bound, and the draws are uniform in [0, 2^62). *)
    let limit = max_int - bound + 1 in
    let r = ref (draw62 t) in
    while !r - (!r mod bound) > limit do
      r := draw62 t
    done;
    !r mod bound
  end

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let laplace t ~scale =
  let u = uniform01 t -. 0.5 in
  let s = if u < 0.0 then -1.0 else 1.0 in
  -.scale *. s *. log (1.0 -. (2.0 *. Float.abs u))

let gumbel t ~scale = -.scale *. log (-.log (uniform01 t))

let exponential t ~rate = -.log (uniform01 t) /. rate

let gaussian t ~sigma =
  let u1 = uniform01 t and u2 = uniform01 t in
  sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric";
  if p = 1.0 then 0
  else
    let u = uniform01 t in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  (* Partial Fisher–Yates over a lazily materialized identity permutation. *)
  let tbl = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt tbl i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = int_in t i (n - 1) in
      let vi = get i and vj = get j in
      Hashtbl.replace tbl j vi;
      Hashtbl.replace tbl i vj;
      vj)
