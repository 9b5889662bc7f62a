let check_len a b =
  if Array.length a <> Array.length b then invalid_arg "Poly: length mismatch"

(* In-place variants write into [dst] (which may alias an input) so the
   BGV kernels' steady state allocates nothing; the allocating wrappers
   below stay for callers that want fresh arrays. *)

(* The corrections are mask arithmetic, as in the NTT butterflies:
   [d asr 62] is all ones exactly when d < 0, so adding [p land (d asr 62)]
   reduces without a data-dependent branch. *)
let add_into fld ~dst a b =
  check_len a b;
  check_len dst a;
  let p = fld.Field.p in
  for i = 0 to Array.length a - 1 do
    let d = Array.unsafe_get a i + Array.unsafe_get b i - p in
    Array.unsafe_set dst i (d + (p land (d asr 62)))
  done

let sub_into fld ~dst a b =
  check_len a b;
  check_len dst a;
  let p = fld.Field.p in
  for i = 0 to Array.length a - 1 do
    let d = Array.unsafe_get a i - Array.unsafe_get b i in
    Array.unsafe_set dst i (d + (p land (d asr 62)))
  done

let neg_into fld ~dst a =
  check_len dst a;
  let p = fld.Field.p in
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i in
    Array.unsafe_set dst i (if x = 0 then 0 else p - x)
  done

let scale_into fld ~dst k a =
  check_len dst a;
  let k = Field.of_int fld k in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Field.mul fld k (Array.unsafe_get a i))
  done

let add fld a b =
  let dst = Array.make (Array.length a) 0 in
  add_into fld ~dst a b;
  dst

let sub fld a b =
  let dst = Array.make (Array.length a) 0 in
  sub_into fld ~dst a b;
  dst

let neg fld a =
  let dst = Array.make (Array.length a) 0 in
  neg_into fld ~dst a;
  dst

let scale fld k a =
  let dst = Array.make (Array.length a) 0 in
  scale_into fld ~dst k a;
  dst

let mul_naive fld a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Poly.mul_naive: length mismatch";
  let c = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.(i) <> 0 then
      for j = 0 to n - 1 do
        let k = i + j in
        let prod = Field.mul fld a.(i) b.(j) in
        if k < n then c.(k) <- Field.add fld c.(k) prod
        else c.(k - n) <- Field.sub fld c.(k - n) prod
      done
  done;
  c

let random_uniform fld rng n = Array.init n (fun _ -> Field.random fld rng)

(* Explicit structural equality on int arrays: immune to polymorphic-
   compare surprises if a caller's representation ever grows variants or
   records around these coefficient vectors. *)
let equal (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
  in
  go 0
