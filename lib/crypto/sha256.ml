type digest = string

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* Native-int kernel. Each 32-bit word lives in an OCaml int (63 bits on
   the 64-bit targets this code requires), kept in [0, 2^32) at every
   store. Additions and xors run on the full int and are reduced once with
   [land mask]: the low 32 bits of a sum or xor depend only on the low 32
   bits of its operands, and int arithmetic wraps mod 2^63, a multiple of
   2^32. A right rotation by n reads the doubled word d = x lor (x lsl 32):
   bits 0-31 of d are x and bits 32-62 are bits 0-30 of x (bit 31 falls off
   the top), so bit j of d lsr n is bit (j + n) mod 32 of x whenever
   j + n <= 62, which holds for every j <= 31 and n in 1..31. No word is
   boxed, so a block compresses without allocating. *)

let () = assert (Sys.int_size >= 63)
let mask = 0xFFFF_FFFF

type ctx = {
  h : int array; (* 8 words of chaining state *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes fed *)
  w : int array; (* message schedule scratch *)
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let init () =
  { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0; w = Array.make 64 0 }

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

(* [t] stays within 0..63 and [k] and [w] both hold 64 entries, so the
   unchecked accesses below are in bounds. *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be block (off + (t * 4))) land mask
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
    let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
    let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
    let w16 = Array.unsafe_get w (t - 16) and w7 = Array.unsafe_get w (t - 7) in
    Array.unsafe_set w t ((w16 + s0 + w7 + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e0 = !e and a0 = !a in
    let de = e0 lor (e0 lsl 32) and da = a0 lor (a0 lsl 32) in
    let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
    let ch = !g lxor (e0 land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
    let maj = (a0 land !b) lor (!c land (a0 lor !b)) in
    hh := !g;
    g := !f;
    f := e0;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a0;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_bytes ctx data off len =
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need !remaining in
    Bytes.blit data !pos ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let feed_sub ctx s off len = feed_bytes ctx (Bytes.unsafe_of_string s) off len
let feed ctx s = feed_sub ctx s 0 (String.length s)

let finalize_into ctx out off =
  (* Padding, written into the block buffer: 0x80, zeros, then the message
     length in bits as a 64-bit big-endian integer in the last 8 bytes —
     in a block of its own when fewer than 9 bytes are left. *)
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\x00';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total lsl 3));
  compress ctx buf 0;
  for i = 0 to 7 do
    Bytes.set_int32_be out (off + (4 * i)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let seed_of s =
  String.fold_left
    (fun acc c -> Int64.add (Int64.mul acc 131L) (Int64.of_int (Char.code c)))
    7L
    (String.sub (digest s) 0 8)

(* HMAC's first block is the padded key, so a key fixes the chaining state
   after it on each side: [inner] after the ipad block, [outer] after the
   opad block. A keyed MAC resumes from them, 64 bytes in, and never
   compresses a pad again. *)
type hmac_key = { inner : int array; outer : int array }

let hmac_key key =
  let key = if String.length key > 64 then digest key else key in
  let pad = Bytes.make 64 '\x36' in
  String.iteri (fun i c -> Bytes.set pad i (Char.chr (Char.code c lxor 0x36))) key;
  let ctx = init () in
  compress ctx pad 0;
  let inner = Array.copy ctx.h in
  (* Flip the pad from ipad to opad in place: 0x36 lxor 0x5c = 0x6a. *)
  for i = 0 to 63 do
    Bytes.set pad i (Char.chr (Char.code (Bytes.get pad i) lxor 0x6a))
  done;
  Array.blit iv 0 ctx.h 0 8;
  compress ctx pad 0;
  { inner; outer = ctx.h }

let resume ctx state =
  Array.blit state 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 64

(* The inner digest is written into [out] and fed back from there; the
   outer digest then overwrites it. *)
let hmac_keyed k msg =
  let ctx = init () and out = Bytes.create 32 in
  resume ctx k.inner;
  feed ctx msg;
  finalize_into ctx out 0;
  resume ctx k.outer;
  feed_bytes ctx out 0 32;
  finalize_into ctx out 0;
  Bytes.unsafe_to_string out

let hmac ~key msg = hmac_keyed (hmac_key key) msg

let to_hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let compare_le = String.compare
