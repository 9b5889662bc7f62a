(* Lamport one-time signatures over SHA-256.

   secret: 2 x 256 preimages s[b][i] derived from the seed by a PRF.
   commitments: c[b][i] = H(s[b][i]); public = H(c[0][0] || ... || c[1][255]).
   A signature on m reveals, for each bit i of H(m), the preimage
   s[bit_i][i], plus the full commitment list so the verifier can re-derive
   the public digest and check revealed preimages against commitments.

   keygen derives all of that once and the secret keeps it, so signing
   hashes only the message. Both 16 KiB blocks are written in place by one
   SHA-256 context, reset between hashes. *)

type secret = {
  preimages : Bytes.t; (* s[0][0] || ... || s[1][255]: s[b][i] at (b * 256 + i) * 32 *)
  commitments : string; (* c[0][0] || ... || c[1][255], 512 x 32 bytes *)
}

type public = string
type keypair = { secret : secret; public : public }

(* "lamport|b|i|", the PRF input's prefix for s[b][i]. *)
let prefixes = Array.init 512 (fun j -> Printf.sprintf "lamport|%d|%d|" (j / 256) (j mod 256))

let keygen ~seed =
  let preimages = Bytes.create (512 * 32) and commitments = Bytes.create (512 * 32) in
  let ctx = Sha256.init () in
  for j = 0 to 511 do
    Sha256.reset ctx;
    Sha256.feed ctx prefixes.(j);
    Sha256.feed ctx seed;
    Sha256.finalize_into ctx preimages (j * 32);
    Sha256.reset ctx;
    Sha256.feed_bytes ctx preimages (j * 32) 32;
    Sha256.finalize_into ctx commitments (j * 32)
  done;
  let commitments = Bytes.unsafe_to_string commitments in
  { secret = { preimages; commitments }; public = Sha256.digest commitments }

let msg_bit h i = (Char.code h.[i / 8] lsr (7 - (i mod 8))) land 1

let sign ~secret msg =
  let h = Sha256.digest msg in
  let buf = Buffer.create ((256 + 512) * 32) in
  for i = 0 to 255 do
    Buffer.add_subbytes buf secret.preimages (((msg_bit h i * 256) + i) * 32) 32
  done;
  Buffer.add_string buf secret.commitments;
  Buffer.contents buf

(* [d] holds a digest; does it equal the 32 bytes of [s] from [off]? *)
let digest_at d s off =
  let rec go i = i = 32 || (Bytes.get d i = s.[off + i] && go (i + 1)) in
  go 0

(* One context and one 32-byte digest buffer serve every hash: the
   commitment block and each revealed preimage are read at their offsets
   in the signature. *)
let verify ~public ~msg ~signature =
  String.length signature = (256 + 512) * 32
  && String.length public = 32
  &&
  let commits = 256 * 32 in
  let ctx = Sha256.init () and d = Bytes.create 32 in
  Sha256.feed_sub ctx signature commits (512 * 32);
  Sha256.finalize_into ctx d 0;
  digest_at d public 0
  &&
  let h = Sha256.digest msg in
  let rec check i =
    i = 256
    || begin
         Sha256.reset ctx;
         Sha256.feed_sub ctx signature (i * 32) 32;
         Sha256.finalize_into ctx d 0;
         digest_at d signature (commits + (((msg_bit h i * 256) + i) * 32))
       end
       && check (i + 1)
  in
  check 0
