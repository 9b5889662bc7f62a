(* Lamport one-time signatures over SHA-256.

   secret: 2 x 256 preimages s[b][i] derived from the seed by a PRF.
   commitments: c[b][i] = H(s[b][i]); public = H(c[0][0] || ... || c[1][255]).
   A signature on m reveals, for each bit i of H(m), the preimage
   s[bit_i][i], plus the full commitment list so the verifier can re-derive
   the public digest and check revealed preimages against commitments.

   keygen derives all of that once and the secret keeps it, so signing
   hashes only the message. *)

type secret = {
  preimages : string array; (* s[b][i] at index b * 256 + i *)
  commitments : string; (* c[0][0] || ... || c[1][255], 512 x 32 bytes *)
}

type public = string
type keypair = { secret : secret; public : public }

let signature_bytes = 256

(* "lamport|b|i|", the PRF input's prefix for s[b][i]. *)
let prefixes = Array.init 512 (fun j -> Printf.sprintf "lamport|%d|%d|" (j / 256) (j mod 256))

let preimage seed j =
  let ctx = Sha256.init () in
  Sha256.feed ctx prefixes.(j);
  Sha256.feed ctx seed;
  Sha256.finalize ctx

(* The preimage array starts from a constant and is filled in place:
   [Array.init] of fresh strings past 256 elements makes the runtime empty
   the minor heap first (DESIGN.md §10). *)
let keygen ~seed =
  let preimages = Array.make 512 "" in
  let commitments = Bytes.create (512 * 32) in
  for j = 0 to 511 do
    let s = preimage seed j in
    preimages.(j) <- s;
    Bytes.blit_string (Sha256.digest s) 0 commitments (j * 32) 32
  done;
  let commitments = Bytes.unsafe_to_string commitments in
  { secret = { preimages; commitments }; public = Sha256.digest commitments }

let msg_bit h i = (Char.code h.[i / 8] lsr (7 - (i mod 8))) land 1

let sign ~secret msg =
  let h = Sha256.digest msg in
  let buf = Buffer.create ((256 + 512) * 32) in
  for i = 0 to 255 do
    Buffer.add_string buf secret.preimages.((msg_bit h i * 256) + i)
  done;
  Buffer.add_string buf secret.commitments;
  Buffer.contents buf

let verify ~public ~msg ~signature =
  if String.length signature <> (256 + 512) * 32 then false
  else
    let commits = String.sub signature (256 * 32) (512 * 32) in
    if not (String.equal (Sha256.digest commits) public) then false
    else
      let h = Sha256.digest msg in
      let ok = ref true in
      for i = 0 to 255 do
        let revealed = String.sub signature (i * 32) 32 in
        let expected = String.sub commits (((msg_bit h i * 256) + i) * 32) 32 in
        if not (String.equal (Sha256.digest revealed) expected) then ok := false
      done;
      !ok
