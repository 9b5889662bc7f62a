(* Tests for the cryptographic substrate: SHA-256, Merkle, signatures,
   field/NTT algebra, BGV, Shamir/VSR, ZKPs, sortition. *)

module C = Arb_crypto
module Rng = Arb_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- SHA-256 ---------------- *)

let test_sha_vectors () =
  let cases =
    [
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ]
  in
  List.iter
    (fun (msg, want) -> checks msg want (C.Sha256.to_hex (C.Sha256.digest msg)))
    cases

let test_sha_million_a () =
  checks "10^6 x 'a'" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (C.Sha256.to_hex (C.Sha256.digest (String.make 1_000_000 'a')))

let test_sha_incremental () =
  (* Feeding in arbitrary chunks must agree with one-shot hashing. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let whole = C.Sha256.digest msg in
  List.iter
    (fun chunk ->
      let ctx = C.Sha256.init () in
      let rec feed pos =
        if pos < String.length msg then begin
          let len = min chunk (String.length msg - pos) in
          C.Sha256.feed ctx (String.sub msg pos len);
          feed (pos + len)
        end
      in
      feed 0;
      checks (Printf.sprintf "chunk %d" chunk) (C.Sha256.to_hex whole)
        (C.Sha256.to_hex (C.Sha256.finalize ctx)))
    [ 1; 3; 55; 56; 63; 64; 65; 128; 999 ]

let test_sha_padding_boundaries () =
  (* Byte i of the message is i mod 251. The lengths straddle both padding
     cases, at one and two blocks: a final block of at most 55 message
     bytes takes the 0x80 byte and the 8-byte length itself, one of 56-63
     pushes the length into a block of its own. Reference digests from
     Python's hashlib. *)
  List.iter
    (fun (n, want) ->
      let msg = String.init n (fun i -> Char.chr (i mod 251)) in
      checks (Printf.sprintf "length %d" n) want (C.Sha256.to_hex (C.Sha256.digest msg)))
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
      (111, "60780e9451bdc43cf4530ffc95cbb0c4eb24dae2c39f55f334d679e076c08065");
      (112, "09373f127d34e61dbbaa8bc4499c87074f2ddb10e1b465f506d7d70a15011979");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
      (127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976");
      (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
      (1000, "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d");
    ]

let test_hmac_vectors () =
  (* RFC 4231 test cases 1-4, 6 and 7 (case 5 truncates the output). Cases
     6 and 7 take a 131-byte key, longer than the block, which HMAC hashes
     first. *)
  let aa131 = String.make 131 '\xaa' in
  List.iter
    (fun (name, key, msg, want) ->
      checks name want (C.Sha256.to_hex (C.Sha256.hmac ~key msg)))
    [
      ( "rfc4231 case 1", String.make 20 '\x0b', "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "rfc4231 case 2", "Jefe", "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( "rfc4231 case 3", String.make 20 '\xaa', String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( "rfc4231 case 4", String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( "rfc4231 case 6", aa131, "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( "rfc4231 case 7", aa131,
        "This is a test using a larger than block-size key and a larger than block-size \
         data. The key needs to be hashed before being used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
      (* A key of exactly one block is used as is, not hashed (Python's hmac). *)
      ( "64-byte key", String.init 64 (fun i -> Char.chr (((i * 7) + 3) mod 256)),
        "key of exactly one block",
        "9e9e883a6d3f8f5cd739b8121380be13ef22893b7cc9c208d44dae4e957c3261" );
    ]

let test_sha_context_reuse () =
  (* One context, reset between messages, fed from an offset into a longer
     string or buffer and finalized into a buffer at an offset, gives the
     one-shot digest at every padding boundary. *)
  let ctx = C.Sha256.init () and out = Bytes.make 40 '\xee' in
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr ((i * 13) mod 256)) in
      let padded = "xyz" ^ msg ^ "tail" in
      C.Sha256.reset ctx;
      C.Sha256.feed_sub ctx padded 3 n;
      C.Sha256.finalize_into ctx out 5;
      checks (Printf.sprintf "feed_sub length %d" n) (C.Sha256.to_hex (C.Sha256.digest msg))
        (C.Sha256.to_hex (Bytes.sub_string out 5 32));
      C.Sha256.reset ctx;
      C.Sha256.feed_bytes ctx (Bytes.of_string padded) 3 n;
      checks (Printf.sprintf "feed_bytes length %d" n) (C.Sha256.to_hex (C.Sha256.digest msg))
        (C.Sha256.to_hex (C.Sha256.finalize ctx)))
    [ 0; 1; 32; 55; 56; 63; 64; 65; 119; 120; 128; 1000 ];
  checks "bytes around the digest untouched" "\xee\xee\xee\xee\xee\xee\xee\xee"
    (Bytes.sub_string out 0 5 ^ Bytes.sub_string out 37 3)

let test_hmac_keyed () =
  (* A prepared key serves many messages, each equal to the one-shot
     HMAC, for keys below, at and above the block size. *)
  List.iter
    (fun key ->
      let k = C.Sha256.hmac_key key in
      List.iter
        (fun msg ->
          checks
            (Printf.sprintf "key %d bytes, msg %d bytes" (String.length key) (String.length msg))
            (C.Sha256.to_hex (C.Sha256.hmac ~key msg))
            (C.Sha256.to_hex (C.Sha256.hmac_keyed k msg)))
        [ ""; "0"; "4095"; String.make 55 'm'; String.make 56 'm'; String.make 200 'm' ])
    [ ""; "block-seed"; String.make 64 '\x5a'; String.make 131 '\xaa' ]

let prop_sha_deterministic_and_sensitive =
  QCheck.Test.make ~name:"sha256 deterministic + bit-sensitive" ~count:100
    QCheck.(string_of_size (Gen.int_range 1 200))
    (fun s ->
      let d1 = C.Sha256.digest s and d2 = C.Sha256.digest s in
      let flipped =
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Bytes.to_string b
      in
      String.equal d1 d2 && not (String.equal d1 (C.Sha256.digest flipped)))

(* ---------------- Merkle ---------------- *)

let prop_merkle_inclusion =
  QCheck.Test.make ~name:"merkle inclusion proofs verify" ~count:100
    QCheck.(int_range 1 64)
    (fun n ->
      let leaves = Array.init n (fun i -> Printf.sprintf "leaf-%d" i) in
      let t = C.Merkle.build leaves in
      let root = C.Merkle.root t in
      List.for_all
        (fun i -> C.Merkle.verify ~root ~leaf:leaves.(i) (C.Merkle.prove t i))
        (List.init n Fun.id))

let test_merkle_tamper () =
  let leaves = Array.init 8 (fun i -> Printf.sprintf "v%d" i) in
  let t = C.Merkle.build leaves in
  let root = C.Merkle.root t in
  let proof = C.Merkle.prove t 3 in
  checkb "wrong leaf fails" false (C.Merkle.verify ~root ~leaf:"v4" proof);
  checkb "wrong index fails" false
    (C.Merkle.verify ~root ~leaf:"v3" { proof with C.Merkle.index = 4 });
  checkb "tampered root fails" false
    (C.Merkle.verify ~root:(C.Sha256.digest "x") ~leaf:"v3" proof)

let test_merkle_second_preimage_separation () =
  (* Domain separation: a tree over the concatenated leaf hashes differs
     from the two-leaf tree. *)
  let t1 = C.Merkle.build [| "a"; "b" |] in
  let inner = C.Merkle.leaf_hash "a" ^ C.Merkle.leaf_hash "b" in
  let t2 = C.Merkle.build [| inner |] in
  checkb "no splice" false (String.equal (C.Merkle.root t1) (C.Merkle.root t2))

let test_merkle_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: no leaves")
    (fun () -> ignore (C.Merkle.build [||]))

(* ---------------- Lamport signatures ---------------- *)

let test_sig_roundtrip () =
  let kp = C.Sig_scheme.keygen ~seed:"device-1|q7" in
  let s = C.Sig_scheme.sign ~secret:kp.C.Sig_scheme.secret "hello" in
  checkb "verifies" true
    (C.Sig_scheme.verify ~public:kp.C.Sig_scheme.public ~msg:"hello" ~signature:s);
  checkb "wrong message fails" false
    (C.Sig_scheme.verify ~public:kp.C.Sig_scheme.public ~msg:"hullo" ~signature:s);
  let kp2 = C.Sig_scheme.keygen ~seed:"device-2|q7" in
  checkb "wrong key fails" false
    (C.Sig_scheme.verify ~public:kp2.C.Sig_scheme.public ~msg:"hello" ~signature:s)

let test_sig_deterministic () =
  let kp = C.Sig_scheme.keygen ~seed:"d" in
  checks "same signature"
    (C.Sha256.to_hex
       (C.Sha256.digest (C.Sig_scheme.sign ~secret:kp.C.Sig_scheme.secret "m")))
    (C.Sha256.to_hex
       (C.Sha256.digest (C.Sig_scheme.sign ~secret:kp.C.Sig_scheme.secret "m")))

let test_sig_tamper () =
  let kp = C.Sig_scheme.keygen ~seed:"d2" in
  let s = C.Sig_scheme.sign ~secret:kp.C.Sig_scheme.secret "m" in
  let tampered =
    let b = Bytes.of_string s in
    Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 0xFF));
    Bytes.to_string b
  in
  checkb "tampered signature fails" false
    (C.Sig_scheme.verify ~public:kp.C.Sig_scheme.public ~msg:"m" ~signature:tampered)

let test_sig_swapped_preimage () =
  (* Signing a second message with the same one-time key reveals, at a bit
     where the two digests differ, the preimage for the other bit value.
     It matches a commitment in the list, but not the one the first
     message's bit selects, so splicing it in must not verify. *)
  let kp = C.Sig_scheme.keygen ~seed:"d3" in
  let sign = C.Sig_scheme.sign ~secret:kp.C.Sig_scheme.secret in
  let verify msg signature =
    C.Sig_scheme.verify ~public:kp.C.Sig_scheme.public ~msg ~signature
  in
  let bit msg i =
    let h = C.Sha256.digest msg in
    (Char.code h.[i / 8] lsr (7 - (i mod 8))) land 1
  in
  let m = "m" and m' = "m'" in
  let i =
    let rec first i = if bit m i <> bit m' i then i else first (i + 1) in
    first 0
  in
  let s = sign m and s' = sign m' in
  let other = String.sub s' (i * 32) 32 in
  let commitment b = String.sub s (((256 + (b * 256)) + i) * 32) 32 in
  checks "the swapped-in preimage opens the other bit's commitment"
    (C.Sha256.to_hex (commitment (1 - bit m i)))
    (C.Sha256.to_hex (C.Sha256.digest other));
  let forged =
    let b = Bytes.of_string s in
    Bytes.blit_string other 0 b (i * 32) 32;
    Bytes.to_string b
  in
  checkb "genuine signature verifies" true (verify m s);
  checkb "swapped preimage fails" false (verify m forged)

(* ---------------- Field ---------------- *)

let p_test = 998244353
let fld = C.Field.create p_test

let prop_field_ring_laws =
  QCheck.Test.make ~name:"field ring laws" ~count:300
    QCheck.(
      triple (int_bound (p_test - 1)) (int_bound (p_test - 1)) (int_bound (p_test - 1)))
    (fun (a, b, c) ->
      let open C.Field in
      add fld a b = add fld b a
      && mul fld a b = mul fld b a
      && mul fld a (add fld b c) = add fld (mul fld a b) (mul fld a c)
      && add fld a (neg fld a) = 0)

let prop_field_inverse =
  QCheck.Test.make ~name:"field inverse" ~count:200
    QCheck.(int_range 1 (p_test - 1))
    (fun a -> C.Field.mul fld a (C.Field.inv fld a) = 1)

let test_field_is_prime () =
  List.iter
    (fun p -> checkb (string_of_int p) true (C.Field.is_prime p))
    [ 2; 3; 12289; 65537; 786433; 998244353; 754974721 ];
  List.iter
    (fun p -> checkb (string_of_int p) false (C.Field.is_prime p))
    [ 1; 0; 4; 12287; 65536; 998244351 ]

let test_field_root_of_unity () =
  let w = C.Field.root_of_unity fld ~order:1024 in
  checki "w^1024 = 1" 1 (C.Field.pow fld w 1024);
  checkb "w^512 <> 1" true (C.Field.pow fld w 512 <> 1)

let test_field_center () =
  checki "center small" 5 (C.Field.center fld 5);
  checki "center large is negative" (-1) (C.Field.center fld (p_test - 1))

let test_field_rejects () =
  Alcotest.check_raises "composite"
    (Invalid_argument "Field.create: modulus not prime") (fun () ->
      ignore (C.Field.create 12287));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (C.Field.inv fld 0))

(* ---------------- NTT / Poly ---------------- *)

let prop_ntt_roundtrip =
  QCheck.Test.make ~name:"NTT roundtrip" ~count:50
    QCheck.(int_range 0 5)
    (fun logn_off ->
      let n = 8 lsl logn_off in
      let plan = C.Ntt.plan ~n ~p:p_test in
      let rng = Rng.create (Int64.of_int n) in
      let a = C.Poly.random_uniform fld rng n in
      let a' = Array.copy a in
      C.Ntt.forward plan a';
      C.Ntt.inverse plan a';
      a = a')

let prop_ntt_vs_naive =
  QCheck.Test.make ~name:"NTT multiply = naive negacyclic multiply" ~count:50
    QCheck.(int_range 0 4)
    (fun logn_off ->
      let n = 8 lsl logn_off in
      let plan = C.Ntt.plan ~n ~p:p_test in
      let rng = Rng.create (Int64.of_int (n + 1)) in
      let a = C.Poly.random_uniform fld rng n in
      let b = C.Poly.random_uniform fld rng n in
      C.Ntt.multiply plan a b = C.Poly.mul_naive fld a b)

let test_ntt_negacyclic_wraparound () =
  (* x^(n-1) * x = -1 in Z_p[x]/(x^n+1). *)
  let n = 16 in
  let plan = C.Ntt.plan ~n ~p:p_test in
  let xn1 = Array.make n 0 and x = Array.make n 0 in
  xn1.(n - 1) <- 1;
  x.(1) <- 1;
  let prod = C.Ntt.multiply plan xn1 x in
  checki "constant coeff = -1" (p_test - 1) prod.(0);
  for i = 1 to n - 1 do
    checki "other coeffs zero" 0 prod.(i)
  done

let test_ntt_rejects () =
  Alcotest.check_raises "n not power of two"
    (Invalid_argument "Ntt.plan: n not a power of two") (fun () ->
      ignore (C.Ntt.plan ~n:12 ~p:p_test));
  (* 2013265921 = 15*2^27 + 1 is a classic NTT prime but sits above 2^30,
     so the lazy butterflies' 4p(p-1) headroom would overflow. *)
  Alcotest.check_raises "p above lazy-reduction headroom"
    (Invalid_argument "Ntt.plan: p > 2^30 breaks lazy-reduction headroom")
    (fun () -> ignore (C.Ntt.plan ~n:64 ~p:2013265921));
  Alcotest.check_raises "(p-1)^2 overflows"
    (Invalid_argument "Ntt.plan: (p-1)^2 overflows 62 bits") (fun () ->
      ignore (C.Ntt.plan ~n:64 ~p:((1 lsl 31) + 1)))

(* ---- Differential properties: the Barrett / lazy-reduction kernels must
   be bit-identical to the seed's `mod`-based arithmetic. ---- *)

(* Every RNS prime and plaintext modulus the BGV parameter presets use,
   deduplicated. All are NTT-friendly for the ring sizes below. *)
let bgv_rns_primes =
  let moduli (params : C.Bgv.params) = params.C.Bgv.t :: params.C.Bgv.q_primes in
  List.sort_uniq compare
    (moduli (C.Bgv.ahe_params ~n:128 ()) @ moduli (C.Bgv.fhe_params ~n:128 ()))

let barrett_fields =
  (* The RNS set plus a tiny prime and the largest 31-bit prime, to probe
     the float-reciprocal quotient estimate at both ends of the range. *)
  List.map C.Field.create (12289 :: ((1 lsl 31) - 1) :: bgv_rns_primes)

let prop_field_barrett_vs_mod =
  QCheck.Test.make ~name:"Field Barrett mul/add bit-identical to mod" ~count:300
    QCheck.(pair (int_bound ((1 lsl 31) - 2)) (int_bound ((1 lsl 31) - 2)))
    (fun (x, y) ->
      List.for_all
        (fun f ->
          let p = f.C.Field.p in
          let a = x mod p and b = y mod p in
          C.Field.mul f a b = a * b mod p && C.Field.add f a b = (a + b) mod p)
        barrett_fields)

let prop_ntt_lazy_vs_reference =
  QCheck.Test.make
    ~name:"lazy NTT bit-identical to reference (both butterfly directions)"
    ~count:25
    QCheck.(pair (int_range 0 4) (int_range 0 1000))
    (fun (logn_off, salt) ->
      let n = 8 lsl logn_off in
      List.for_all
        (fun p ->
          let plan = C.Ntt.plan ~n ~p in
          let f = C.Field.create p in
          let rng = Rng.create (Int64.of_int ((n * 7919) + salt)) in
          let a = C.Poly.random_uniform f rng n in
          let fwd_lazy = Array.copy a and fwd_ref = Array.copy a in
          C.Ntt.forward plan fwd_lazy;
          C.Ntt.forward_reference plan fwd_ref;
          let inv_lazy = Array.copy fwd_lazy and inv_ref = Array.copy fwd_ref in
          C.Ntt.inverse plan inv_lazy;
          C.Ntt.inverse_reference plan inv_ref;
          C.Poly.equal fwd_lazy fwd_ref
          && C.Poly.equal inv_lazy inv_ref
          && C.Poly.equal inv_lazy a)
        bgv_rns_primes)

let prop_ntt_multiply_vs_naive_all_rns =
  QCheck.Test.make ~name:"NTT multiply = naive for every RNS prime" ~count:15
    QCheck.(pair (int_range 0 3) (int_range 0 1000))
    (fun (logn_off, salt) ->
      let n = 8 lsl logn_off in
      List.for_all
        (fun p ->
          let plan = C.Ntt.plan ~n ~p in
          let f = C.Field.create p in
          let rng = Rng.create (Int64.of_int ((n * 31) + salt + 1)) in
          let a = C.Poly.random_uniform f rng n in
          let b = C.Poly.random_uniform f rng n in
          let fast = C.Ntt.multiply plan a b in
          C.Poly.equal fast (C.Poly.mul_naive f a b)
          && C.Poly.equal fast (C.Ntt.multiply_reference plan a b))
        bgv_rns_primes)

let prop_poly_into_matches_allocating =
  QCheck.Test.make ~name:"Poly in-place ops match allocating ops" ~count:50
    QCheck.(int_range 1 64)
    (fun n ->
      let rng = Rng.create (Int64.of_int (n + 77)) in
      let a = C.Poly.random_uniform fld rng n in
      let b = C.Poly.random_uniform fld rng n in
      let dst = Array.make n 0 in
      C.Poly.add_into fld ~dst a b;
      let ok_add = C.Poly.equal dst (C.Poly.add fld a b) in
      C.Poly.sub_into fld ~dst a b;
      let ok_sub = C.Poly.equal dst (C.Poly.sub fld a b) in
      C.Poly.neg_into fld ~dst a;
      let ok_neg = C.Poly.equal dst (C.Poly.neg fld a) in
      C.Poly.scale_into fld ~dst 7 a;
      let ok_scale = C.Poly.equal dst (C.Poly.scale fld 7 a) in
      ok_add && ok_sub && ok_neg && ok_scale)

(* ---- Oracles at the lazy-range edges. The properties above draw uniform
   inputs, which rarely land where a correction switches on or off, and
   the allocating Poly ops call the in-place ones. These check each kernel
   against plain [mod] arithmetic on the boundary values themselves, for
   every RNS prime and for 12289. ---- *)

let edge_primes = 12289 :: bgv_rns_primes

let boundary_residues p = [| 0; 1; 2; (p / 2) - 1; p / 2; (p / 2) + 1; p - 2; p - 1 |]

(* Every ordered pair of boundary residues, then uniform filler: vectors of
   length [n] with a.(i), b.(i) the i-th pair. *)
let edge_pairs p n =
  let vals = boundary_residues p in
  let k = Array.length vals in
  let rng = Rng.create (Int64.of_int p) in
  let pick i = if i < k * k then (vals.(i / k), vals.(i mod k)) else (Rng.int rng p, Rng.int rng p) in
  let pairs = Array.init n pick in
  (Array.map fst pairs, Array.map snd pairs)

let test_edge_poly_ops () =
  List.iter
    (fun p ->
      let f = C.Field.create p in
      let a, b = edge_pairs p 80 in
      let expect op = Array.map2 (fun x y -> ((op x y mod p) + p) mod p) a b in
      let dst = Array.make 80 0 in
      C.Poly.add_into f ~dst a b;
      checkb (Printf.sprintf "add_into p=%d" p) true (C.Poly.equal dst (expect ( + )));
      C.Poly.sub_into f ~dst a b;
      checkb (Printf.sprintf "sub_into p=%d" p) true (C.Poly.equal dst (expect ( - )));
      let alias = Array.copy a in
      C.Poly.add_into f ~dst:alias alias b;
      checkb (Printf.sprintf "add_into aliased p=%d" p) true (C.Poly.equal alias (expect ( + ))))
    edge_primes

let test_edge_pointwise () =
  List.iter
    (fun p ->
      let n = 64 in
      let plan = C.Ntt.plan ~n ~p in
      let a, b = edge_pairs p n in
      let acc = Array.init n (fun i -> b.(n - 1 - i)) in
      let dst = Array.make n 0 in
      C.Ntt.pointwise_into plan ~dst a b;
      checkb (Printf.sprintf "pointwise_into p=%d" p) true
        (C.Poly.equal dst (Array.map2 (fun x y -> x * y mod p) a b));
      let dst = Array.copy acc in
      C.Ntt.pointwise_add_into plan ~dst a b;
      checkb (Printf.sprintf "pointwise_add_into p=%d" p) true
        (C.Poly.equal dst (Array.init n (fun i -> (acc.(i) + (a.(i) * b.(i) mod p)) mod p))))
    edge_primes

let test_edge_ntt () =
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          let plan = C.Ntt.plan ~n ~p in
          let unit v i = Array.init n (fun j -> if j = i then v else 0) in
          (* Coefficients drawn from the boundary residues alone: their lazy
             partial sums land on the correction thresholds (2p - 1 against
             2p) far more often than uniform draws do. *)
          let vals = boundary_residues p and rng = Rng.create (Int64.of_int (p + n)) in
          let vectors =
            List.init 16 (fun k ->
                (Printf.sprintf "boundary-valued #%d" k, Array.init n (fun _ -> vals.(Rng.int rng 8))))
            @
            [
              ("all 0", Array.make n 0);
              ("all p-1", Array.make n (p - 1));
              ("alternating 0/p-1", Array.init n (fun i -> if i land 1 = 0 then 0 else p - 1));
              ("alternating p-1/0", Array.init n (fun i -> if i land 1 = 0 then p - 1 else 0));
            ]
            @ List.concat
                (List.init n (fun i ->
                     [
                       (Printf.sprintf "e%d" i, unit 1 i);
                       (Printf.sprintf "(p-1)e%d" i, unit (p - 1) i);
                     ]))
          in
          List.iter
            (fun (name, v) ->
              let check dir lazy_k ref_k =
                let x = Array.copy v and y = Array.copy v in
                lazy_k plan x;
                ref_k plan y;
                if not (C.Poly.equal x y) then
                  Alcotest.failf "%s of %s differs from the reference, p=%d n=%d" dir name p n
              in
              check "forward" C.Ntt.forward C.Ntt.forward_reference;
              check "inverse" C.Ntt.inverse C.Ntt.inverse_reference)
            vectors)
        [ 8; 64 ])
    edge_primes

(* ---------------- BGV ---------------- *)

let test_bgv_roundtrip () =
  let rng = Rng.create 101L in
  List.iter
    (fun params ->
      let sk, pk = C.Bgv.keygen params rng in
      let slots = Array.init 64 (fun i -> i * 7 mod params.C.Bgv.t) in
      let ct = C.Bgv.encrypt pk rng slots in
      let dec = C.Bgv.decrypt sk ct in
      Array.iteri (fun i v -> checki (Printf.sprintf "slot %d" i) v dec.(i)) slots)
    [ C.Bgv.ahe_params ~n:128 (); C.Bgv.fhe_params ~n:128 () ]

let test_bgv_homomorphic_add () =
  let rng = Rng.create 102L in
  let params = C.Bgv.ahe_params ~n:128 () in
  let sk, pk = C.Bgv.keygen params rng in
  let a = Array.init 128 (fun i -> i) and b = Array.init 128 (fun i -> 2 * i) in
  let ct = C.Bgv.add (C.Bgv.encrypt pk rng a) (C.Bgv.encrypt pk rng b) in
  let dec = C.Bgv.decrypt sk ct in
  for i = 0 to 127 do
    checki "sum slot" (3 * i) dec.(i)
  done;
  let ct2 = C.Bgv.sub (C.Bgv.encrypt pk rng b) (C.Bgv.encrypt pk rng a) in
  let dec2 = C.Bgv.decrypt sk ct2 in
  for i = 0 to 127 do
    checki "diff slot" i dec2.(i)
  done

let test_bgv_long_sum () =
  (* The aggregator's workload: hundreds of additions of one-hot rows. *)
  let rng = Rng.create 103L in
  let params = C.Bgv.ahe_params ~n:128 () in
  let sk, pk = C.Bgv.keygen params rng in
  let acc = ref (C.Bgv.encrypt pk rng (Array.make 128 0)) in
  let expected = Array.make 128 0 in
  for _ = 1 to 300 do
    let cat = Rng.int rng 128 in
    let row = Array.make 128 0 in
    row.(cat) <- 1;
    expected.(cat) <- expected.(cat) + 1;
    acc := C.Bgv.add !acc (C.Bgv.encrypt pk rng row)
  done;
  (* The analytic noise model is conservative; at this tiny ring it sits
     near zero while actual decryption still has ample headroom. *)
  checkb "noise budget not absurdly negative" true
    (C.Bgv.noise_budget_bits !acc > -10.0);
  Alcotest.check Alcotest.(array int) "histogram" expected (C.Bgv.decrypt sk !acc)

let test_bgv_mul_plain () =
  let rng = Rng.create 104L in
  let params = C.Bgv.fhe_params ~n:128 () in
  let sk, pk = C.Bgv.keygen params rng in
  let a = Array.init 128 (fun i -> i + 1) in
  let mask = Array.init 128 (fun i -> i mod 2) in
  let dec = C.Bgv.decrypt sk (C.Bgv.mul_plain (C.Bgv.encrypt pk rng a) mask) in
  for i = 0 to 127 do
    checki "masked slot" ((i + 1) * (i mod 2) mod params.C.Bgv.t) dec.(i)
  done

let test_bgv_mul_and_relin () =
  let rng = Rng.create 105L in
  let params = C.Bgv.fhe_params ~n:128 () in
  let sk, pk = C.Bgv.keygen params rng in
  let a = Array.init 128 (fun i -> i) and b = Array.init 128 (fun i -> i + 2) in
  let prod = C.Bgv.mul (C.Bgv.encrypt pk rng a) (C.Bgv.encrypt pk rng b) in
  checki "degree 2 before relin" 2 (C.Bgv.ciphertext_degree prod);
  let want = Array.init 128 (fun i -> i * (i + 2) mod params.C.Bgv.t) in
  Alcotest.check Alcotest.(array int) "degree-2 decrypt" want (C.Bgv.decrypt sk prod);
  let rk = C.Bgv.relin_keygen params rng sk in
  let lin = C.Bgv.relinearize rk prod in
  checki "degree 1 after relin" 1 (C.Bgv.ciphertext_degree lin);
  Alcotest.check Alcotest.(array int) "relinearized decrypt" want (C.Bgv.decrypt sk lin)

let test_bgv_threshold () =
  let rng = Rng.create 106L in
  let params = C.Bgv.ahe_params ~n:128 () in
  let sk, pk = C.Bgv.keygen params rng in
  let slots = Array.init 128 (fun i -> i * 3 mod params.C.Bgv.t) in
  let ct = C.Bgv.encrypt pk rng slots in
  List.iter
    (fun parties ->
      let shares = C.Bgv.share_secret_key params rng sk ~parties in
      let partials =
        Array.to_list
          (Array.map (fun sh -> C.Bgv.partial_decrypt params rng sh ct) shares)
      in
      Alcotest.check
        Alcotest.(array int)
        (Printf.sprintf "threshold %d parties" parties)
        slots
        (C.Bgv.combine_partials params ct partials))
    [ 2; 5; 11 ]

let test_bgv_threshold_missing_share_garbage () =
  (* Dropping one additive share must NOT reconstruct the plaintext. *)
  let rng = Rng.create 107L in
  let params = C.Bgv.ahe_params ~n:128 () in
  let sk, pk = C.Bgv.keygen params rng in
  let slots = Array.init 128 (fun i -> i) in
  let ct = C.Bgv.encrypt pk rng slots in
  let shares = C.Bgv.share_secret_key params rng sk ~parties:5 in
  let partials =
    Array.to_list
      (Array.map
         (fun sh -> C.Bgv.partial_decrypt params rng sh ct)
         (Array.sub shares 0 4))
  in
  let out = C.Bgv.combine_partials params ct partials in
  checkb "incomplete shares give garbage" true (out <> slots)

let test_bgv_sk_encryption () =
  let rng = Rng.create 108L in
  let params = C.Bgv.fhe_params ~n:128 () in
  let sk, _pk = C.Bgv.keygen params rng in
  let slots = Array.init 128 (fun i -> i mod 97) in
  Alcotest.check
    Alcotest.(array int)
    "symmetric roundtrip" slots
    (C.Bgv.decrypt sk (C.Bgv.encrypt_with_sk sk rng slots))

let test_bgv_param_validation () =
  let bad n q t =
    try
      C.Bgv.validate { C.Bgv.n; q_primes = q; t; sigma = 3.2 };
      false
    with Invalid_argument _ -> true
  in
  checkb "n not pow2" true (bad 100 [ 998244353 ] 12289);
  checkb "q not ntt friendly" true (bad 256 [ 7 ] 12289);
  checkb "t not 1 mod 2n" true (bad 4096 [ 998244353 ] 12289);
  checkb "too many primes" true (bad 256 [ 998244353; 754974721; 998244353 ] 12289)

let test_bgv_find_plaintext_modulus () =
  let t = C.Bgv.find_plaintext_modulus ~n:1024 ~min_t:5000 in
  checkb "prime" true (C.Field.is_prime t);
  checki "1 mod 2n" 1 (t mod 2048);
  checkb ">= min" true (t >= 5000)

let prop_bgv_add_matches_plaintext =
  QCheck.Test.make ~name:"BGV addition homomorphism (random)" ~count:20
    QCheck.(
      pair
        (list_of_size (Gen.return 32) (int_bound 100))
        (list_of_size (Gen.return 32) (int_bound 100)))
    (fun (a, b) ->
      let rng = Rng.create 109L in
      let params = C.Bgv.ahe_params ~n:64 () in
      let sk, pk = C.Bgv.keygen params rng in
      let a = Array.of_list a and b = Array.of_list b in
      let dec =
        C.Bgv.decrypt sk (C.Bgv.add (C.Bgv.encrypt pk rng a) (C.Bgv.encrypt pk rng b))
      in
      Array.for_all2 ( = ) (Array.map2 ( + ) a b) (Array.sub dec 0 32))

let prop_bgv_mul_matches_plaintext =
  QCheck.Test.make ~name:"BGV multiplication homomorphism (random)" ~count:10
    QCheck.(
      pair
        (list_of_size (Gen.return 32) (int_bound 100))
        (list_of_size (Gen.return 32) (int_bound 100)))
    (fun (a, b) ->
      let rng = Rng.create 111L in
      let params = C.Bgv.fhe_params ~n:64 () in
      let sk, pk = C.Bgv.keygen params rng in
      let rk = C.Bgv.relin_keygen params rng sk in
      let a = Array.of_list a and b = Array.of_list b in
      let prod = C.Bgv.mul (C.Bgv.encrypt pk rng a) (C.Bgv.encrypt pk rng b) in
      let dec = C.Bgv.decrypt sk (C.Bgv.relinearize rk prod) in
      Array.for_all2 ( = )
        (Array.map2 (fun x y -> x * y mod params.C.Bgv.t) a b)
        (Array.sub dec 0 32))

let prop_bgv_mul_then_add_matches_plaintext =
  (* The aggregator's FHE workload shape: a masked product accumulated with
     a fresh encryption. decrypt(relin(enc a * enc b) + enc c) = a*b + c. *)
  QCheck.Test.make ~name:"BGV mul-then-add homomorphism (random)" ~count:10
    QCheck.(
      triple
        (list_of_size (Gen.return 16) (int_bound 50))
        (list_of_size (Gen.return 16) (int_bound 50))
        (list_of_size (Gen.return 16) (int_bound 50)))
    (fun (a, b, c) ->
      let rng = Rng.create 112L in
      let params = C.Bgv.fhe_params ~n:64 () in
      let sk, pk = C.Bgv.keygen params rng in
      let rk = C.Bgv.relin_keygen params rng sk in
      let a = Array.of_list a and b = Array.of_list b and c = Array.of_list c in
      let prod =
        C.Bgv.relinearize rk
          (C.Bgv.mul (C.Bgv.encrypt pk rng a) (C.Bgv.encrypt pk rng b))
      in
      let dec = C.Bgv.decrypt sk (C.Bgv.add prod (C.Bgv.encrypt pk rng c)) in
      let want = Array.init 16 (fun i -> ((a.(i) * b.(i)) + c.(i)) mod params.C.Bgv.t) in
      Array.for_all2 ( = ) want (Array.sub dec 0 16))

let test_bgv_galois_permutes_slots () =
  let rng = Rng.create 110L in
  let p = C.Bgv.fhe_params ~n:64 () in
  let sk, pk = C.Bgv.keygen p rng in
  let slots = Array.init 64 (fun i -> i + 1) in
  let ct = C.Bgv.encrypt pk rng slots in
  let k = C.Bgv.rotation_generator p in
  let gk = C.Bgv.galois_keygen p rng sk ~k in
  let dec = C.Bgv.decrypt sk (C.Bgv.apply_galois gk ct) in
  let perm = C.Bgv.slot_rotation_of_galois p ~k in
  Array.iteri
    (fun i v -> checki (Printf.sprintf "slot %d moved" i) (v mod p.C.Bgv.t) dec.(perm.(i)))
    slots;
  (* The rotation group splits the slots into two cycles of length n/2 —
     the hypercube structure homomorphic scans ride on. *)
  let seen = Array.make 64 false in
  let cycles = ref 0 and lengths = ref [] in
  for i = 0 to 63 do
    if not seen.(i) then begin
      incr cycles;
      let len = ref 0 and j = ref i in
      while not seen.(!j) do
        seen.(!j) <- true;
        incr len;
        j := perm.(!j)
      done;
      lengths := !len :: !lengths
    end
  done;
  checki "two cycles" 2 !cycles;
  checkb "each of length n/2" true (List.for_all (( = ) 32) !lengths)

let test_bgv_rotate_and_add_row_sums () =
  (* Homomorphic running sums by rotate-and-add doubling: after log2(n/2)
     steps every slot holds the sum of its rotation row — the primitive the
     planner's heRotate scan instantiation is priced on. *)
  let rng = Rng.create 111L in
  let p = C.Bgv.fhe_params ~n:64 () in
  let sk, pk = C.Bgv.keygen p rng in
  let slots = Array.init 64 (fun i -> i + 1) in
  let base = C.Bgv.rotation_generator p in
  let perm1 = C.Bgv.slot_rotation_of_galois p ~k:base in
  (* Row membership from the base rotation's cycles. *)
  let row = Array.make 64 (-1) in
  let seen = Array.make 64 false in
  let next_row = ref 0 in
  for i = 0 to 63 do
    if not seen.(i) then begin
      let j = ref i in
      while not seen.(!j) do
        seen.(!j) <- true;
        row.(!j) <- !next_row;
        j := perm1.(!j)
      done;
      incr next_row
    end
  done;
  let row_sum r =
    let acc = ref 0 in
    Array.iteri (fun i v -> if row.(i) = r then acc := !acc + v) slots;
    !acc mod p.C.Bgv.t
  in
  let ct = ref (C.Bgv.encrypt pk rng slots) in
  let k = ref base in
  for _ = 1 to 5 (* log2 32 *) do
    let gk = C.Bgv.galois_keygen p rng sk ~k:!k in
    ct := C.Bgv.add !ct (C.Bgv.apply_galois gk !ct);
    k := !k * !k mod (2 * 64)
  done;
  let dec = C.Bgv.decrypt sk !ct in
  Array.iteri
    (fun i r -> checki (Printf.sprintf "slot %d holds its row sum" i) (row_sum r) dec.(i))
    row

let test_bgv_cross_params_rejected () =
  let rng = Rng.create 112L in
  let p1 = C.Bgv.ahe_params ~n:64 () and p2 = C.Bgv.ahe_params ~n:128 () in
  let _, pk1 = C.Bgv.keygen p1 rng in
  let _, pk2 = C.Bgv.keygen p2 rng in
  let c1 = C.Bgv.encrypt pk1 rng [| 1 |] and c2 = C.Bgv.encrypt pk2 rng [| 2 |] in
  checkb "mixed-parameter add rejected" true
    (try
       ignore (C.Bgv.add c1 c2);
       false
     with Invalid_argument _ -> true)

let test_bgv_values_reduced_mod_t () =
  let rng = Rng.create 113L in
  let p = C.Bgv.ahe_params ~n:64 () in
  let sk, pk = C.Bgv.keygen p rng in
  let big = p.C.Bgv.t + 5 in
  let dec = C.Bgv.decrypt sk (C.Bgv.encrypt pk rng [| big |]) in
  checki "values wrap mod t" 5 dec.(0)

let test_bgv_degree2_add () =
  (* Adding a degree-2 product to a fresh ciphertext must still decrypt. *)
  let rng = Rng.create 114L in
  let p = C.Bgv.fhe_params ~n:64 () in
  let sk, pk = C.Bgv.keygen p rng in
  let a = Array.init 64 (fun i -> i) in
  let prod = C.Bgv.mul (C.Bgv.encrypt pk rng a) (C.Bgv.encrypt pk rng a) in
  let shifted = C.Bgv.add prod (C.Bgv.encrypt pk rng (Array.make 64 7)) in
  let want = Array.init 64 (fun i -> ((i * i) + 7) mod p.C.Bgv.t) in
  Alcotest.check Alcotest.(array int) "deg2 + deg1" want (C.Bgv.decrypt sk shifted)

let test_bgv_mul_rejects_degree2_inputs () =
  let rng = Rng.create 115L in
  let p = C.Bgv.fhe_params ~n:64 () in
  let _sk, pk = C.Bgv.keygen p rng in
  let a = C.Bgv.encrypt pk rng [| 1 |] in
  let prod = C.Bgv.mul a a in
  checkb "degree-2 multiply rejected" true
    (try
       ignore (C.Bgv.mul prod a);
       false
     with Invalid_argument _ -> true)

let test_ntt_large_vs_naive () =
  let n = 1024 in
  let plan = C.Ntt.plan ~n ~p:p_test in
  let rng = Rng.create 116L in
  let a = C.Poly.random_uniform fld rng n in
  let b = C.Poly.random_uniform fld rng n in
  checkb "n=1024 NTT matches naive" true
    (C.Ntt.multiply plan a b = C.Poly.mul_naive fld a b)

let test_bgv_serialization_roundtrip () =
  let rng = Rng.create 117L in
  List.iter
    (fun p ->
      let sk, pk = C.Bgv.keygen p rng in
      let slots = Array.init 64 (fun i -> (i * 13) mod p.C.Bgv.t) in
      let ct = C.Bgv.encrypt pk rng slots in
      let wire = C.Bgv.serialize_ciphertext ct in
      checki "wire size matches the accounting"
        (C.Bgv.serialized_bytes p 1) (String.length wire);
      let back = C.Bgv.deserialize_ciphertext p wire in
      Alcotest.check Alcotest.(array int) "decrypts identically"
        (C.Bgv.decrypt sk ct) (C.Bgv.decrypt sk back);
      (* degree-2 ciphertexts too *)
      (if List.length p.C.Bgv.q_primes = 2 then begin
         let prod = C.Bgv.mul ct ct in
         let wire2 = C.Bgv.serialize_ciphertext prod in
         checki "degree-2 size" (C.Bgv.serialized_bytes p 2) (String.length wire2);
         Alcotest.check Alcotest.(array int) "degree-2 roundtrip"
           (C.Bgv.decrypt sk prod)
           (C.Bgv.decrypt sk (C.Bgv.deserialize_ciphertext p wire2))
       end))
    [ C.Bgv.ahe_params ~n:64 (); C.Bgv.fhe_params ~n:64 () ]

let test_bgv_deserialize_rejects () =
  let rng = Rng.create 118L in
  let p = C.Bgv.ahe_params ~n:64 () in
  let _sk, pk = C.Bgv.keygen p rng in
  let wire = C.Bgv.serialize_ciphertext (C.Bgv.encrypt pk rng [| 1 |]) in
  checkb "truncated rejected" true
    (try
       ignore (C.Bgv.deserialize_ciphertext p (String.sub wire 0 50));
       false
     with Invalid_argument _ -> true);
  let p2 = C.Bgv.ahe_params ~n:128 () in
  checkb "wrong params rejected" true
    (try
       ignore (C.Bgv.deserialize_ciphertext p2 wire);
       false
     with Invalid_argument _ -> true);
  (* Non-canonical coefficient: set 4 bytes to 0xFF. *)
  let bad = Bytes.of_string wire in
  Bytes.set_int32_le bad 20 0x7FFFFFFFl;
  checkb "non-canonical coefficient rejected" true
    (try
       ignore (C.Bgv.deserialize_ciphertext p (Bytes.to_string bad));
       false
     with Invalid_argument _ -> true)

(* ---------------- Shamir / VSR ---------------- *)

let prop_shamir_reconstruct =
  QCheck.Test.make ~name:"Shamir reconstruct from any t+1 shares" ~count:100
    QCheck.(pair (int_bound (p_test - 1)) (int_range 1 5))
    (fun (secret, threshold) ->
      let rng = Rng.create (Int64.of_int (secret + threshold)) in
      let parties = (2 * threshold) + 1 in
      let shares = C.Shamir.share fld rng ~secret ~threshold ~parties in
      let sub = Array.to_list (Array.sub shares 0 (threshold + 1)) in
      let sub2 =
        Array.to_list (Array.sub shares (parties - threshold - 1) (threshold + 1))
      in
      C.Shamir.reconstruct fld sub = secret
      && C.Shamir.reconstruct fld sub2 = secret)

let test_shamir_linear () =
  let rng = Rng.create 201L in
  let s1 = C.Shamir.share fld rng ~secret:100 ~threshold:2 ~parties:5 in
  let s2 = C.Shamir.share fld rng ~secret:23 ~threshold:2 ~parties:5 in
  let sums = Array.map2 (C.Shamir.add_in fld) s1 s2 in
  checki "share addition" 123 (C.Shamir.reconstruct fld (Array.to_list sums));
  let scaled = Array.map (C.Shamir.scale_in fld 7) s1 in
  checki "share scaling" 700 (C.Shamir.reconstruct fld (Array.to_list scaled))

let test_shamir_rejects () =
  let rng = Rng.create 202L in
  Alcotest.check_raises "threshold >= parties"
    (Invalid_argument "Shamir.share: need 0 <= threshold < parties") (fun () ->
      ignore (C.Shamir.share fld rng ~secret:1 ~threshold:5 ~parties:5));
  let shares = C.Shamir.share fld rng ~secret:1 ~threshold:1 ~parties:3 in
  Alcotest.check_raises "duplicate shares"
    (Invalid_argument "Shamir.reconstruct: duplicate share indices") (fun () ->
      ignore (C.Shamir.reconstruct fld [ shares.(0); shares.(0) ]))

let test_shamir_robust_corrects_cheaters () =
  let rng = Rng.create 204L in
  (* n = 9 shares, threshold 3: decoding radius floor((9-3-1)/2) = 2. *)
  let shares = C.Shamir.share fld rng ~secret:424242 ~threshold:3 ~parties:9 in
  let corrupt k =
    Array.mapi
      (fun i (s : C.Shamir.share) ->
        if i < k then { s with C.Shamir.value = C.Field.add fld s.C.Shamir.value 99 }
        else s)
      shares
    |> Array.to_list
  in
  (match C.Shamir.reconstruct_robust fld ~threshold:3 (corrupt 0) with
  | Ok (v, []) -> checki "clean decode" 424242 v
  | _ -> Alcotest.fail "clean decode failed");
  (match C.Shamir.reconstruct_robust fld ~threshold:3 (corrupt 1) with
  | Ok (v, [ 1 ]) -> checki "1 error corrected" 424242 v
  | Ok (_, ch) ->
      Alcotest.failf "wrong cheater list [%s]"
        (String.concat ";" (List.map string_of_int ch))
  | Error m -> Alcotest.fail m);
  (match C.Shamir.reconstruct_robust fld ~threshold:3 (corrupt 2) with
  | Ok (v, [ 1; 2 ]) -> checki "2 errors corrected" 424242 v
  | Ok (_, ch) ->
      Alcotest.failf "wrong cheater list [%s]"
        (String.concat ";" (List.map string_of_int ch))
  | Error m -> Alcotest.fail m);
  (* 3 errors exceed the radius: must refuse, never return a wrong secret. *)
  match C.Shamir.reconstruct_robust fld ~threshold:3 (corrupt 3) with
  | Error _ -> ()
  | Ok (v, _) -> checkb "beyond radius must not mis-decode" true (v = 424242)

let prop_shamir_robust =
  QCheck.Test.make ~name:"Berlekamp-Welch corrects up to the radius" ~count:50
    QCheck.(triple (int_bound (p_test - 1)) (int_range 1 4) (int_range 0 2))
    (fun (secret, threshold, errors) ->
      let rng = Rng.create (Int64.of_int (secret lxor (threshold * 131))) in
      let parties = threshold + 1 + (2 * errors) + 1 in
      let shares = C.Shamir.share fld rng ~secret ~threshold ~parties in
      (* corrupt [errors] random distinct shares with random garbage *)
      let victims = Arb_util.Rng.sample_without_replacement rng errors parties in
      Array.iter
        (fun i ->
          shares.(i) <-
            { (shares.(i)) with
              C.Shamir.value =
                C.Field.add fld shares.(i).C.Shamir.value (1 + Arb_util.Rng.int rng 1000) })
        victims;
      match C.Shamir.reconstruct_robust fld ~threshold (Array.to_list shares) with
      | Ok (v, cheaters) ->
          v = secret
          && List.sort compare cheaters
             = List.sort compare (Array.to_list (Array.map (fun i -> i + 1) victims))
      | Error _ -> false)

let prop_shamir_never_silently_wrong =
  (* Corruption beyond the decoding radius must be detected: the decoder
     either refuses or still lands on the true secret — it never presents
     a wrong value as a successful reconstruction. *)
  QCheck.Test.make ~name:"beyond-radius corruption never mis-decodes silently"
    ~count:100
    QCheck.(triple (int_bound (p_test - 1)) (int_range 1 3) (int_range 0 6))
    (fun (secret, threshold, extra) ->
      let rng = Rng.create (Int64.of_int (secret + (31 * threshold) + extra)) in
      let parties = (2 * threshold) + 1 in
      let radius = (parties - threshold - 1) / 2 in
      let errors = min parties (radius + 1 + extra) in
      let shares = C.Shamir.share fld rng ~secret ~threshold ~parties in
      for i = 0 to errors - 1 do
        shares.(i) <-
          {
            (shares.(i)) with
            C.Shamir.value =
              C.Field.add fld shares.(i).C.Shamir.value (1 + Rng.int rng 9999);
          }
      done;
      match C.Shamir.reconstruct_robust fld ~threshold (Array.to_list shares) with
      | Error _ -> true
      | Ok (v, _) -> v = secret)

let prop_vsr_roundtrip =
  QCheck.Test.make ~name:"VSR moves a secret between committees" ~count:50
    QCheck.(int_bound (p_test - 1))
    (fun secret ->
      let rng = Rng.create (Int64.of_int (secret + 7)) in
      (* Committee A: threshold 2, 5 members. *)
      let a_shares = C.Shamir.share fld rng ~secret ~threshold:2 ~parties:5 in
      (* Each member of A re-shares to committee B: threshold 3, 7 members. *)
      let subs =
        Array.map
          (fun sh ->
            fst (C.Vsr.redistribute fld rng sh ~new_threshold:3 ~new_parties:7))
          a_shares
      in
      let sender_idxs =
        Array.to_list (Array.map (fun (s : C.Shamir.share) -> s.C.Shamir.idx) a_shares)
      in
      let b_shares =
        List.init 7 (fun j ->
            let pairs =
              Array.to_list
                (Array.map
                   (fun member_subs ->
                     let sub = member_subs.(j) in
                     (sub.C.Vsr.from_idx, sub.C.Vsr.value))
                   subs)
            in
            C.Vsr.combine fld ~sender_idxs pairs ~to_idx:(j + 1))
      in
      C.Shamir.reconstruct fld b_shares = secret)

let test_vsr_commitments () =
  let rng = Rng.create 203L in
  let share = { C.Shamir.idx = 2; value = 12345 } in
  let subs, commits = C.Vsr.redistribute fld rng share ~new_threshold:2 ~new_parties:5 in
  Array.iteri
    (fun i sub ->
      checkb "commitment verifies" true (C.Vsr.verify_subshare sub commits.(i));
      let bad = { sub with C.Vsr.value = sub.C.Vsr.value + 1 } in
      checkb "tampered subshare fails" false (C.Vsr.verify_subshare bad commits.(i)))
    subs

(* ---------------- ZKP ---------------- *)

let test_zkp_one_hot () =
  let stmt = C.Zkp.One_hot { length = 8 } in
  let w = [| 0; 0; 1; 0; 0; 0; 0; 0 |] in
  let proof = C.Zkp.prove stmt ~witness:w ~prover:"d1" ~nonce:"q1" in
  checkb "verifies" true (C.Zkp.verify stmt proof ~prover:"d1" ~nonce:"q1");
  checkb "replay to other query fails" false
    (C.Zkp.verify stmt proof ~prover:"d1" ~nonce:"q2");
  checkb "stolen proof fails" false (C.Zkp.verify stmt proof ~prover:"d2" ~nonce:"q1");
  checkb "forged proof fails" false
    (C.Zkp.verify stmt
       (C.Zkp.forge stmt ~prover:"d1" ~nonce:"q1")
       ~prover:"d1" ~nonce:"q1")

let test_zkp_satisfies () =
  checkb "one-hot ok" true (C.Zkp.satisfies (C.Zkp.One_hot { length = 3 }) [| 0; 1; 0 |]);
  checkb "two ones bad" false
    (C.Zkp.satisfies (C.Zkp.One_hot { length = 3 }) [| 1; 1; 0 |]);
  checkb "all zero bad" false
    (C.Zkp.satisfies (C.Zkp.One_hot { length = 3 }) [| 0; 0; 0 |]);
  checkb "range ok" true
    (C.Zkp.satisfies (C.Zkp.Range { lo = 0; hi = 10; count = 2 }) [| 3; 10 |]);
  checkb "range violation" false
    (C.Zkp.satisfies (C.Zkp.Range { lo = 0; hi = 10; count = 2 }) [| 3; 11 |]);
  checkb "binned one-hot ok" true
    (C.Zkp.satisfies (C.Zkp.One_hot_binned { bins = 2; length = 2 }) [| 0; 0; 1; 0 |]);
  checkb "bits ok" true (C.Zkp.satisfies (C.Zkp.Bits { count = 3 }) [| 1; 0; 1 |])

let test_zkp_prove_rejects_bad_witness () =
  Alcotest.check_raises "unsatisfying witness"
    (Invalid_argument "Zkp.prove: witness does not satisfy the statement") (fun () ->
      ignore
        (C.Zkp.prove (C.Zkp.One_hot { length = 2 }) ~witness:[| 1; 1 |] ~prover:"d"
           ~nonce:"n"))

(* ---------------- Sortition ---------------- *)

let registry n = C.Sortition.Registry.create ~seed:7L ~n

let select = C.Sortition.Registry.select

let test_sortition_deterministic () =
  let reg = registry 100 in
  let a1 = select reg ~block:"B" ~query_id:1 ~committees:3 ~size:5 in
  let a2 = select reg ~block:"B" ~query_id:1 ~committees:3 ~size:5 in
  Alcotest.check
    Alcotest.(array (array int))
    "same committees" a1.C.Sortition.committees a2.C.Sortition.committees

let test_sortition_block_changes_selection () =
  let reg = registry 100 in
  let a1 = select reg ~block:"B1" ~query_id:1 ~committees:3 ~size:5 in
  let a2 = select reg ~block:"B2" ~query_id:1 ~committees:3 ~size:5 in
  checkb "different blocks give different committees" true
    (a1.C.Sortition.committees <> a2.C.Sortition.committees)

let test_sortition_disjoint () =
  let a = select (registry 200) ~block:"B" ~query_id:2 ~committees:5 ~size:7 in
  let all = Array.concat (Array.to_list a.C.Sortition.committees) in
  checki "everyone on at most one committee" (Array.length all)
    (List.length (List.sort_uniq compare (Array.to_list all)))

let test_sortition_verify_member () =
  let reg = registry 60 in
  let a = select reg ~block:"B" ~query_id:3 ~committees:4 ~size:5 in
  Array.iteri
    (fun c members ->
      Array.iter
        (fun id ->
          match
            C.Sortition.Registry.verify_member reg ~block:"B" ~query_id:3
              ~committees:4 ~size:5 ~id
          with
          | Some c' -> checki "membership verifiable" c c'
          | None -> Alcotest.fail "selected member not verifiable")
        members)
    a.C.Sortition.committees

let test_sortition_reassign () =
  let a = select (registry 60) ~block:"B" ~query_id:4 ~committees:3 ~size:5 in
  let a' = C.Sortition.reassign_failed a ~failed:1 in
  checki "failed committee emptied" 0 (Array.length a'.C.Sortition.committees.(1));
  checki "successor absorbed members" 10 (Array.length a'.C.Sortition.committees.(2))

let test_sortition_rejects () =
  let reg = registry 10 in
  Alcotest.check_raises "not enough devices"
    (Invalid_argument "Sortition.select: not enough devices") (fun () ->
      ignore (select reg ~block:"B" ~query_id:1 ~committees:3 ~size:5))

let test_sortition_roughly_uniform () =
  (* Across many queries, each device should serve with similar frequency. *)
  let reg = registry 40 in
  let counts = Array.make 40 0 in
  for q = 1 to 300 do
    let a =
      select reg ~block:(Printf.sprintf "B%d" q) ~query_id:q ~committees:2
        ~size:5
    in
    Array.iter
      (Array.iter (fun id -> counts.(id) <- counts.(id) + 1))
      a.C.Sortition.committees
  done;
  (* Expected 300*10/40 = 75 selections each. *)
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "device %d frequency %d" i c) true (c > 40 && c < 115))
    counts

(* [Registry.verify_members] against its oracle, [verify_member] per id.
   The ids mix select's members, unselected ids (from the members' blocks
   and others), repeats and out-of-range ids. *)
let prop_verify_members_oracle =
  QCheck.Test.make ~name:"Registry.verify_members = verify_member per id" ~count:10
    QCheck.(
      quad (int_bound 1_000_000) (int_bound 2) (pair (int_range 1 4) (int_range 1 5))
        (pair small_nat (int_bound 1_000_000)))
    (fun (seed, ni, (committees, size), (query_id, salt)) ->
      let n = [| 64; 4097; 20_000 |].(ni) in
      let reg = C.Sortition.Registry.create ~seed:(Int64.of_int seed) ~n in
      let block = Printf.sprintf "B%d" salt in
      let a = C.Sortition.Registry.select reg ~block ~query_id ~committees ~size in
      let members = Array.concat (Array.to_list a.C.Sortition.committees) in
      let last = members.(Array.length members - 1) in
      (* The first id of the last member's block that select left out. *)
      let unselected =
        let rec go id = if Array.mem id members then go (id + 1) else id in
        go (last / C.Sortition.Registry.block_size * C.Sortition.Registry.block_size)
      in
      let rng = Rng.create (Int64.of_int (seed + salt)) in
      let ids =
        [|
          members.(0); last; unselected; Rng.int rng n; Rng.int rng n;
          members.(Array.length members / 2); members.(0); -1; n; n + 4096;
        |]
      in
      let oracle =
        Array.map
          (fun id -> C.Sortition.Registry.verify_member reg ~block ~query_id ~committees ~size ~id)
          ids
      in
      C.Sortition.Registry.verify_members reg ~block ~query_id ~committees ~size ids = oracle)

let () =
  Alcotest.run "arb_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha_vectors;
          Alcotest.test_case "million a" `Slow test_sha_million_a;
          Alcotest.test_case "incremental" `Quick test_sha_incremental;
          Alcotest.test_case "padding boundaries" `Quick test_sha_padding_boundaries;
          Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "context reuse at offsets" `Quick test_sha_context_reuse;
          Alcotest.test_case "keyed hmac = hmac" `Quick test_hmac_keyed;
          qtest prop_sha_deterministic_and_sensitive;
        ] );
      ( "merkle",
        [
          qtest prop_merkle_inclusion;
          Alcotest.test_case "tamper detection" `Quick test_merkle_tamper;
          Alcotest.test_case "domain separation" `Quick
            test_merkle_second_preimage_separation;
          Alcotest.test_case "empty rejected" `Quick test_merkle_empty_rejected;
        ] );
      ( "signatures",
        [
          Alcotest.test_case "roundtrip" `Quick test_sig_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_sig_deterministic;
          Alcotest.test_case "tamper" `Quick test_sig_tamper;
          Alcotest.test_case "swapped preimage" `Quick test_sig_swapped_preimage;
        ] );
      ( "field",
        [
          qtest prop_field_ring_laws;
          qtest prop_field_inverse;
          Alcotest.test_case "primality" `Quick test_field_is_prime;
          Alcotest.test_case "root of unity" `Quick test_field_root_of_unity;
          Alcotest.test_case "centering" `Quick test_field_center;
          Alcotest.test_case "rejects" `Quick test_field_rejects;
        ] );
      ( "ntt",
        [
          qtest prop_ntt_roundtrip;
          qtest prop_ntt_vs_naive;
          Alcotest.test_case "negacyclic wraparound" `Quick
            test_ntt_negacyclic_wraparound;
          Alcotest.test_case "rejects" `Quick test_ntt_rejects;
          Alcotest.test_case "n=1024 vs naive" `Slow test_ntt_large_vs_naive;
          qtest prop_field_barrett_vs_mod;
          qtest prop_ntt_lazy_vs_reference;
          qtest prop_ntt_multiply_vs_naive_all_rns;
          qtest prop_poly_into_matches_allocating;
          Alcotest.test_case "edges: add_into/sub_into vs mod" `Quick test_edge_poly_ops;
          Alcotest.test_case "edges: pointwise vs mod" `Quick test_edge_pointwise;
          Alcotest.test_case "edges: forward/inverse vs reference" `Quick test_edge_ntt;
        ] );
      ( "bgv",
        [
          Alcotest.test_case "roundtrip" `Quick test_bgv_roundtrip;
          Alcotest.test_case "homomorphic add/sub" `Quick test_bgv_homomorphic_add;
          Alcotest.test_case "long sum (aggregator workload)" `Slow test_bgv_long_sum;
          Alcotest.test_case "mul_plain" `Quick test_bgv_mul_plain;
          Alcotest.test_case "mul + relinearize" `Quick test_bgv_mul_and_relin;
          Alcotest.test_case "threshold decryption" `Quick test_bgv_threshold;
          Alcotest.test_case "missing share gives garbage" `Quick
            test_bgv_threshold_missing_share_garbage;
          Alcotest.test_case "symmetric encryption" `Quick test_bgv_sk_encryption;
          Alcotest.test_case "parameter validation" `Quick test_bgv_param_validation;
          Alcotest.test_case "plaintext modulus search" `Quick
            test_bgv_find_plaintext_modulus;
          qtest prop_bgv_add_matches_plaintext;
          qtest prop_bgv_mul_matches_plaintext;
          qtest prop_bgv_mul_then_add_matches_plaintext;
          Alcotest.test_case "galois permutes slots" `Quick
            test_bgv_galois_permutes_slots;
          Alcotest.test_case "rotate-and-add row sums" `Slow
            test_bgv_rotate_and_add_row_sums;
          Alcotest.test_case "cross-parameter rejection" `Quick
            test_bgv_cross_params_rejected;
          Alcotest.test_case "values reduced mod t" `Quick test_bgv_values_reduced_mod_t;
          Alcotest.test_case "degree-2 plus degree-1" `Quick test_bgv_degree2_add;
          Alcotest.test_case "mul rejects degree-2 inputs" `Quick
            test_bgv_mul_rejects_degree2_inputs;
          Alcotest.test_case "serialization roundtrip" `Quick
            test_bgv_serialization_roundtrip;
          Alcotest.test_case "deserialize rejects malformed" `Quick
            test_bgv_deserialize_rejects;
        ] );
      ( "shamir-vsr",
        [
          qtest prop_shamir_reconstruct;
          Alcotest.test_case "linearity" `Quick test_shamir_linear;
          Alcotest.test_case "rejects" `Quick test_shamir_rejects;
          Alcotest.test_case "robust reconstruction (Berlekamp-Welch)" `Quick
            test_shamir_robust_corrects_cheaters;
          qtest prop_shamir_robust;
          qtest prop_shamir_never_silently_wrong;
          qtest prop_vsr_roundtrip;
          Alcotest.test_case "vsr commitments" `Quick test_vsr_commitments;
        ] );
      ( "zkp",
        [
          Alcotest.test_case "one-hot prove/verify" `Quick test_zkp_one_hot;
          Alcotest.test_case "satisfies" `Quick test_zkp_satisfies;
          Alcotest.test_case "bad witness rejected" `Quick
            test_zkp_prove_rejects_bad_witness;
        ] );
      ( "sortition",
        [
          Alcotest.test_case "deterministic" `Quick test_sortition_deterministic;
          Alcotest.test_case "block sensitivity" `Quick
            test_sortition_block_changes_selection;
          Alcotest.test_case "disjoint committees" `Quick test_sortition_disjoint;
          Alcotest.test_case "verify_member" `Quick test_sortition_verify_member;
          qtest prop_verify_members_oracle;
          Alcotest.test_case "churn reassignment" `Quick test_sortition_reassign;
          Alcotest.test_case "rejects" `Quick test_sortition_rejects;
          Alcotest.test_case "roughly uniform" `Slow test_sortition_roughly_uniform;
        ] );
    ]
