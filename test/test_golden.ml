(* Golden protocol bytes.

   Every other differential in the suite compares two runs of the same code
   (sharded == full, worker identity, socket == in-process), so a hashing or
   signing kernel that moved one byte would pass all of them. This gate pins
   the bytes themselves: Lamport keys and signatures, the key-generation
   ceremony's certificate, the hierarchical registry's roots, committees and
   device secrets, and one end-to-end execution. The expected values are
   literals recorded from an earlier build; a failure lists every case that
   moved, with the value it now has. *)

module C = Arb_crypto
module R = Arb_runtime
module Q = Arb_queries.Registry
module Rng = Arb_util.Rng

let hex = C.Sha256.to_hex
let hash s = hex (C.Sha256.digest s)

(* Check each (case, compute) against its recorded value and fail once,
   naming every case whose value moved. *)
let check_cases ~expected cases () =
  let moved =
    List.filter_map
      (fun (name, compute) ->
        let got = compute () in
        match List.assoc_opt name expected with
        | Some want when String.equal want got -> None
        | Some want -> Some (Printf.sprintf "%s:\n    want %S\n    got  %S" name want got)
        | None -> Some (Printf.sprintf "%s: no recorded value; got %S" name got))
      cases
  in
  if moved <> [] then
    Alcotest.failf "%d of %d protocol-byte cases moved:\n  %s" (List.length moved)
      (List.length cases)
      (String.concat "\n  " moved)

(* ---------------- Lamport signatures ---------------- *)

let sig_seeds =
  [
    ("s0", "");
    ("s1", "device-1|q7");
    ("s2", String.make 32 '\xa5' ^ "|cert3");
    ("s3", String.init 100 (fun i -> Char.chr (i * 37 mod 256)));
  ]

let sig_msgs = [ ("m0", ""); ("m1", "hello"); ("m2", String.make 200 'm') ]

let sig_cases =
  List.concat_map
    (fun (sl, seed) ->
      let kp = lazy (C.Sig_scheme.keygen ~seed) in
      ( Printf.sprintf "sig %s public" sl,
        fun () -> hex (Lazy.force kp).C.Sig_scheme.public )
      :: List.map
           (fun (ml, msg) ->
             ( Printf.sprintf "sig %s sign %s" sl ml,
               fun () -> hash (C.Sig_scheme.sign ~secret:(Lazy.force kp).C.Sig_scheme.secret msg)
             ))
           sig_msgs)
    sig_seeds

let sig_expected =
  [
    ("sig s0 public", "2080963c13fe41b63743a93ca50af73811991edf929154b66464e5ab2a39a385");
    ("sig s0 sign m0", "9c916a3b3052a1c4d3428c6f44fd2fd5ae98f0719afc3b08ee0b95ba792aab15");
    ("sig s0 sign m1", "ab8ac9da0b12cc75ada7f0886eae902978e57a0fe2d50d810c4f62516bf72663");
    ("sig s0 sign m2", "44f4d688ca275424ce871dd974a8d6bca711ab086e40285d919406a834adca5b");
    ("sig s1 public", "e14f2026031c4a249abb52fcac23e427d4f7509c846665a30d0b9d35d7b45a67");
    ("sig s1 sign m0", "fbfbccc370347a6b58b8a8553a785de4ebff138b0577c85809d60cdf7888bc34");
    ("sig s1 sign m1", "3fef7d33d944596186192cb462af8124e64fc0d5f12170a2a4c789700dcf9a59");
    ("sig s1 sign m2", "8a50db5192fae63550ca8db1e5ed2f3346bd3a73dbf3f7fb63d462c5989c9b94");
    ("sig s2 public", "6e4676b0b87c02f6f00d32490abccf1f37d6894526d744d52daff722028e7dc5");
    ("sig s2 sign m0", "7a946e33337a9395c6a265aa284eab212a426224bfa8a8b4ffb9d5dd4d04f3fc");
    ("sig s2 sign m1", "dc38ee2daba4d2ce0b658aa274c1bc1fd14c151aa35743139b2a74a6939890d5");
    ("sig s2 sign m2", "4c0370540f6f799c7abb5c9a9b2f8dc0fa218a437568a5e3be35e9eaa54a5ee8");
    ("sig s3 public", "32713bb1eecc1fadab930c37195151f7021ab869775014de882a3c1cef177a84");
    ("sig s3 sign m0", "34c53a2c7eeaa111bebffab437b9f510783722693373a37de18a77aeca7b2d28");
    ("sig s3 sign m1", "1c470fb188f42f168744d303e37a9e38fc8ef9395d8e780dd91cb407669a3292");
    ("sig s3 sign m2", "381132920675b1ace830a04be3adf8250c4fd00c0a78eab91b2369811d4f179e");
  ]

(* ---------------- RNG streams and ciphertexts ---------------- *)

(* No other literal covers a raw RNG stream or a ciphertext: the top1 run's
   audit root hashes step labels, its output is one integer, and device
   encryption draws come from per-device streams. These pin the first
   draws of each way to make a stream, through every sampler the protocol
   uses, and the serialized bytes of one AHE and one FHE encryption. Floats
   print in hex, so a changed last bit shows. *)

let render_draws g =
  let ints = List.init 3 (fun _ -> Int64.to_string (Rng.next_int64 g)) in
  let int3 = List.init 8 (fun _ -> string_of_int (Rng.int g 3)) in
  let int_in = List.init 3 (fun _ -> string_of_int (Rng.int_in g (-7) 1_000_003)) in
  let u = List.init 3 (fun _ -> Printf.sprintf "%h" (Rng.uniform01 g)) in
  let gauss = List.init 3 (fun _ -> Printf.sprintf "%h" (Rng.gaussian g ~sigma:3.2)) in
  String.concat "|" (List.map (String.concat ",") [ ints; int3; int_in; u; gauss ])

let rng_cases =
  [
    ("rng create 42", fun () -> render_draws (Rng.create 42L));
    ( "rng split of create 42",
      fun () ->
        let parent = Rng.create 42L in
        let child = Rng.split parent in
        render_draws child ^ "#" ^ Int64.to_string (Rng.next_int64 parent) );
    ("rng derive 42 7", fun () -> render_draws (Rng.derive 42L 7));
  ]

let ciphertext_digest params =
  let _, pk = C.Bgv.keygen params (Rng.create 21L) in
  let slots = Array.init 256 (fun i -> i * 7 mod params.C.Bgv.t) in
  hash (C.Bgv.serialize_ciphertext (C.Bgv.encrypt pk (Rng.create 22L) slots))

let ciphertext_cases =
  [
    ("ahe n=256 encryption", fun () -> ciphertext_digest (C.Bgv.ahe_params ~n:256 ()));
    ("fhe n=256 encryption", fun () -> ciphertext_digest (C.Bgv.fhe_params ~n:256 ()));
  ]

let rng_ciphertext_expected =
  [
    ("rng create 42", "-4767286540954276203,2949826092126892291,5139283748462763858|0,2,1,0,2,0,0,2|687739,649787,31938|0x1.548fc63805cf1p-1,0x1.a0a2962a6be18p-3,0x1.a83d752f35eb8p-4|0x1.9424a9557a3e1p+1,0x1.54f2da0bdccaep+1,-0x1.7b57b6a77ed87p+2");
    ("rng split of create 42", "7138415436909018950,-1451441013313770160,1533225871787718299|1,2,2,2,2,2,2,1|677635,836545,542898|0x1.14ad4257ecc42p-1,0x1.2467711ac6d32p-1,0x1.4716e5712e90cp-1|-0x1.13f37b0bcccb7p+3,0x1.193718b3f48d3p+1,-0x1.099cc87b5c05ep+0#2949826092126892291");
    ("rng derive 42 7", "8574653948649052744,6259343752724232284,2476981718838673966|0,1,2,1,1,2,0,2|877825,20513,729767|0x1.58e0d46f0125dp-1,0x1.efdbd8297486ep-2,0x1.c390315c8d3a5p-1|-0x1.6835a94802b63p+1,-0x1.b7cdce67e18fep+2,0x1.e207802834689p-2");
    ("ahe n=256 encryption", "7d26edb5263bab09260acb8005fcb8ac8f567b448e6507f7e7643f4af1f2bf23");
    ("fhe n=256 encryption", "a98657e064acc5e4447f462862de1836228b4cc125ca3fb5ef0cdd8a92624f6f");
  ]

(* ---------------- key-generation ceremony ---------------- *)

(* The ceremony and the execution run at 1 and at 2 workers against the
   same literals: fanning members and devices out over domains must not
   move a byte. *)
let ceremony ~workers =
  lazy
    (let rng = Rng.create 7L in
     let engine = Arb_mpc.Engine.create ~parties:5 (Rng.create 8L) () in
     let _, _, cert =
       R.Setup.keygen_ceremony ~workers rng
         ~device_seed:(fun id -> Printf.sprintf "golden-device-%d" id)
         ~committee:[| 3; 14; 15; 92; 65 |]
         ~params:(C.Bgv.ahe_params ~n:256 ())
         ~query_id:3 ~plan_digest:(C.Sha256.digest "golden-plan")
         ~budget:(Arb_dp.Budget.create ~epsilon:10.0 ~delta:1e-4)
         ~cost:(Arb_dp.Budget.create ~epsilon:1.5 ~delta:1e-6)
         ~registry_root:(C.Sha256.digest "golden-registry") ~engine
     in
     cert)

let signatures_digest (cert : R.Setup.certificate) =
  hash (String.concat "" (List.map (fun (pub, s) -> pub ^ s) cert.R.Setup.signatures))

let ceremony_cases ~workers =
  let ceremony = ceremony ~workers in
  [
    ("ceremony payload", fun () -> R.Setup.certificate_payload (Lazy.force ceremony));
    ("ceremony signatures", fun () -> signatures_digest (Lazy.force ceremony));
  ]

let ceremony_expected =
  [
    ("ceremony payload", "cert|3|55d6309161115797e1e97f0fc94840c8777a7b227e61b43f4de013bb9c08663f|c2e104546312b9afe769ce66ddfe12e7f25a8a6d4c765218c4f8171cc0cbf774|8.500000|0.000099|2bf60070794ce54b1e9f521f7417128ac33a57c03b89768472072eda2400a30a|36e09e0bfc2a6884acb4ed02dba8a8ee8bde753b8a5330d0caac32cc1abd0773");
    ("ceremony signatures", "2c7421a68a6043cd4e1c97c9acca56c6459eed36526c2637c312203b7bce35ac");
  ]

(* ---------------- hierarchical registry ---------------- *)

let render_committees (a : C.Sortition.assignment) =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun c -> String.concat "," (Array.to_list (Array.map string_of_int c)))
          a.C.Sortition.committees))

let registry_cases =
  List.concat_map
    (fun n ->
      let reg = lazy (C.Sortition.Registry.create ~seed:11L ~n) in
      [
        ( Printf.sprintf "registry N=%d root" n,
          fun () -> hex (C.Sortition.Registry.root (Lazy.force reg)) );
        ( Printf.sprintf "registry N=%d select 4x5" n,
          fun () ->
            render_committees
              (C.Sortition.Registry.select (Lazy.force reg) ~block:"golden-block"
                 ~query_id:5 ~committees:4 ~size:5) );
      ]
      @ List.map
          (fun id ->
            ( Printf.sprintf "registry N=%d device_seed %d" n id,
              fun () -> hex (C.Sortition.Registry.device_seed (Lazy.force reg) id) ))
          [ 0; n / 2; n - 1 ])
    [ 64; 4097; 100_000 ]

let registry_expected =
  [
    ("registry N=64 root", "9f70952bde70f8d668abfccb7063306cddf9e29f9afcc709c6022ae1d80f5926");
    ("registry N=64 select 4x5", "63,24,40,8,26;52,49,46,45,43;61,5,3,50,58;7,18,16,57,12");
    ("registry N=64 device_seed 0", "1dff0631882583768d304a0107ae663e02a85ac71a456f8f9fb6ce2b438fcdc9");
    ("registry N=64 device_seed 32", "16a64f00ed555e4dde27a6c1fe59db1febdf2bcd2c41df1dd672870b610ee487");
    ("registry N=64 device_seed 63", "7607d48248fab20871ef7f3d012201c50236d37feed24d28a03e64b14309d3dc");
    ("registry N=4097 root", "32130d92f73a5c3bc8a6436e512520402e81018eff8ace9a07178623e0461ddc");
    ("registry N=4097 select 4x5", "4096,606,3313,2972,1901;2873,3194,537,2738,3559;50,402,2313,548,2411;1814,3696,822,3675,3633");
    ("registry N=4097 device_seed 0", "111054d11ee828ecb4e94388fcee1feac78abfa695b7e4a56cc522bb1c988ec6");
    ("registry N=4097 device_seed 2048", "7161cad20bc5b5466da389b7387a88777aa842b5af742f46fa867dcb790d656a");
    ("registry N=4097 device_seed 4096", "30549d5fe4cf94a44ae26162331f247705739626b8421a77cda5920bce2e8b5b");
    ("registry N=100000 root", "e619404cf44466876564d7ba9510ab287ce633f1701712eb93f0ea13c973172c");
    ("registry N=100000 select 4x5", "16525,17396,19980,18000,17812;19191,19039,19699,16899,16652;20398,17656,17963,16624,17411;17897,20080,17010,20387,19922");
    ("registry N=100000 device_seed 0", "fb9b8d56395dd0a03a1cb019a566bb3150b84c54d6d9e1f6385aa0551d58c1c0");
    ("registry N=100000 device_seed 50000", "62a8b619af92691d369751e56137d6d3e8547c69cf74ba266d23d09efc8057bc");
    ("registry N=100000 device_seed 99999", "2643328ff135fd359cf4c0748b5fffba23f409b7073a94a23d0980a34d5afaea");
  ]

(* ---------------- one end-to-end execution ---------------- *)

let execution ~workers =
  lazy
    (let q = Q.test_instance "top1" in
     let db = Q.random_database (Rng.create 99L) q ~n:64 () in
     let plan =
       match
         (Arb_planner.Search.plan ~limits:Arb_planner.Constraints.no_limits ~query:q ~n:64 ())
           .Arb_planner.Search.plan
       with
       | Some p -> p
       | None -> Alcotest.fail "no plan for top1 at 64 devices"
     in
     let src = R.Exec.source_of_db db in
     match R.Exec.run_source { R.Exec.default_config with workers } ~query:q ~plan ~src with
     | Ok report -> report
     | Error f -> Alcotest.failf "top1 failed: %a" R.Exec.pp_failure f)

let exec_cases ~workers =
  let execution = execution ~workers in
  let report () = Lazy.force execution in
  [
    ("exec top1 audit_root", fun () -> hex (report ()).R.Exec.audit_root);
    ( "exec top1 certificate payload",
      fun () -> R.Setup.certificate_payload (report ()).R.Exec.certificate );
    ("exec top1 signatures", fun () -> signatures_digest (report ()).R.Exec.certificate);
    ( "exec top1 outputs",
      fun () ->
        String.concat "; "
          (List.map Arb_lang.Interp.value_to_string (report ()).R.Exec.outputs) );
  ]

let exec_expected =
  [
    ("exec top1 audit_root", "81369881ed135ba9892b1939192c40cc36f2087fc15ab6249d4641e7f88fea94");
    ("exec top1 certificate payload", "cert|1|bd654cb547977884d64965ed0f6741c7eb2b92db006074a08c8c7b044ccf71ba|6168c8b57b77170ead01eb1bb687ec4b346d17727746031fe2b130366d35692d|9.900000|0.000100|7de83fe466540558f71176ea38a930f14ea2d995aead05b3d2b6db6cfda3205b|b7fa26384e20488f9bb5c2d3d0e0d498bbc9144d2f8b890b9917bde5c235fc4f");
    ("exec top1 signatures", "77530689c3a310beefa24f8e248a12d9c237febf71b0a7acd84a991875941c2c");
    ("exec top1 outputs", "3");
  ]

let () =
  Alcotest.run "arb_golden"
    [
      ( "protocol bytes",
        [
          Alcotest.test_case "lamport keys and signatures" `Quick
            (check_cases ~expected:sig_expected sig_cases);
          Alcotest.test_case "keygen ceremony certificate" `Quick
            (check_cases ~expected:ceremony_expected (ceremony_cases ~workers:1));
          Alcotest.test_case "registry roots, committees, device seeds" `Quick
            (check_cases ~expected:registry_expected registry_cases);
          Alcotest.test_case "top1 execution at 64 devices" `Quick
            (check_cases ~expected:exec_expected (exec_cases ~workers:1));
          Alcotest.test_case "keygen ceremony certificate, 2 workers" `Quick
            (check_cases ~expected:ceremony_expected (ceremony_cases ~workers:2));
          Alcotest.test_case "top1 execution at 64 devices, 2 workers" `Quick
            (check_cases ~expected:exec_expected (exec_cases ~workers:2));
          Alcotest.test_case "rng streams and ciphertexts" `Quick
            (check_cases ~expected:rng_ciphertext_expected (rng_cases @ ciphertext_cases));
        ] );
    ]
