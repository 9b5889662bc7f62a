module C = Arb_crypto

type certificate = {
  query_id : int;
  pk_digest : C.Sha256.digest;
  plan_digest : C.Sha256.digest;
  budget_left : Arb_dp.Budget.t;
  registry_root : C.Sha256.digest;
  next_block : string;
  signatures : (C.Sig_scheme.public * string) list;
}

exception Budget_exhausted

(* The device population, derived entirely from (seed, n): sortition
   secrets come from the hierarchical registry's block PRF seeds, and each
   device's protocol randomness (Byzantine flag, bin choice, encryption
   randomness) is its own splitmix stream keyed by (input_seed, id). No
   per-device state is materialized up front, so the same population
   addresses 10^8 devices in O(n / block_size) memory — and a cohort-
   sharded execution sees byte-identical per-device draws to a fully
   materialized one, because neither depends on a shared draw order. *)
type population = {
  registry : C.Sortition.Registry.t;
  byzantine_fraction : float;
  input_seed : int64;
  residual_seed : int64;
  sample_seed : int64;
}

let population ~seed ~n ~byzantine_fraction =
  let sub k = Arb_util.Rng.next_int64 (Arb_util.Rng.derive seed k) in
  {
    registry = C.Sortition.Registry.create ~seed ~n;
    byzantine_fraction;
    input_seed = sub 0x1A51;
    residual_seed = sub 0x1A52;
    sample_seed = sub 0x1A53;
  }

let device_seed pop id = C.Sortition.Registry.device_seed pop.registry id
let registry_root pop = C.Sortition.Registry.root pop.registry

(* Per-device stream. Draw order is part of the protocol contract (see
   Exec): Byzantine flag first, then bin choice, then encryption
   randomness — so a streamed (extrapolated) pass that stops after the bin
   draw perturbs nothing. *)
let device_input_rng pop id = Arb_util.Rng.derive pop.input_seed id

(* Device-sampling inclusion stream, separate from the input stream so a
   sampled plan perturbs no input draw: inclusion is pure in (seed, id),
   hence byte-identical across worker counts and cohort geometries. *)
let device_sample_rng pop id = Arb_util.Rng.derive pop.sample_seed id

let device_sampled pop ~phi id =
  match phi with
  | None -> true
  | Some phi -> Arb_util.Rng.uniform01 (device_sample_rng pop id) < phi

let residual_rng pop = Arb_util.Rng.create pop.residual_seed

let run_sortition pop ~block ~query_id ~committees ~size =
  C.Sortition.Registry.select pop.registry ~block ~query_id ~committees ~size

let verify_member pop ~block ~query_id ~committees ~size ~id =
  C.Sortition.Registry.verify_member pop.registry ~block ~query_id ~committees
    ~size ~id

let verify_members pop ~block ~query_id ~committees ~size ids =
  C.Sortition.Registry.verify_members pop.registry ~block ~query_id ~committees
    ~size ids

let certificate_payload cert =
  Printf.sprintf "cert|%d|%s|%s|%f|%f|%s|%s" cert.query_id
    (C.Sha256.to_hex cert.pk_digest)
    (C.Sha256.to_hex cert.plan_digest)
    cert.budget_left.Arb_dp.Budget.epsilon cert.budget_left.Arb_dp.Budget.delta
    (C.Sha256.to_hex cert.registry_root)
    cert.next_block

let pk_digest_of pk =
  (* Hash the canonical coefficient-form rendering of the public key —
     stable across runs and independent of Bgv's in-memory
     representation. *)
  C.Sha256.digest (C.Bgv.serialize_public_key pk)

let keygen_ceremony ?(workers = 1) rng ~device_seed ~committee ~params ~query_id
    ~plan_digest ~budget ~cost ~registry_root ~engine =
  (* 1. Budget check (§5.2): refuse the query if the balance is short. *)
  let budget_left =
    match Arb_dp.Budget.charge budget ~cost with
    | Some left -> left
    | None -> raise Budget_exhausted
  in
  (* 2. Distributed key generation. The polynomial arithmetic runs inside
     the committee MPC; costs are charged to the engine while the key
     material is produced by the real BGV keygen. *)
  let sk, pk = C.Bgv.keygen params rng in
  Arb_mpc.Protocols.charge_bgv_keygen engine ~n:params.C.Bgv.n
    ~rns_primes:(List.length params.C.Bgv.q_primes);
  (* 3. Fresh randomness block: XOR of member contributions (§5.2). *)
  let next_block =
    let acc = Bytes.make 32 '\x00' in
    Array.iter
      (fun member ->
        let contrib =
          C.Sha256.digest (Printf.sprintf "block|%d|%d" query_id member)
        in
        String.iteri
          (fun i c ->
            Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code c)))
          contrib)
      committee;
    C.Sha256.to_hex (Bytes.to_string acc)
  in
  let unsigned =
    {
      query_id;
      pk_digest = pk_digest_of pk;
      plan_digest;
      budget_left;
      registry_root;
      next_block;
      signatures = [];
    }
  in
  let payload = certificate_payload unsigned in
  (* 4. Every member signs with a per-query one-time key. Each member's
     key and signature are a pure function of its seed and the payload, so
     the members fan out over the worker domains; the RNG draws above stay
     on the calling domain, which has also created the ciphertext context
     by now. *)
  let signatures =
    Arb_util.Pool.map ~workers (Array.length committee) (fun i ->
        let seed = device_seed committee.(i) ^ Printf.sprintf "|cert%d" query_id in
        let kp = C.Sig_scheme.keygen ~seed in
        (kp.C.Sig_scheme.public, C.Sig_scheme.sign ~secret:kp.C.Sig_scheme.secret payload))
  in
  (sk, pk, { unsigned with signatures = Array.to_list signatures })

let verify_certificate ?(workers = 1) cert =
  let payload = certificate_payload { cert with signatures = [] } in
  let signatures = Array.of_list cert.signatures in
  signatures <> [||]
  && Array.for_all Fun.id
       (Arb_util.Pool.map ~workers (Array.length signatures) (fun i ->
            let public, signature = signatures.(i) in
            C.Sig_scheme.verify ~public ~msg:payload ~signature))
