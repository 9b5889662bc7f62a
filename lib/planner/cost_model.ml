type metrics = {
  agg_time : float;
  agg_bytes : float;
  part_exp_time : float;
  part_max_time : float;
  part_exp_bytes : float;
  part_max_bytes : float;
  est_error : float;
      (* estimated relative error introduced by approximation (sampling,
         sketches); 0.0 for exact plans *)
}

let zero_metrics =
  {
    agg_time = 0.0;
    agg_bytes = 0.0;
    part_exp_time = 0.0;
    part_max_time = 0.0;
    part_exp_bytes = 0.0;
    part_max_bytes = 0.0;
    est_error = 0.0;
  }

let pp_metrics fmt m =
  Format.fprintf fmt
    "agg: %s / %s; participant exp: %s / %s, max: %s / %s%s"
    (Arb_util.Units.seconds_to_string m.agg_time)
    (Arb_util.Units.bytes_to_string m.agg_bytes)
    (Arb_util.Units.seconds_to_string m.part_exp_time)
    (Arb_util.Units.bytes_to_string m.part_exp_bytes)
    (Arb_util.Units.seconds_to_string m.part_max_time)
    (Arb_util.Units.bytes_to_string m.part_max_bytes)
    (* exact plans render exactly as before the approximation dimension *)
    (if m.est_error > 0.0 then Printf.sprintf "; est err: %.3g" m.est_error
     else "")

type contribution = {
  c_agg_time : float;
  c_agg_bytes : float;
  c_all_time : float;
  c_all_bytes : float;
  c_member_time : float;
  c_member_bytes : float;
  c_instances : int;
  c_members : int;  (* members per instance: m for MPC, 2 for replicated HE *)
  c_kind : [ `Keygen | `Decryption | `Operations | `Base ];
  c_est_error : float;  (* relative error this vignette introduces *)
}

type ring = { ring_n : int; ct_bytes : float; pk_bytes : float }

(* Calibration constants. Reference anchors from §6/§7 of the paper:
   G16 verification a few ms; a one-ciphertext upload ~1.1 MB at degree
   2^15 with a 135-bit modulus (17 B per coefficient); the key-generation
   committee ~700 MB / ~14 min at m = 42; the Gumbel-noise MPC 73.8 s with
   42 parties. Everything else is scaled from our substrate's relative op
   costs. *)
type t = {
  felt_bytes : float;  (* serialized field element (135-bit modulus) *)
  he_add_ref : float;  (* s per ciphertext addition at n = 2^15 *)
  he_mul_plain_ref : float;
  he_rotate_ref : float;
  he_encrypt_ref : float;
  zk_prove_per_constraint : float;  (* device seconds per R1CS constraint *)
  zk_setup_per_constraint : float;  (* committee-member seconds *)
  zk_verify : float;
  proof_bytes : float;
  sig_time : float;  (* device signature for sortition *)
  kg_coeff_time : float;  (* keygen s per ring coefficient at m = 42 *)
  kg_coeff_bytes : float;
  dec_coeff_time : float;  (* threshold-decrypt s per coefficient at m = 42 *)
  gumbel_unit_time : float;  (* s per member per party per sample *)
  gumbel_unit_bytes : float;
  laplace_unit_time : float;
  laplace_unit_bytes : float;
  cmp_time_ref : float;  (* comparison at m = 42, after triples exist *)
  cmp_bytes_ref : float;
  triple_setup_time : float;  (* first-comparison surcharge (§6) *)
  triple_setup_bytes : float;
  exp_time_ref : float;
  exp_bytes_ref : float;
  share_op_time : float;  (* local linear op on shares *)
  vsr_overhead_bytes : float;  (* per member per MPC vignette hand-off *)
  round_latency : float;
  device_factor : float;  (* participant device vs reference server core *)
  post_flop : float;
  audit_bytes : float;  (* per-device certificate download + MHT challenges *)
  audit_time : float;
}

let default =
  {
    felt_bytes = 17.0;
    he_add_ref = 1.8e-2;  (* per encrypted input: deserialize + add + audit tree *)
    he_mul_plain_ref = 8.0e-3;
    he_rotate_ref = 2.5e-2;
    he_encrypt_ref = 1.5e-2;
    zk_prove_per_constraint = 2.5e-4;
    zk_setup_per_constraint = 1.0e-4;
    zk_verify = 1.2e-2;
    proof_bytes = 192.0;
    sig_time = 6.0e-3;
    kg_coeff_time = 840.0 /. 32768.0;
    kg_coeff_bytes = 700.0e6 /. 32768.0;
    dec_coeff_time = 60.0 /. 32768.0;
    (* One Gumbel sample needs two fixpoint logarithms; the 73.8 s
       42-party benchmark (§7.5) covers a ~40-sample noising vignette
       including its triple preprocessing. *)
    gumbel_unit_time = 1.55;
    gumbel_unit_bytes = 2.0e6;
    laplace_unit_time = 0.8;
    laplace_unit_bytes = 1.0e6;
    cmp_time_ref = 0.35;
    cmp_bytes_ref = 1.4e5;
    triple_setup_time = 12.0;
    triple_setup_bytes = 8.0e7;
    exp_time_ref = 2.2;
    exp_bytes_ref = 2.0e6;
    share_op_time = 2.0e-7;
    vsr_overhead_bytes = 42.0 *. 49.0;
    round_latency = 5.0e-3;
    device_factor = 5.0;
    post_flop = 1.0e-9;
    audit_bytes = 4096.0;
    audit_time = 2.0e-2;
  }

let next_pow2 x =
  let rec go p = if p >= x then p else go (2 * p) in
  go 1

let ring_for t crypto ~cols =
  let n = max 4096 (min 32768 (next_pow2 cols)) in
  let primes = match crypto with Plan.Ahe -> 1.0 | Plan.Fhe -> 2.0 in
  let ct = 2.0 *. float_of_int n *. t.felt_bytes *. primes in
  { ring_n = n; ct_bytes = ct; pk_bytes = ct }

(* Per-op HE costs scale with the ring: additions linearly, NTT-bound ops
   as n log n, relative to the n = 2^15 reference. *)
let lin_scale n = float_of_int n /. 32768.0
let nlogn_scale n =
  float_of_int n *. Float.log2 (float_of_int n) /. (32768.0 *. 15.0)

let he_add t crypto n =
  let primes = match crypto with Plan.Ahe -> 1.0 | Plan.Fhe -> 2.0 in
  t.he_add_ref *. lin_scale n *. primes

let he_mul_plain t crypto n =
  let primes = match crypto with Plan.Ahe -> 1.0 | Plan.Fhe -> 2.0 in
  t.he_mul_plain_ref *. nlogn_scale n *. primes

let he_rotate t crypto n =
  let primes = match crypto with Plan.Ahe -> 1.0 | Plan.Fhe -> 2.0 in
  t.he_rotate_ref *. nlogn_scale n *. primes

let he_encrypt t crypto n =
  let primes = match crypto with Plan.Ahe -> 1.0 | Plan.Fhe -> 2.0 in
  t.he_encrypt_ref *. nlogn_scale n *. primes

let base_contribution =
  {
    c_agg_time = 0.0;
    c_agg_bytes = 0.0;
    c_all_time = 0.0;
    c_all_bytes = 0.0;
    c_member_time = 0.0;
    c_member_bytes = 0.0;
    c_instances = 0;
    c_members = 0;
    c_kind = `Base;
    c_est_error = 0.0;
  }

let m_scale ~m = float_of_int m /. 42.0

let price t ~n_devices ~m ~cols (v : Plan.vignette) : contribution =
  let crypto_of = function
    | Plan.W_keygen c | W_encrypt_input { crypto = c; _ }
    | W_he_sum { crypto = c; _ } | W_he_affine { crypto = c; _ }
    | W_he_rotate_sum { crypto = c; _ } | W_he_sketch { crypto = c; _ }
    | W_he_coarsen { crypto = c; _ } | W_mpc_decrypt { crypto = c; _ }
    | W_mpc_decrypt_noise { crypto = c; _ } -> c
    | _ -> Plan.Fhe
  in
  let ring = ring_for t (crypto_of v.Plan.work) ~cols in
  let n = ring.ring_n in
  let mf = m_scale ~m in
  let instances = match v.Plan.location with Plan.Committees k -> k | _ -> 0 in
  (* Committee traffic is relayed through the aggregator "mailbox" (§5.4):
     every byte a member sends is a byte the aggregator forwards. *)
  let with_forwarding c =
    (* Fill in members-per-instance and charge the aggregator mailbox. *)
    let members =
      if c.c_instances = 0 then 0 else if c.c_kind = `Base then 2 else m
    in
    {
      c with
      c_members = members;
      c_agg_bytes =
        c.c_agg_bytes
        +. (float_of_int c.c_instances *. float_of_int members *. c.c_member_bytes);
    }
  in
  let c =
    match (v.Plan.work, v.Plan.location) with
    | Plan.W_keygen _, _ ->
        {
          base_contribution with
          c_member_time = t.kg_coeff_time *. float_of_int n *. mf;
          c_member_bytes = t.kg_coeff_bytes *. float_of_int n *. mf;
          c_instances = max 1 instances;
          c_kind = `Keygen;
        }
    | W_zk_setup { constraints }, _ ->
        {
          base_contribution with
          c_member_time = t.zk_setup_per_constraint *. float_of_int constraints;
          c_member_bytes = 64.0 *. float_of_int constraints;
          c_instances = max 1 instances;
          c_kind = `Keygen;
        }
    | W_encrypt_input { crypto; cts_per_device; zk_constraints }, _ ->
        {
          base_contribution with
          c_all_time =
            (float_of_int cts_per_device *. he_encrypt t crypto n *. t.device_factor)
            +. (t.zk_prove_per_constraint *. float_of_int zk_constraints)
            +. t.sig_time +. t.audit_time;
          c_all_bytes =
            (float_of_int cts_per_device *. ring.ct_bytes)
            +. t.proof_bytes +. t.audit_bytes;
          (* The aggregator distributes the authorization certificate and
             public key to every device. *)
          c_agg_bytes = float_of_int n_devices *. (ring.pk_bytes +. 2048.0);
        }
    | W_verify_inputs { devices }, _ ->
        { base_contribution with c_agg_time = float_of_int devices *. t.zk_verify }
    | W_he_sum { crypto; cts; inputs }, Plan.Aggregator ->
        {
          base_contribution with
          c_agg_time = float_of_int (cts * inputs) *. he_add t crypto n;
        }
    | W_he_sum { crypto; cts; inputs }, _ ->
        (* A sum-tree vertex executed by a replicated pair of devices:
           ciphertext additions are public work, so no MPC is needed;
           integrity comes from 2x replication plus the Merkle audit. *)
        {
          base_contribution with
          c_member_time =
            float_of_int (cts * inputs) *. he_add t crypto n *. t.device_factor;
          c_member_bytes = float_of_int cts *. ring.ct_bytes;
          c_all_bytes = 0.0;
          c_instances = max 1 instances;
          c_kind = `Base (* replicated-device work, not an MPC committee *);
        }
    | W_he_affine { crypto; cts; muls; adds }, Plan.Aggregator ->
        {
          base_contribution with
          c_agg_time =
            (float_of_int (cts * muls) *. he_mul_plain t crypto n)
            +. (float_of_int (cts * adds) *. he_add t crypto n);
        }
    | W_he_affine { crypto; cts; muls; adds }, _ ->
        {
          base_contribution with
          c_member_time =
            ((float_of_int (cts * muls) *. he_mul_plain t crypto n)
            +. (float_of_int (cts * adds) *. he_add t crypto n))
            *. t.device_factor;
          c_member_bytes = float_of_int cts *. ring.ct_bytes;
          c_instances = max 1 instances;
          c_kind = `Base;
        }
    | W_he_rotate_sum { crypto; cts; rotations }, Plan.Aggregator ->
        {
          base_contribution with
          c_agg_time =
            float_of_int (cts * rotations)
            *. (he_rotate t crypto n +. he_add t crypto n);
        }
    | W_he_rotate_sum { crypto; cts; rotations }, _ ->
        {
          base_contribution with
          c_member_time =
            float_of_int (cts * rotations)
            *. (he_rotate t crypto n +. he_add t crypto n)
            *. t.device_factor;
          c_member_bytes = float_of_int cts *. ring.ct_bytes;
          c_instances = max 1 instances;
          c_kind = `Base;
        }
    | W_he_sketch { crypto; cts; width; depth }, _ ->
        (* Count-Min projection of the C-bin encrypted histogram into
           depth x width counters. By CMS linearity this is public HE work
           (one masked mul + rotate-accumulate pass per row), so it runs on
           the aggregator. The standard CMS guarantee gives point estimates
           within e/width of the true mass (relative to total count) with
           probability 1 - e^-depth. *)
        {
          base_contribution with
          c_agg_time =
            float_of_int (depth * cts)
            *. (he_mul_plain t crypto n +. he_rotate t crypto n +. he_add t crypto n);
          c_est_error = Float.exp 1.0 /. float_of_int width;
        }
    | W_he_coarsen { crypto; cts; groups }, _ ->
        (* Coarsen the C-bin encrypted histogram into [groups] buckets by
           rotate-and-add folding: log2(C/groups) passes over the
           ciphertexts. A rank query answered on the coarse histogram is off
           by at most one bucket, i.e. relative rank error 1/groups. *)
        let folds =
          let ratio = max 1 (cols / max 1 groups) in
          max 1 (int_of_float (ceil (Float.log2 (float_of_int ratio))))
        in
        {
          base_contribution with
          c_agg_time =
            float_of_int (folds * cts) *. (he_rotate t crypto n +. he_add t crypto n);
          c_est_error = 1.0 /. float_of_int groups;
        }
    | W_mpc_decrypt { cts; _ }, _ ->
        {
          base_contribution with
          c_member_time =
            float_of_int cts *. t.dec_coeff_time *. float_of_int n *. mf;
          c_member_bytes =
            (float_of_int cts *. float_of_int (m - 1) *. float_of_int n
            *. t.felt_bytes)
            +. t.vsr_overhead_bytes *. mf;
          c_instances = max 1 instances;
          c_kind = `Decryption;
        }
    | W_mpc_affine { elements }, _ | W_mpc_scan { elements }, _ ->
        {
          base_contribution with
          c_member_time =
            (float_of_int elements *. t.share_op_time) +. t.round_latency;
          c_member_bytes =
            (float_of_int m *. t.felt_bytes) +. (t.vsr_overhead_bytes *. mf);
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_mpc_nonlinear { elements }, _ ->
        {
          base_contribution with
          c_member_time =
            t.triple_setup_time *. mf
            +. (float_of_int elements *. t.cmp_time_ref *. mf);
          c_member_bytes =
            ((t.triple_setup_bytes +. (float_of_int elements *. t.cmp_bytes_ref)) *. mf)
            +. (t.vsr_overhead_bytes *. mf);
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_mpc_decrypt_noise { cts; kind; count; _ }, _ ->
        (* Fused committee: decryption plus noising in one sitting — one
           VSR hand-off instead of two, one committee in the count. *)
        let ut, ub =
          match kind with
          | `Gumbel -> (t.gumbel_unit_time, t.gumbel_unit_bytes)
          | `Laplace -> (t.laplace_unit_time, t.laplace_unit_bytes)
        in
        {
          base_contribution with
          c_member_time =
            (float_of_int cts *. t.dec_coeff_time *. float_of_int n *. mf)
            +. ((t.triple_setup_time +. (float_of_int count *. ut)) *. mf);
          c_member_bytes =
            (float_of_int cts *. float_of_int (m - 1) *. float_of_int n
            *. t.felt_bytes)
            +. ((t.triple_setup_bytes +. (float_of_int count *. ub)) *. mf)
            +. (t.vsr_overhead_bytes *. mf);
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_mpc_noise { kind; count }, _ ->
        let ut, ub =
          match kind with
          | `Gumbel -> (t.gumbel_unit_time, t.gumbel_unit_bytes)
          | `Laplace -> (t.laplace_unit_time, t.laplace_unit_bytes)
        in
        {
          base_contribution with
          c_member_time =
            (t.triple_setup_time +. (float_of_int count *. ut)) *. mf;
          c_member_bytes =
            (t.triple_setup_bytes +. (float_of_int count *. ub)) *. mf
            +. (t.vsr_overhead_bytes *. mf);
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_mpc_argmax { inputs }, _ ->
        let cmps = max 0 (inputs - 1) in
        {
          base_contribution with
          c_member_time =
            (t.triple_setup_time *. mf) +. (float_of_int cmps *. t.cmp_time_ref *. mf);
          c_member_bytes =
            ((t.triple_setup_bytes +. (float_of_int cmps *. t.cmp_bytes_ref)) *. mf)
            +. (t.vsr_overhead_bytes *. mf);
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_mpc_exp { count }, _ ->
        {
          base_contribution with
          c_member_time =
            (t.triple_setup_time *. mf) +. (float_of_int count *. t.exp_time_ref *. mf);
          c_member_bytes =
            ((t.triple_setup_bytes +. (float_of_int count *. t.exp_bytes_ref)) *. mf)
            +. (t.vsr_overhead_bytes *. mf);
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_mpc_sample_index { inputs }, _ ->
        {
          base_contribution with
          c_member_time =
            (t.triple_setup_time *. mf)
            +. (float_of_int inputs *. t.cmp_time_ref *. mf)
            +. (16.0 *. t.round_latency);
          c_member_bytes =
            ((t.triple_setup_bytes +. (float_of_int inputs *. t.cmp_bytes_ref)) *. mf)
            +. (t.vsr_overhead_bytes *. mf);
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_mpc_output { values }, _ ->
        {
          base_contribution with
          c_member_time = float_of_int values *. t.share_op_time +. t.round_latency;
          c_member_bytes = float_of_int (values * (m - 1)) *. t.felt_bytes;
          c_instances = max 1 instances;
          c_kind = `Operations;
        }
    | W_post { flops }, _ ->
        { base_contribution with c_agg_time = float_of_int flops *. t.post_flop }
  in
  with_forwarding c

(* A device serves on at most one committee (§5.1), so worst-case costs
   take the maximum over committee vignettes, while expected costs weight
   each vignette by the probability of serving in it. The running state is
   a monoid: sums for the additive components, maxima for the per-member
   worst case, with seat-weighted member costs kept unnormalized so the
   value is independent of [n_devices] until {!finalize}. The fields are
   mutable only for [add_contributions], which writes a fold into the
   fresh copy it returns (one flat block of floats, not a partial per
   vignette); no partial changes once returned. *)
type partial = {
  mutable p_agg_time : float;
  mutable p_agg_bytes : float;
  mutable p_all_time : float;
  mutable p_all_bytes : float;
  mutable p_seat_time : float;  (* sum of instances * members * member_time *)
  mutable p_seat_bytes : float;
  mutable p_max_member_time : float;
  mutable p_max_member_bytes : float;
  mutable p_est_error : float;  (* additive over vignettes, so monotone under
                                   completion: pruning on it is admissible *)
}

let empty_partial =
  {
    p_agg_time = 0.0;
    p_agg_bytes = 0.0;
    p_all_time = 0.0;
    p_all_bytes = 0.0;
    p_seat_time = 0.0;
    p_seat_bytes = 0.0;
    p_max_member_time = 0.0;
    p_max_member_bytes = 0.0;
    p_est_error = 0.0;
  }

let rec add_all p = function
  | [] -> ()
  | c :: rest ->
      let seats = float_of_int (c.c_instances * c.c_members) in
      p.p_agg_time <- p.p_agg_time +. c.c_agg_time;
      p.p_agg_bytes <- p.p_agg_bytes +. c.c_agg_bytes;
      p.p_all_time <- p.p_all_time +. c.c_all_time;
      p.p_all_bytes <- p.p_all_bytes +. c.c_all_bytes;
      p.p_seat_time <- p.p_seat_time +. (seats *. c.c_member_time);
      p.p_seat_bytes <- p.p_seat_bytes +. (seats *. c.c_member_bytes);
      p.p_max_member_time <- Float.max p.p_max_member_time c.c_member_time;
      p.p_max_member_bytes <- Float.max p.p_max_member_bytes c.c_member_bytes;
      p.p_est_error <- p.p_est_error +. c.c_est_error;
      add_all p rest

(* Each contribution in list order, each component by the same float
   operation as a step at a time: the result is bit-identical to folding
   one contribution into a fresh partial per step. *)
let add_contributions p = function
  | [] -> p
  | cs ->
      let fresh = { p with p_agg_time = p.p_agg_time } in
      add_all fresh cs;
      fresh

let combine_partial a b =
  {
    p_agg_time = a.p_agg_time +. b.p_agg_time;
    p_agg_bytes = a.p_agg_bytes +. b.p_agg_bytes;
    p_all_time = a.p_all_time +. b.p_all_time;
    p_all_bytes = a.p_all_bytes +. b.p_all_bytes;
    p_seat_time = a.p_seat_time +. b.p_seat_time;
    p_seat_bytes = a.p_seat_bytes +. b.p_seat_bytes;
    p_max_member_time = Float.max a.p_max_member_time b.p_max_member_time;
    p_max_member_bytes = Float.max a.p_max_member_bytes b.p_max_member_bytes;
    p_est_error = a.p_est_error +. b.p_est_error;
  }

let partial_of_contributions cs = add_contributions empty_partial cs

(* Relative standard error of a count estimated from a Bernoulli(phi) device
   sample: ~2 standard deviations, 2 * sqrt((1-phi)/(phi*n)) <= 2/sqrt(phi*n). *)
let sampling_error ~n_devices phi =
  match phi with
  | None -> 0.0
  | Some phi -> 2.0 /. sqrt (phi *. float_of_int n_devices)

(* [n_devices] is always the FULL population (committees are drawn from the
   full population by sortition, so seat probabilities do not change);
   [sample_phi] scales only the every-device costs, which a sampled-out
   device never pays. *)
let finalize ?sample_phi ~n_devices p =
  let nf = float_of_int n_devices in
  let phi = match sample_phi with None -> 1.0 | Some phi -> phi in
  {
    agg_time = p.p_agg_time;
    agg_bytes = p.p_agg_bytes;
    part_exp_time = (phi *. p.p_all_time) +. (p.p_seat_time /. nf);
    part_max_time = p.p_all_time +. p.p_max_member_time;
    part_exp_bytes = (phi *. p.p_all_bytes) +. (p.p_seat_bytes /. nf);
    part_max_bytes = p.p_all_bytes +. p.p_max_member_bytes;
    est_error = p.p_est_error +. sampling_error ~n_devices sample_phi;
  }

let combine ?sample_phi ~n_devices cs =
  finalize ?sample_phi ~n_devices (partial_of_contributions cs)

let member_cost_by_kind t ~n_devices ~m ~cols vignettes =
  List.filter_map
    (fun v ->
      let c = price t ~n_devices ~m ~cols v in
      if c.c_instances = 0 then None
      else Some (c.c_kind, c.c_member_time, c.c_member_bytes))
    vignettes

(* ---------------- JSON round-trip and content identity ---------------- *)

module J = Arb_util.Json

(* Full-record destructuring with no wildcard: a constant added to [t] but
   missing here fails to compile, so the serialized form cannot silently
   drop fields. *)
let to_json t =
  let {
    felt_bytes;
    he_add_ref;
    he_mul_plain_ref;
    he_rotate_ref;
    he_encrypt_ref;
    zk_prove_per_constraint;
    zk_setup_per_constraint;
    zk_verify;
    proof_bytes;
    sig_time;
    kg_coeff_time;
    kg_coeff_bytes;
    dec_coeff_time;
    gumbel_unit_time;
    gumbel_unit_bytes;
    laplace_unit_time;
    laplace_unit_bytes;
    cmp_time_ref;
    cmp_bytes_ref;
    triple_setup_time;
    triple_setup_bytes;
    exp_time_ref;
    exp_bytes_ref;
    share_op_time;
    vsr_overhead_bytes;
    round_latency;
    device_factor;
    post_flop;
    audit_bytes;
    audit_time;
  } =
    t
  in
  J.Obj
    [
      ("felt_bytes", J.Float felt_bytes);
      ("he_add_ref", J.Float he_add_ref);
      ("he_mul_plain_ref", J.Float he_mul_plain_ref);
      ("he_rotate_ref", J.Float he_rotate_ref);
      ("he_encrypt_ref", J.Float he_encrypt_ref);
      ("zk_prove_per_constraint", J.Float zk_prove_per_constraint);
      ("zk_setup_per_constraint", J.Float zk_setup_per_constraint);
      ("zk_verify", J.Float zk_verify);
      ("proof_bytes", J.Float proof_bytes);
      ("sig_time", J.Float sig_time);
      ("kg_coeff_time", J.Float kg_coeff_time);
      ("kg_coeff_bytes", J.Float kg_coeff_bytes);
      ("dec_coeff_time", J.Float dec_coeff_time);
      ("gumbel_unit_time", J.Float gumbel_unit_time);
      ("gumbel_unit_bytes", J.Float gumbel_unit_bytes);
      ("laplace_unit_time", J.Float laplace_unit_time);
      ("laplace_unit_bytes", J.Float laplace_unit_bytes);
      ("cmp_time_ref", J.Float cmp_time_ref);
      ("cmp_bytes_ref", J.Float cmp_bytes_ref);
      ("triple_setup_time", J.Float triple_setup_time);
      ("triple_setup_bytes", J.Float triple_setup_bytes);
      ("exp_time_ref", J.Float exp_time_ref);
      ("exp_bytes_ref", J.Float exp_bytes_ref);
      ("share_op_time", J.Float share_op_time);
      ("vsr_overhead_bytes", J.Float vsr_overhead_bytes);
      ("round_latency", J.Float round_latency);
      ("device_factor", J.Float device_factor);
      ("post_flop", J.Float post_flop);
      ("audit_bytes", J.Float audit_bytes);
      ("audit_time", J.Float audit_time);
    ]

let of_json json =
  match
    let f name =
      let v = J.to_float (J.member name json) in
      if not (Float.is_finite v) then
        raise (J.Parse_error (name ^ ": constants must be finite"));
      v
    in
    {
      felt_bytes = f "felt_bytes";
      he_add_ref = f "he_add_ref";
      he_mul_plain_ref = f "he_mul_plain_ref";
      he_rotate_ref = f "he_rotate_ref";
      he_encrypt_ref = f "he_encrypt_ref";
      zk_prove_per_constraint = f "zk_prove_per_constraint";
      zk_setup_per_constraint = f "zk_setup_per_constraint";
      zk_verify = f "zk_verify";
      proof_bytes = f "proof_bytes";
      sig_time = f "sig_time";
      kg_coeff_time = f "kg_coeff_time";
      kg_coeff_bytes = f "kg_coeff_bytes";
      dec_coeff_time = f "dec_coeff_time";
      gumbel_unit_time = f "gumbel_unit_time";
      gumbel_unit_bytes = f "gumbel_unit_bytes";
      laplace_unit_time = f "laplace_unit_time";
      laplace_unit_bytes = f "laplace_unit_bytes";
      cmp_time_ref = f "cmp_time_ref";
      cmp_bytes_ref = f "cmp_bytes_ref";
      triple_setup_time = f "triple_setup_time";
      triple_setup_bytes = f "triple_setup_bytes";
      exp_time_ref = f "exp_time_ref";
      exp_bytes_ref = f "exp_bytes_ref";
      share_op_time = f "share_op_time";
      vsr_overhead_bytes = f "vsr_overhead_bytes";
      round_latency = f "round_latency";
      device_factor = f "device_factor";
      post_flop = f "post_flop";
      audit_bytes = f "audit_bytes";
      audit_time = f "audit_time";
    }
  with
  | t -> Ok t
  | exception J.Parse_error m -> Error m

let fingerprint t =
  Arb_crypto.Sha256.to_hex
    (Arb_crypto.Sha256.digest ("arb-cost-model/1\n" ^ J.to_string (to_json t)))

(* ---------------- per-section predictions ---------------- *)

(* Predicted costs grouped the way the runtime actually measures them
   (Trace: one MPC engine per committee kind, upload bytes summed over
   devices). {!price}'s [c_kind] attributes a fused decrypt+noise vignette
   wholly to [`Operations]; here its decryption share is split back out so
   the pairs line up with [report.committee_wall_clock]. *)
let section_costs t ~n_devices ~m ~cols vignettes =
  let mf = m_scale ~m in
  let kt = ref 0.0
  and kb = ref 0.0
  and dt = ref 0.0
  and ot = ref 0.0
  and ob = ref 0.0
  and ub = ref 0.0 in
  List.iter
    (fun (v : Plan.vignette) ->
      let c = price t ~n_devices ~m ~cols v in
      let ring = ring_for t (match v.Plan.work with
        | Plan.W_keygen cr | W_encrypt_input { crypto = cr; _ }
        | W_he_sum { crypto = cr; _ } | W_he_affine { crypto = cr; _ }
        | W_he_rotate_sum { crypto = cr; _ } | W_he_sketch { crypto = cr; _ }
        | W_he_coarsen { crypto = cr; _ } | W_mpc_decrypt { crypto = cr; _ }
        | W_mpc_decrypt_noise { crypto = cr; _ } -> cr
        | _ -> Plan.Fhe)
        ~cols
      in
      let n = float_of_int ring.ring_n in
      match v.Plan.work with
      | Plan.W_encrypt_input _ -> ub := !ub +. c.c_all_bytes
      | W_mpc_decrypt_noise { cts; _ } ->
          let dec_time = float_of_int cts *. t.dec_coeff_time *. n *. mf in
          let dec_bytes =
            float_of_int cts *. float_of_int (m - 1) *. n *. t.felt_bytes
          in
          dt := !dt +. dec_time;
          ot := !ot +. Float.max 0.0 (c.c_member_time -. dec_time);
          ob := !ob +. Float.max 0.0 (c.c_member_bytes -. dec_bytes)
      | _ -> (
          match c.c_kind with
          | `Keygen ->
              kt := !kt +. c.c_member_time;
              kb := !kb +. c.c_member_bytes
          | `Decryption -> dt := !dt +. c.c_member_time
          | `Operations ->
              ot := !ot +. c.c_member_time;
              ob := !ob +. c.c_member_bytes
          | `Base -> ()))
    vignettes;
  [
    ("keygen_time", !kt);
    ("keygen_bytes", !kb);
    ("decrypt_time", !dt);
    ("ops_time", !ot);
    ("ops_bytes", !ob);
    ("upload_bytes", !ub);
  ]
