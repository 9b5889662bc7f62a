module Plan = Arb_planner.Plan
module Cm = Arb_planner.Cost_model

let vign loc work = { Plan.location = loc; work }

let orchard_plan ~crypto ~n ~cols ~noise_count ~cm =
  let ring = Cm.ring_for cm crypto ~cols in
  let slots = ring.Cm.ring_n in
  let cts = max 1 ((cols + slots - 1) / slots) in
  let vignettes =
    [
      vign (Plan.Committees 1) (Plan.W_zk_setup { constraints = min 100_000 (3 * cols) });
      vign (Plan.Committees 1) (Plan.W_keygen crypto);
      vign Plan.Participants
        (Plan.W_encrypt_input { crypto; cts_per_device = cts; zk_constraints = 3 * cols });
      vign Plan.Aggregator (Plan.W_verify_inputs { devices = n });
      vign Plan.Aggregator (Plan.W_he_sum { crypto; cts; inputs = n });
      (* The single committee decrypts everything and adds all the noise. *)
      vign (Plan.Committees 1) (Plan.W_mpc_decrypt { crypto; cts });
      vign (Plan.Committees 1) (Plan.W_mpc_noise { kind = `Laplace; count = noise_count });
      vign (Plan.Committees 1) (Plan.W_mpc_output { values = noise_count });
      vign Plan.Aggregator (Plan.W_post { flops = noise_count });
    ]
  in
  (* Orchard's committee count is fixed at one (plus setup roles); sizing
     matches the paper's ~40-member setting. *)
  let c = 3 in
  let m = Arb_planner.Search.committee_size_for c in
  {
    Plan.query = "orchard";
    crypto;
    vignettes;
    sample_bins = None;
    device_sample = None;
    committee_count = c;
    committee_size = m;
    em_variant = `None;
  }

let metrics_of_plan ~n ~cols ~cm (p : Plan.t) =
  Cm.combine ~n_devices:n
    (List.map
       (fun v -> Cm.price cm ~n_devices:n ~m:p.Plan.committee_size ~cols v)
       p.Plan.vignettes)

let orchard_metrics ~n ~cols ~noise_count ~cm =
  let p = orchard_plan ~crypto:Plan.Ahe ~n ~cols ~noise_count ~cm in
  metrics_of_plan ~n ~cols ~cm p

type boehler = {
  committee_bytes : float;
  committee_time : float;
  participant_bytes : float;
}

let boehler_median ~n ~m =
  (* §7.1: 1.41 GB of traffic per member with m = 10 and N = 1e6, at least
     linear in N and m. Time extrapolated from the same run (~10 min at the
     reference point), linear in the same factors. *)
  let scale = float_of_int n /. 1.0e6 *. (float_of_int m /. 10.0) in
  {
    committee_bytes = 1.41e9 *. scale;
    committee_time = 600.0 *. scale;
    participant_bytes = 2048.0 (* a masked upload to the committee *);
  }

type strawman = {
  agg_compute_seconds : float;
  participant_bytes_typical : float;
  participant_bytes_worst : float;
  description : string;
}

let fhe_only ~n ~cols =
  (* §3.2: evaluating the zip-code query (cols ~ 41,683) over 1e8 uploads
     needs a ~40-trillion-gate circuit; at ~1e6 homomorphic gates/second
     that is years of computation. Scale gates as n * cols. *)
  let gates = 40.0e12 *. (float_of_int n /. 1.0e8) *. (float_of_int cols /. 41683.0) in
  let gate_rate = 1.0e6 in
  {
    agg_compute_seconds = gates /. gate_rate;
    participant_bytes_typical = 2.2e6 (* one FHE ciphertext *);
    participant_bytes_worst = 2.2e6;
    description = "FHE only: aggregator evaluates the query on ciphertexts";
  }

let all_to_all_mpc ~n =
  (* Per-participant traffic at least linear in N: one field element to
     every other party per multiplication layer; even a single 17-byte
     element to each peer is already N * 17 bytes. *)
  let per_peer = 17.0 in
  {
    agg_compute_seconds = 0.0;
    participant_bytes_typical = per_peer *. float_of_int n;
    participant_bytes_worst = per_peer *. float_of_int n;
    description = "all participants join one giant MPC";
  }
