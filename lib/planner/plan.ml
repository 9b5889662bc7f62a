type crypto = Ahe | Fhe

type location =
  | Aggregator
  | Committees of int
  | Participants

type work =
  | W_keygen of crypto
  | W_zk_setup of { constraints : int }
  | W_encrypt_input of {
      crypto : crypto;
      cts_per_device : int;
      zk_constraints : int;
    }
  | W_verify_inputs of { devices : int }
  | W_he_sum of { crypto : crypto; cts : int; inputs : int }
  | W_he_affine of { crypto : crypto; cts : int; muls : int; adds : int }
  | W_he_rotate_sum of { crypto : crypto; cts : int; rotations : int }
  | W_he_sketch of { crypto : crypto; cts : int; width : int; depth : int }
  | W_he_coarsen of { crypto : crypto; cts : int; groups : int }
  | W_mpc_decrypt of { crypto : crypto; cts : int }
  | W_mpc_decrypt_noise of {
      crypto : crypto;
      cts : int;
      kind : [ `Gumbel | `Laplace ];
      count : int;
    }
  | W_mpc_affine of { elements : int }
  | W_mpc_scan of { elements : int }
  | W_mpc_nonlinear of { elements : int }
  | W_mpc_noise of { kind : [ `Gumbel | `Laplace ]; count : int }
  | W_mpc_argmax of { inputs : int }
  | W_mpc_exp of { count : int }
  | W_mpc_sample_index of { inputs : int }
  | W_mpc_output of { values : int }
  | W_post of { flops : int }

type vignette = { location : location; work : work }

type t = {
  query : string;
  crypto : crypto;
  vignettes : vignette list;
  sample_bins : int option;
  device_sample : float option;
      (* Bernoulli device-sampling rate phi in (0,1); None = every device
         participates (exact) *)
  committee_count : int;
  committee_size : int;
  em_variant : [ `Gumbel | `Exponentiate | `Sketch | `None ];
}

let committee_count vs =
  List.fold_left
    (fun acc v ->
      match v.location with Committees k -> acc + k | _ -> acc)
    0 vs

let charged t cost =
  match t.device_sample with
  | None -> cost
  | Some phi -> Arb_dp.Budget.amplify cost ~phi

let crypto_name = function Ahe -> "AHE" | Fhe -> "FHE"

let describe_work = function
  | W_keygen c -> Printf.sprintf "keygen(%s)" (crypto_name c)
  | W_zk_setup { constraints } -> Printf.sprintf "zkSetup(%d constraints)" constraints
  | W_encrypt_input { crypto; cts_per_device; zk_constraints } ->
      Printf.sprintf "encryptInput(%s, %d cts, %d-constraint proof)"
        (crypto_name crypto) cts_per_device zk_constraints
  | W_verify_inputs { devices } -> Printf.sprintf "verifyInputs(%d)" devices
  | W_he_sum { crypto; cts; inputs } ->
      Printf.sprintf "heSum(%s, %d cts x %d inputs)" (crypto_name crypto) cts inputs
  | W_he_affine { crypto; cts; muls; adds } ->
      Printf.sprintf "heAffine(%s, %d cts, %d muls, %d adds)" (crypto_name crypto)
        cts muls adds
  | W_he_rotate_sum { crypto; cts; rotations } ->
      Printf.sprintf "heRotateSum(%s, %d cts, %d rots)" (crypto_name crypto) cts
        rotations
  | W_he_sketch { crypto; cts; width; depth } ->
      Printf.sprintf "heSketch(%s, %d cts -> %dx%d)" (crypto_name crypto) cts
        depth width
  | W_he_coarsen { crypto; cts; groups } ->
      Printf.sprintf "heCoarsen(%s, %d cts -> %d groups)" (crypto_name crypto)
        cts groups
  | W_mpc_decrypt { crypto; cts } ->
      Printf.sprintf "mpcDecrypt(%s, %d cts)" (crypto_name crypto) cts
  | W_mpc_decrypt_noise { crypto; cts; kind; count } ->
      Printf.sprintf "mpcDecrypt+Noise(%s, %d cts, %s x%d)" (crypto_name crypto)
        cts
        (match kind with `Gumbel -> "gumbel" | `Laplace -> "laplace")
        count
  | W_mpc_affine { elements } -> Printf.sprintf "mpcAffine(%d)" elements
  | W_mpc_scan { elements } -> Printf.sprintf "mpcScan(%d)" elements
  | W_mpc_nonlinear { elements } -> Printf.sprintf "mpcNonlinear(%d)" elements
  | W_mpc_noise { kind; count } ->
      Printf.sprintf "mpcNoise(%s, %d)"
        (match kind with `Gumbel -> "gumbel" | `Laplace -> "laplace")
        count
  | W_mpc_argmax { inputs } -> Printf.sprintf "mpcArgmax(%d)" inputs
  | W_mpc_exp { count } -> Printf.sprintf "mpcExp(%d)" count
  | W_mpc_sample_index { inputs } -> Printf.sprintf "mpcSampleIndex(%d)" inputs
  | W_mpc_output { values } -> Printf.sprintf "mpcOutput(%d)" values
  | W_post { flops } -> Printf.sprintf "post(%d flops)" flops

let describe_location = function
  | Aggregator -> "aggregator"
  | Committees 1 -> "committee"
  | Committees k -> Printf.sprintf "%d committees" k
  | Participants -> "participants"

let pp fmt t =
  (* exact plans print exactly as before the approximation dimension *)
  Format.fprintf fmt "plan for %s [%s, %d committees of %d, em=%s%s]@."
    t.query (crypto_name t.crypto) t.committee_count t.committee_size
    (match t.em_variant with
    | `Gumbel -> "gumbel"
    | `Exponentiate -> "exponentiate"
    | `Sketch -> "sketch"
    | `None -> "n/a")
    (match t.device_sample with
    | None -> ""
    | Some phi -> Printf.sprintf ", sample=%g" phi);
  List.iter
    (fun v ->
      Format.fprintf fmt "  %-16s %s@." (describe_location v.location)
        (describe_work v.work))
    t.vignettes
