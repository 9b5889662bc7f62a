module J = Arb_util.Json

let crypto_to_json = function Plan.Ahe -> J.String "ahe" | Plan.Fhe -> J.String "fhe"

let crypto_of_json j =
  match J.to_str j with
  | "ahe" -> Plan.Ahe
  | "fhe" -> Plan.Fhe
  | other -> raise (J.Parse_error ("unknown cryptosystem " ^ other))

let location_to_json = function
  | Plan.Aggregator -> J.Obj [ ("kind", J.String "aggregator") ]
  | Plan.Participants -> J.Obj [ ("kind", J.String "participants") ]
  | Plan.Committees k ->
      J.Obj [ ("kind", J.String "committees"); ("count", J.Int k) ]

let location_of_json j =
  match J.to_str (J.member "kind" j) with
  | "aggregator" -> Plan.Aggregator
  | "participants" -> Plan.Participants
  | "committees" -> Plan.Committees (J.to_int (J.member "count" j))
  | other -> raise (J.Parse_error ("unknown location " ^ other))

let noise_kind_to_json = function
  | `Gumbel -> J.String "gumbel"
  | `Laplace -> J.String "laplace"

let noise_kind_of_json j =
  match J.to_str j with
  | "gumbel" -> `Gumbel
  | "laplace" -> `Laplace
  | other -> raise (J.Parse_error ("unknown noise kind " ^ other))

let work_to_json (w : Plan.work) =
  let tag name fields = J.Obj (("op", J.String name) :: fields) in
  match w with
  | Plan.W_keygen c -> tag "keygen" [ ("crypto", crypto_to_json c) ]
  | W_zk_setup { constraints } -> tag "zkSetup" [ ("constraints", J.Int constraints) ]
  | W_encrypt_input { crypto; cts_per_device; zk_constraints } ->
      tag "encryptInput"
        [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts_per_device);
          ("zkConstraints", J.Int zk_constraints) ]
  | W_verify_inputs { devices } -> tag "verifyInputs" [ ("devices", J.Int devices) ]
  | W_he_sum { crypto; cts; inputs } ->
      tag "heSum"
        [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts);
          ("inputs", J.Int inputs) ]
  | W_he_affine { crypto; cts; muls; adds } ->
      tag "heAffine"
        [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts);
          ("muls", J.Int muls); ("adds", J.Int adds) ]
  | W_he_rotate_sum { crypto; cts; rotations } ->
      tag "heRotateSum"
        [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts);
          ("rotations", J.Int rotations) ]
  | W_he_sketch { crypto; cts; width; depth } ->
      tag "heSketch"
        [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts);
          ("width", J.Int width); ("depth", J.Int depth) ]
  | W_he_coarsen { crypto; cts; groups } ->
      tag "heCoarsen"
        [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts);
          ("groups", J.Int groups) ]
  | W_mpc_decrypt { crypto; cts } ->
      tag "mpcDecrypt" [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts) ]
  | W_mpc_decrypt_noise { crypto; cts; kind; count } ->
      tag "mpcDecryptNoise"
        [ ("crypto", crypto_to_json crypto); ("cts", J.Int cts);
          ("kind", noise_kind_to_json kind); ("count", J.Int count) ]
  | W_mpc_affine { elements } -> tag "mpcAffine" [ ("elements", J.Int elements) ]
  | W_mpc_scan { elements } -> tag "mpcScan" [ ("elements", J.Int elements) ]
  | W_mpc_nonlinear { elements } -> tag "mpcNonlinear" [ ("elements", J.Int elements) ]
  | W_mpc_noise { kind; count } ->
      tag "mpcNoise" [ ("kind", noise_kind_to_json kind); ("count", J.Int count) ]
  | W_mpc_argmax { inputs } -> tag "mpcArgmax" [ ("inputs", J.Int inputs) ]
  | W_mpc_exp { count } -> tag "mpcExp" [ ("count", J.Int count) ]
  | W_mpc_sample_index { inputs } -> tag "mpcSampleIndex" [ ("inputs", J.Int inputs) ]
  | W_mpc_output { values } -> tag "mpcOutput" [ ("values", J.Int values) ]
  | W_post { flops } -> tag "post" [ ("flops", J.Int flops) ]

let work_of_json j : Plan.work =
  let int k = J.to_int (J.member k j) in
  match J.to_str (J.member "op" j) with
  | "keygen" -> Plan.W_keygen (crypto_of_json (J.member "crypto" j))
  | "zkSetup" -> W_zk_setup { constraints = int "constraints" }
  | "encryptInput" ->
      W_encrypt_input
        { crypto = crypto_of_json (J.member "crypto" j);
          cts_per_device = int "cts"; zk_constraints = int "zkConstraints" }
  | "verifyInputs" -> W_verify_inputs { devices = int "devices" }
  | "heSum" ->
      W_he_sum
        { crypto = crypto_of_json (J.member "crypto" j); cts = int "cts";
          inputs = int "inputs" }
  | "heAffine" ->
      W_he_affine
        { crypto = crypto_of_json (J.member "crypto" j); cts = int "cts";
          muls = int "muls"; adds = int "adds" }
  | "heRotateSum" ->
      W_he_rotate_sum
        { crypto = crypto_of_json (J.member "crypto" j); cts = int "cts";
          rotations = int "rotations" }
  | "heSketch" ->
      W_he_sketch
        { crypto = crypto_of_json (J.member "crypto" j); cts = int "cts";
          width = int "width"; depth = int "depth" }
  | "heCoarsen" ->
      W_he_coarsen
        { crypto = crypto_of_json (J.member "crypto" j); cts = int "cts";
          groups = int "groups" }
  | "mpcDecrypt" ->
      W_mpc_decrypt
        { crypto = crypto_of_json (J.member "crypto" j); cts = int "cts" }
  | "mpcDecryptNoise" ->
      W_mpc_decrypt_noise
        { crypto = crypto_of_json (J.member "crypto" j); cts = int "cts";
          kind = noise_kind_of_json (J.member "kind" j); count = int "count" }
  | "mpcAffine" -> W_mpc_affine { elements = int "elements" }
  | "mpcScan" -> W_mpc_scan { elements = int "elements" }
  | "mpcNonlinear" -> W_mpc_nonlinear { elements = int "elements" }
  | "mpcNoise" ->
      W_mpc_noise
        { kind = noise_kind_of_json (J.member "kind" j); count = int "count" }
  | "mpcArgmax" -> W_mpc_argmax { inputs = int "inputs" }
  | "mpcExp" -> W_mpc_exp { count = int "count" }
  | "mpcSampleIndex" -> W_mpc_sample_index { inputs = int "inputs" }
  | "mpcOutput" -> W_mpc_output { values = int "values" }
  | "post" -> W_post { flops = int "flops" }
  | other -> raise (J.Parse_error ("unknown work item " ^ other))

let em_to_json = function
  | `Gumbel -> J.String "gumbel"
  | `Exponentiate -> J.String "exponentiate"
  | `Sketch -> J.String "sketch"
  | `None -> J.Null

let em_of_json = function
  | J.Null -> `None
  | j -> (
      match J.to_str j with
      | "gumbel" -> `Gumbel
      | "exponentiate" -> `Exponentiate
      | "sketch" -> `Sketch
      | other -> raise (J.Parse_error ("unknown em variant " ^ other)))

let plan_to_json (p : Plan.t) =
  J.Obj
    [
      ("query", J.String p.Plan.query);
      ("crypto", crypto_to_json p.Plan.crypto);
      ( "vignettes",
        J.List
          (List.map
             (fun (v : Plan.vignette) ->
               J.Obj
                 [ ("location", location_to_json v.Plan.location);
                   ("work", work_to_json v.Plan.work) ])
             p.Plan.vignettes) );
      ( "sampleBins",
        match p.Plan.sample_bins with None -> J.Null | Some b -> J.Int b );
      ( "deviceSample",
        match p.Plan.device_sample with None -> J.Null | Some phi -> J.Float phi );
      ("committeeCount", J.Int p.Plan.committee_count);
      ("committeeSize", J.Int p.Plan.committee_size);
      ("emVariant", em_to_json p.Plan.em_variant);
    ]

let plan_of_json j : Plan.t =
  {
    Plan.query = J.to_str (J.member "query" j);
    crypto = crypto_of_json (J.member "crypto" j);
    vignettes =
      List.map
        (fun vj ->
          {
            Plan.location = location_of_json (J.member "location" vj);
            work = work_of_json (J.member "work" vj);
          })
        (J.to_list (J.member "vignettes" j));
    sample_bins =
      (match J.member "sampleBins" j with J.Null -> None | v -> Some (J.to_int v));
    device_sample =
      (match J.member "deviceSample" j with
      | J.Null -> None
      | v -> Some (J.to_float v));
    committee_count = J.to_int (J.member "committeeCount" j);
    committee_size = J.to_int (J.member "committeeSize" j);
    em_variant = em_of_json (J.member "emVariant" j);
  }

let metrics_to_json (m : Cost_model.metrics) =
  J.Obj
    [
      ("aggTime", J.Float m.Cost_model.agg_time);
      ("aggBytes", J.Float m.Cost_model.agg_bytes);
      ("partExpTime", J.Float m.Cost_model.part_exp_time);
      ("partMaxTime", J.Float m.Cost_model.part_max_time);
      ("partExpBytes", J.Float m.Cost_model.part_exp_bytes);
      ("partMaxBytes", J.Float m.Cost_model.part_max_bytes);
      ("estError", J.Float m.Cost_model.est_error);
    ]

let metrics_of_json j =
  {
    Cost_model.agg_time = J.to_float (J.member "aggTime" j);
    agg_bytes = J.to_float (J.member "aggBytes" j);
    part_exp_time = J.to_float (J.member "partExpTime" j);
    part_max_time = J.to_float (J.member "partMaxTime" j);
    part_exp_bytes = J.to_float (J.member "partExpBytes" j);
    part_max_bytes = J.to_float (J.member "partMaxBytes" j);
    est_error = J.to_float (J.member "estError" j);
  }

let plan_to_string ?pretty p = J.to_string ?pretty (plan_to_json p)
let plan_of_string s = plan_of_json (J.of_string s)

(* ---------------- versioned file persistence ---------------- *)

(* v2: plans carry deviceSample, metrics carry estError, work items gained
   heSketch/heCoarsen, and submissions may carry an errorTolerance. v1
   files are rejected on load — cache entries written before the
   approximation dimension demote to misses rather than colliding with
   approximate plans. *)
let format_version = 2

(* EEXIST-tolerant: two processes sharing a store (a --cache-dir, a
   residual log) may race to create it or its parents, and losing that
   race is success, as long as a directory ends up there. *)
let rec mkdir_p dir =
  if not (dir = "" || dir = "." || dir = "/" || Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    match Sys.mkdir dir 0o755 with
    | () -> ()
    | exception Sys_error _
      when try Sys.is_directory dir with Sys_error _ -> false ->
        ()
  end

let save_versioned path fields =
  let doc = J.Obj (("formatVersion", J.Int format_version) :: fields) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~pretty:true doc);
      output_char oc '\n')

let load_versioned path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | text -> (
      match J.of_string text with
      | exception J.Parse_error m ->
          Error (Printf.sprintf "%s: malformed JSON: %s" path m)
      | json -> (
          match J.member "formatVersion" json with
          | exception J.Parse_error _ ->
              Error (path ^ ": missing formatVersion field")
          | J.Int v when v = format_version -> Ok json
          | J.Int v ->
              Error
                (Printf.sprintf "%s: format version %d, expected %d" path v
                   format_version)
          | _ -> Error (path ^ ": formatVersion must be an integer")))

let save_plan path plan = save_versioned path [ ("plan", plan_to_json plan) ]

let load_plan path =
  Result.bind (load_versioned path) (fun json ->
      match plan_of_json (J.member "plan" json) with
      | plan -> Ok plan
      | exception J.Parse_error m ->
          Error (Printf.sprintf "%s: bad plan: %s" path m))
