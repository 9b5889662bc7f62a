module J = Arb_util.Json
module M = Arb_obs.Metrics

type section_fit = {
  s_section : string;
  s_samples : int;
  s_scale : float;
  s_err_before : float;
  s_err_after : float;
}

type provenance = {
  p_runs : int;
  p_skipped : int;
  p_base : string;
  p_err_before : float;
  p_err_after : float;
  p_sections : section_fit list;
}

let empty_provenance =
  {
    p_runs = 0;
    p_skipped = 0;
    p_base = "";
    p_err_before = 0.0;
    p_err_after = 0.0;
    p_sections = [];
  }

type t = {
  version : int;
  constants : Cost_model.t;
  fingerprint : string;
  provenance : provenance;
}

let current_version = 1
let schema = "arb-calibration/1"

type error =
  | Unreadable of { path : string; reason : string }
  | Malformed of { path : string; reason : string }
  | Future_version of { path : string; found : int; supported : int }

let error_message = function
  | Unreadable { path; reason } ->
      Printf.sprintf "calibration %s: unreadable (%s)" path reason
  | Malformed { path; reason } ->
      Printf.sprintf "calibration %s: malformed (%s)" path reason
  | Future_version { path; found; supported } ->
      Printf.sprintf
        "calibration %s: version %d is newer than this binary supports (%d)"
        path found supported

let make ?(provenance = empty_provenance) constants =
  {
    version = current_version;
    constants;
    fingerprint = Cost_model.fingerprint constants;
    provenance;
  }

let default = make Cost_model.default

(* ---------------- JSON ---------------- *)

let section_to_json s =
  J.Obj
    [
      ("section", J.String s.s_section);
      ("samples", J.Int s.s_samples);
      ("scale", J.Float s.s_scale);
      ("errBefore", J.Float s.s_err_before);
      ("errAfter", J.Float s.s_err_after);
    ]

let provenance_to_json p =
  J.Obj
    [
      ("runs", J.Int p.p_runs);
      ("skipped", J.Int p.p_skipped);
      ("base", J.String p.p_base);
      ("errBefore", J.Float p.p_err_before);
      ("errAfter", J.Float p.p_err_after);
      ("sections", J.List (List.map section_to_json p.p_sections));
    ]

let to_json t =
  J.Obj
    [
      ("schema", J.String schema);
      ("version", J.Int t.version);
      ("fingerprint", J.String t.fingerprint);
      ("constants", Cost_model.to_json t.constants);
      ("provenance", provenance_to_json t.provenance);
    ]

let section_of_json json =
  {
    s_section = J.to_str (J.member "section" json);
    s_samples = J.to_int (J.member "samples" json);
    s_scale = J.to_float (J.member "scale" json);
    s_err_before = J.to_float (J.member "errBefore" json);
    s_err_after = J.to_float (J.member "errAfter" json);
  }

let provenance_of_json json =
  {
    p_runs = J.to_int (J.member "runs" json);
    p_skipped = J.to_int (J.member "skipped" json);
    p_base = J.to_str (J.member "base" json);
    p_err_before = J.to_float (J.member "errBefore" json);
    p_err_after = J.to_float (J.member "errAfter" json);
    p_sections =
      List.map section_of_json (J.to_list (J.member "sections" json));
  }

let of_json ?(path = "<json>") json =
  match
    let s = J.to_str (J.member "schema" json) in
    if s <> schema then
      raise (J.Parse_error (Printf.sprintf "schema %S, expected %S" s schema));
    let version = J.to_int (J.member "version" json) in
    if version > current_version then Error (`Future version)
    else
      let fingerprint = J.to_str (J.member "fingerprint" json) in
      match Cost_model.of_json (J.member "constants" json) with
      | Error m -> raise (J.Parse_error ("constants: " ^ m))
      | Ok constants ->
          if Cost_model.fingerprint constants <> fingerprint then
            raise
              (J.Parse_error
                 "fingerprint does not match the constants (corrupt or \
                  hand-edited file)");
          let provenance = provenance_of_json (J.member "provenance" json) in
          Ok { version; constants; fingerprint; provenance }
  with
  | Ok t -> Ok t
  | Error (`Future found) ->
      Error (Future_version { path; found; supported = current_version })
  | exception J.Parse_error m -> Error (Malformed { path; reason = m })

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~pretty:true (to_json t));
      output_char oc '\n')

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error (Unreadable { path; reason = m })
  | raw -> (
      match J.of_string raw with
      | exception J.Parse_error m -> Error (Malformed { path; reason = m })
      | json -> of_json ~path json)

let load_or_default path =
  match load path with
  | Ok t -> (t, None)
  | Error e -> (default, Some e)

(* ---------------- recording residuals ---------------- *)

let sections =
  [
    "keygen_time";
    "keygen_bytes";
    "decrypt_time";
    "ops_time";
    "ops_bytes";
    "upload_bytes";
  ]

let predicted_name = "arb_cal_predicted_total"
let measured_name = "arb_cal_measured_total"

let residual_buckets =
  [ 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 100.0; 1000.0 ]

let rel_err ~predicted ~measured =
  Float.abs (predicted -. measured) /. Float.max (Float.abs measured) 1e-12

let record reg samples =
  List.iter
    (fun (section, predicted, measured) ->
      let labels = [ ("section", section) ] in
      M.add reg ~labels
        ~help:"Cost-model predicted totals per calibration section"
        predicted_name predicted;
      M.add reg ~labels
        ~help:"Runtime-measured totals per calibration section" measured_name
        measured;
      if measured > 0.0 then
        M.observe_in reg ~labels ~buckets:residual_buckets
          ~help:
            "Relative predicted-vs-measured error per executed plan and \
             section"
          "arb_cal_residual_rel"
          (rel_err ~predicted ~measured))
    samples

(* ---------------- fitting ---------------- *)

(* Which constants each section's scale multiplies. Groups are (nearly)
   disjoint and each section's prediction is linear in its group, so
   scaling the group by [sum measured / sum predicted] moves that
   section's predictions exactly onto the fitted line; the one overlap
   (felt_bytes also appears in MPC share traffic) is dominated by the
   per-mechanism byte constants and stays second-order. *)
let apply_scales (base : Cost_model.t) scales =
  let s key = match List.assoc_opt key scales with Some v -> v | None -> 1.0 in
  let kt = s "keygen_time"
  and kb = s "keygen_bytes"
  and dt = s "decrypt_time"
  and ot = s "ops_time"
  and ob = s "ops_bytes"
  and ub = s "upload_bytes" in
  {
    base with
    Cost_model.kg_coeff_time = base.Cost_model.kg_coeff_time *. kt;
    zk_setup_per_constraint = base.Cost_model.zk_setup_per_constraint *. kt;
    kg_coeff_bytes = base.Cost_model.kg_coeff_bytes *. kb;
    dec_coeff_time = base.Cost_model.dec_coeff_time *. dt;
    gumbel_unit_time = base.Cost_model.gumbel_unit_time *. ot;
    laplace_unit_time = base.Cost_model.laplace_unit_time *. ot;
    cmp_time_ref = base.Cost_model.cmp_time_ref *. ot;
    exp_time_ref = base.Cost_model.exp_time_ref *. ot;
    triple_setup_time = base.Cost_model.triple_setup_time *. ot;
    share_op_time = base.Cost_model.share_op_time *. ot;
    round_latency = base.Cost_model.round_latency *. ot;
    gumbel_unit_bytes = base.Cost_model.gumbel_unit_bytes *. ob;
    laplace_unit_bytes = base.Cost_model.laplace_unit_bytes *. ob;
    cmp_bytes_ref = base.Cost_model.cmp_bytes_ref *. ob;
    exp_bytes_ref = base.Cost_model.exp_bytes_ref *. ob;
    triple_setup_bytes = base.Cost_model.triple_setup_bytes *. ob;
    vsr_overhead_bytes = base.Cost_model.vsr_overhead_bytes *. ob;
    felt_bytes = base.Cost_model.felt_bytes *. ub;
    proof_bytes = base.Cost_model.proof_bytes *. ub;
    audit_bytes = base.Cost_model.audit_bytes *. ub;
  }

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let fit ?(base = Cost_model.default) ~runs () =
  let usable (_, p, m) = p > 0.0 && m > 0.0 in
  let runs = List.map (List.filter usable) runs in
  let contributing = List.filter (fun r -> r <> []) runs in
  if contributing = [] then
    Error "no usable predicted-vs-measured samples (nothing was recorded)"
  else begin
    let per_section section =
      let pairs =
        List.concat_map
          (List.filter_map (fun (s, p, m) ->
               if s = section then Some (p, m) else None))
          contributing
      in
      match pairs with
      | [] -> None
      | _ ->
          let sp = List.fold_left (fun a (p, _) -> a +. p) 0.0 pairs
          and sm = List.fold_left (fun a (_, m) -> a +. m) 0.0 pairs in
          let scale = sm /. sp in
          let before =
            List.map (fun (p, m) -> rel_err ~predicted:p ~measured:m) pairs
          and after =
            List.map
              (fun (p, m) -> rel_err ~predicted:(scale *. p) ~measured:m)
              pairs
          in
          Some
            {
              s_section = section;
              s_samples = List.length pairs;
              s_scale = scale;
              s_err_before = mean before;
              s_err_after = mean after;
            }
    in
    let fits = List.filter_map per_section sections in
    let weighted sel =
      mean
        (List.concat_map
           (fun f -> List.init f.s_samples (fun _ -> sel f))
           fits)
    in
    let scales = List.map (fun f -> (f.s_section, f.s_scale)) fits in
    let constants = apply_scales base scales in
    let provenance =
      {
        p_runs = List.length contributing;
        p_skipped = 0;
        p_base = Cost_model.fingerprint base;
        p_err_before = weighted (fun f -> f.s_err_before);
        p_err_after = weighted (fun f -> f.s_err_after);
        p_sections = fits;
      }
    in
    Ok (make ~provenance constants)
  end

(* ---------------- the residual log ---------------- *)

let log_schema = "arb-residuals/1"
let log_file ~dir = Filename.concat dir "residuals.jsonl"

let append ~dir ~model samples =
  let line =
    J.to_string
      (J.Obj
         [
           ("schema", J.String log_schema);
           ("model", J.String model);
           ( "samples",
             J.List
               (List.map
                  (fun (s, p, m) -> J.List [ J.String s; J.Float p; J.Float m ])
                  samples) );
         ])
    ^ "\n"
  in
  let path = log_file ~dir in
  match
    Plan_io.mkdir_p dir;
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* One write call per line: O_APPEND makes concurrent writers
           interleave whole lines, never bytes. *)
        ignore (Unix.write_substring fd line 0 (String.length line)))
  with
  | () -> Ok ()
  | exception Sys_error m -> Error m
  | exception Unix.Unix_error (e, _, _) ->
      Error (path ^ ": " ^ Unix.error_message e)

(* A line's model fingerprint and samples; [None] when torn or malformed. *)
let parse_line line =
  try
    let json = J.of_string line in
    if J.to_str (J.member "schema" json) <> log_schema then None
    else
      Some
        ( J.to_str (J.member "model" json),
          List.map
            (fun sample ->
              match J.to_list sample with
              | [ s; p; m ] -> (J.to_str s, J.to_float p, J.to_float m)
              | _ -> raise (J.Parse_error "a sample is not a triple"))
            (J.to_list (J.member "samples" json)) )
  with J.Parse_error _ -> None

(* The runs priced under [model], in file order, and how many lines were
   skipped. A missing log holds no runs. *)
let read_log ~dir ~model =
  match open_in_bin (log_file ~dir) with
  | exception Sys_error _ -> ([], 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go runs skipped =
            match input_line ic with
            | exception End_of_file -> (List.rev runs, skipped)
            | "" -> go runs skipped
            | line -> (
                match parse_line line with
                | Some (m, samples) when m = model -> go (samples :: runs) skipped
                | _ -> go runs (skipped + 1))
          in
          go [] 0)

let fit_snapshots ?(base = Cost_model.default) ~dir () =
  let runs, skipped = read_log ~dir ~model:(Cost_model.fingerprint base) in
  match fit ~base ~runs () with
  | Error _ when runs = [] ->
      Error
        (Printf.sprintf
           "no residuals priced under the base model in %s (write some with \
            --snapshots)"
           (log_file ~dir))
  | Error m -> Error m
  | Ok t ->
      Ok { t with provenance = { t.provenance with p_skipped = skipped } }
