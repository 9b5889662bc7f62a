type domain = D_enc | D_shares of int

type ctx = {
  n_devices : int;
  cols : int;
  crypto : Plan.crypto;
  bins : int option; (* secrecy-of-the-sample bin count for this candidate *)
  cm : Cost_model.t;
  redundant_boundaries : bool;
  tolerance : float option;
      (* analyst error tolerance; None = exact variants only, so the
         enumeration (not just the winner) is unchanged without one *)
}

(* [priced] is Search's: Expand only creates it empty. *)
type item = {
  vignette : Plan.vignette;
  mutable priced : (int * Cost_model.contribution) list;
}

type choice = {
  items : item list;
  domain_after : domain;
  needs_fhe : bool;
  em_variant : [ `Gumbel | `Exponentiate | `Sketch | `None ];
}

let slots ctx = (Cost_model.ring_for ctx.cm ctx.crypto ~cols:ctx.cols).Cost_model.ring_n

let cts_for ctx cols = max 1 ((cols + slots ctx - 1) / slots ctx)

let vign loc work = { vignette = { Plan.location = loc; work }; priced = [] }

let simple ?(needs_fhe = false) ?(em = `None) items domain_after =
  { items; domain_after; needs_fhe; em_variant = em }

(* Chunk sizes considered when spreading per-category committee work; the
   paper's plans go as fine as one category per committee (Fig. 5). *)
let chunk_options cols = List.filter (fun k -> k <= max 1 cols) [ 1; 4; 16; 64; 256; 1024; 4096 ]

(* Sum-tree fanouts (§4.3). *)
let fanout_options = [ 16; 64; 256; 1024 ]

(* Argmax tournament fanouts. *)
let argmax_fanouts = [ 2; 4; 8; 16; 64 ]

(* Approximate-variant shape options (only enumerated under a tolerance):
   Count-Min widths for the sketch EM variant, coarse-bucket counts for the
   quantile scan. *)
let sketch_widths = [ 64; 256; 1024 ]
let sketch_depth = 3
let coarsen_groups = [ 64; 256 ]

let ceil_div a b = (a + b - 1) / b

(* Committees for a tournament reduction over [n] values with fanout [f]:
   levels of ceil(n/f), until one value remains. *)
let tree_levels n f =
  let rec go n acc =
    if n <= 1 then List.rev acc
    else
      let nodes = ceil_div n f in
      go nodes (nodes :: acc)
  in
  go n []

let decrypt_vignettes ctx ~count ~chunk =
  let committees = ceil_div count chunk in
  let cts = max 1 (ceil_div chunk (slots ctx)) in
  [ vign (Plan.Committees committees) (Plan.W_mpc_decrypt { crypto = ctx.crypto; cts }) ]

(* Reach the shared domain with a given chunking, from wherever we are. *)
let to_shares ctx domain ~count ~chunk =
  match domain with
  | D_shares k when k = chunk -> []
  | D_shares _ | D_enc -> decrypt_vignettes ctx ~count ~chunk
(* A re-chunk from shares is modeled as a fresh decrypt-free reshare; we
   conservatively charge it like a decrypt round only when coming from
   ciphertexts. From shares with a different chunk we charge nothing extra
   here: the VSR hand-off inside the next MPC vignette covers it. *)

let prefix ctx ~sampled_bins =
  let bins = Option.value sampled_bins ~default:1 in
  let row_cols = ctx.cols * bins in
  let cts = cts_for ctx row_cols in
  let zk_constraints = 3 * row_cols in
  [
    vign (Plan.Committees 1) (Plan.W_zk_setup { constraints = min 100_000 zk_constraints });
    vign (Plan.Committees 1) (Plan.W_keygen ctx.crypto);
    vign Plan.Participants
      (Plan.W_encrypt_input { crypto = ctx.crypto; cts_per_device = cts; zk_constraints });
    vign Plan.Aggregator (Plan.W_verify_inputs { devices = ctx.n_devices });
  ]

let sampled_bins_options ops =
  let sampled =
    List.exists
      (function Extract.A_sum { sampled_phi = Some _; _ } -> true | _ -> false)
      ops
  in
  if sampled then [ Some 4; Some 8; Some 16 ] else [ None ]

(* --- per-operator choices --- *)

let sum_choices ctx ~cols ~sampled =
  let cts = cts_for ctx (cols * match sampled with Some b -> b | None -> 1) in
  let agg =
    simple
      [ vign Plan.Aggregator (Plan.W_he_sum { crypto = ctx.crypto; cts; inputs = ctx.n_devices }) ]
      D_enc
  in
  let trees =
    List.map
      (fun f ->
        let levels = tree_levels ctx.n_devices f in
        let vs =
          List.map
            (fun nodes ->
              vign (Plan.Committees nodes)
                (Plan.W_he_sum { crypto = ctx.crypto; cts; inputs = f }))
            levels
        in
        simple vs D_enc)
      fanout_options
  in
  match sampled with
  | None -> agg :: trees
  | Some bins ->
      (* Secrecy of the sample: after summing, only the bins inside the
         committee's secret window may be decrypted. Either the window
         mask is applied homomorphically (ciphertext-by-ciphertext
         multiply -> FHE), or all bins are decrypted into an MPC that
         masks on shares (AHE suffices). *)
      let elements = ctx.cols * bins in
      let fhe_mask =
        vign (Plan.Committees 1)
          (Plan.W_he_affine
             { crypto = Plan.Fhe; cts = cts_for ctx elements; muls = 1; adds = 1 })
      in
      let mpc_mask =
        decrypt_vignettes ctx ~count:elements ~chunk:elements
        @ [ vign (Plan.Committees 1) (Plan.W_mpc_affine { elements }) ]
      in
      List.concat_map
        (fun base ->
          [
            { base with items = base.items @ [ fhe_mask ]; needs_fhe = true;
                        domain_after = D_enc };
            { base with items = base.items @ mpc_mask; domain_after = D_shares elements };
          ])
        (agg :: trees)

let scan_choices ctx domain ~cols =
  let enc_rotate =
    match domain with
    | D_enc ->
        [
          simple
            [
              vign Plan.Aggregator
                (Plan.W_he_rotate_sum
                   { crypto = ctx.crypto; cts = cts_for ctx cols; rotations = min cols (slots ctx) });
            ]
            D_enc;
        ]
    | D_shares _ -> []
  in
  let mpc =
    List.map
      (fun chunk ->
        let committees = ceil_div cols chunk in
        simple
          (to_shares ctx domain ~count:cols ~chunk
          @ [ vign (Plan.Committees committees) (Plan.W_mpc_scan { elements = chunk }) ])
          (D_shares chunk))
      (chunk_options cols)
  in
  (* Under a tolerance: coarsen the encrypted histogram into a few buckets
     first, then scan only those — a rank query loses at most one bucket
     (est_error 1/groups, priced on the W_he_coarsen vignette). *)
  let coarsen =
    match (ctx.tolerance, domain) with
    | Some _, D_enc ->
        List.filter_map
          (fun groups ->
            if groups >= cols then None
            else
              Some
                (simple
                   ((vign Plan.Aggregator
                       (Plan.W_he_coarsen
                          { crypto = ctx.crypto; cts = cts_for ctx cols; groups })
                    :: decrypt_vignettes ctx ~count:groups ~chunk:groups)
                   @ [ vign (Plan.Committees 1) (Plan.W_mpc_scan { elements = groups }) ])
                   (D_shares groups)))
          coarsen_groups
    | _ -> []
  in
  enc_rotate @ mpc @ coarsen

let affine_choices ctx domain ~cols =
  let enc =
    match domain with
    | D_enc ->
        [
          simple
            [
              vign Plan.Aggregator
                (Plan.W_he_affine
                   { crypto = ctx.crypto; cts = cts_for ctx cols; muls = 1; adds = 1 });
            ]
            D_enc;
        ]
    | D_shares _ -> []
  in
  let mpc =
    List.map
      (fun chunk ->
        let committees = ceil_div cols chunk in
        simple
          (to_shares ctx domain ~count:cols ~chunk
          @ [ vign (Plan.Committees committees) (Plan.W_mpc_affine { elements = chunk }) ])
          (D_shares chunk))
      (chunk_options cols)
  in
  enc @ mpc

let nonlinear_choices ctx domain ~cols =
  let fhe =
    (* Comparisons evaluated homomorphically: possible but very expensive
       (deep circuits), and it forces the FHE profile. Priced as a heavy
       affine batch. *)
    match domain with
    | D_enc ->
        [
          {
            (simple
               [
                 vign Plan.Aggregator
                   (Plan.W_he_affine
                      { crypto = Plan.Fhe; cts = cts_for ctx cols;
                        muls = 48; adds = 48 });
               ]
               D_enc)
            with
            needs_fhe = true;
          };
        ]
    | D_shares _ -> []
  in
  let mpc =
    List.map
      (fun chunk ->
        let committees = ceil_div cols chunk in
        simple
          (to_shares ctx domain ~count:cols ~chunk
          @ [ vign (Plan.Committees committees) (Plan.W_mpc_nonlinear { elements = chunk }) ])
          (D_shares chunk))
      (chunk_options cols)
  in
  fhe @ mpc

let laplace_choices ctx domain ~count =
  let release = vign (Plan.Committees 1) (Plan.W_mpc_output { values = count }) in
  List.concat_map
    (fun chunk ->
      let committees = ceil_div count chunk in
      let noise =
        vign (Plan.Committees committees) (Plan.W_mpc_noise { kind = `Laplace; count = chunk })
      in
      let split =
        simple (to_shares ctx domain ~count ~chunk @ [ noise; release ]) (D_shares chunk)
      in
      (* §4.4's exception: let the decryption committee also do the
         noising (fused), saving a hand-off and halving the committee
         count — at the price of a higher per-member maximum. *)
      match domain with
      | D_enc ->
          let cts = max 1 (ceil_div chunk (slots ctx)) in
          let fused =
            simple
              [
                vign (Plan.Committees committees)
                  (Plan.W_mpc_decrypt_noise
                     { crypto = ctx.crypto; cts; kind = `Laplace; count = chunk });
                release;
              ]
              (D_shares chunk)
          in
          [ split; fused ]
      | D_shares _ -> [ split ])
    (chunk_options count)

(* Every vignette of the expansion is built once and shared by the
   choices that hold it: the decrypt, the Gumbel noise and the
   exponentiation into each chunking, the argmax tree of each fanout, and
   exponentiate's trees and sample variants. *)
let em_choices_once ctx domain ~cols ~gap =
  let chunks = chunk_options cols in
  let decrypts =
    List.map (fun dec_chunk -> to_shares ctx domain ~count:cols ~chunk:dec_chunk) chunks
  in
  let output =
    vign (Plan.Committees 1) (Plan.W_mpc_output { values = (if gap then 2 else 1) })
  in
  let argmax_trees =
    let inputs_scale = if gap then 2 else 1 in
    List.map
      (fun fanout ->
        List.map
          (fun nodes ->
            vign (Plan.Committees nodes)
              (Plan.W_mpc_argmax { inputs = fanout * inputs_scale }))
          (tree_levels cols fanout)
        @ [ output ])
      argmax_fanouts
  in
  let gumbel =
    let noises =
      List.map
        (fun noise_chunk ->
          ( noise_chunk,
            vign (Plan.Committees (ceil_div cols noise_chunk))
              (Plan.W_mpc_noise { kind = `Gumbel; count = noise_chunk }) ))
        chunks
    in
    List.concat_map
      (fun decrypt ->
        List.concat_map
          (fun (noise_chunk, noise) ->
            List.map
              (fun tree ->
                simple ~em:`Gumbel (decrypt @ (noise :: tree)) (D_shares noise_chunk))
              argmax_trees)
          noises)
      decrypts
  in
  let exponentiate =
    let max_tree =
      List.map
        (fun nodes -> vign (Plan.Committees nodes) (Plan.W_mpc_argmax { inputs = 8 }))
        (tree_levels cols 8)
    in
    let sum_tree =
      List.map
        (fun nodes -> vign (Plan.Committees nodes) (Plan.W_mpc_affine { elements = 64 }))
        (tree_levels cols 64)
    in
    let sample_variants =
      let sample_64 = vign (Plan.Committees 1) (Plan.W_mpc_sample_index { inputs = 64 }) in
      List.map
        (fun sample_vs -> sum_tree @ sample_vs @ [ output ])
        [
          [ vign (Plan.Committees 1) (Plan.W_mpc_sample_index { inputs = cols }) ];
          List.map (fun _ -> sample_64) (tree_levels cols 64);
        ]
    in
    let exps =
      List.map
        (fun exp_chunk ->
          ( exp_chunk,
            vign (Plan.Committees (ceil_div cols exp_chunk)) (Plan.W_mpc_exp { count = exp_chunk })
          ))
        chunks
    in
    List.concat_map
      (fun decrypt ->
        let decrypt_max = decrypt @ max_tree in
        List.concat_map
          (fun (exp_chunk, exp) ->
            List.map
              (fun rest ->
                simple ~em:`Exponentiate (decrypt_max @ (exp :: rest)) (D_shares exp_chunk))
              sample_variants)
          exps)
      decrypts
  in
  (* Under a tolerance: project the encrypted histogram into a Count-Min
     sketch (public HE work — CMS is linear), then decrypt + Laplace-noise
     only depth x width counters instead of running the full EM machinery
     over every category. The argmax over noisy min-estimates happens in
     cleartext postprocessing (report-noisy-max). *)
  let sketch =
    match (ctx.tolerance, domain) with
    | Some _, D_enc ->
        List.filter_map
          (fun width ->
            if width >= cols then None
            else
              let counters = sketch_depth * width in
              let cts = max 1 (ceil_div counters (slots ctx)) in
              Some
                {
                  (simple
                     [
                       vign Plan.Aggregator
                         (Plan.W_he_sketch
                            { crypto = ctx.crypto; cts = cts_for ctx cols;
                              width; depth = sketch_depth });
                       vign (Plan.Committees 1)
                         (Plan.W_mpc_decrypt_noise
                            { crypto = ctx.crypto; cts; kind = `Laplace;
                              count = counters });
                       vign (Plan.Committees 1)
                         (Plan.W_mpc_output { values = counters });
                       vign Plan.Aggregator
                         (Plan.W_post { flops = counters + cols });
                     ]
                     (D_shares counters))
                  with
                  em_variant = `Sketch;
                })
          sketch_widths
    | _ -> []
  in
  gumbel @ exponentiate @ sketch

let em_choices ctx domain ~cols ~gap ~rounds =
  let once = em_choices_once ctx domain ~cols ~gap in
  if rounds <= 1 then once
  else
    let mask =
      vign Plan.Aggregator
        (Plan.W_he_affine { crypto = ctx.crypto; cts = cts_for ctx cols; muls = 1; adds = 1 })
    in
    let repeat (c : choice) =
      let rec build k acc = if k = 0 then acc else build (k - 1) (acc @ (mask :: c.items)) in
      { c with items = build (rounds - 1) c.items }
    in
    List.map repeat once

let mask_choices ctx ~cols =
  [
    simple
      [
        vign Plan.Aggregator
          (Plan.W_he_affine { crypto = ctx.crypto; cts = cts_for ctx cols; muls = 1; adds = 1 });
      ]
      D_enc;
  ]

let post_choices ~flops =
  [ simple [ vign Plan.Aggregator (Plan.W_post { flops = max 1 flops }) ] D_enc ]

let choices ctx domain (op : Extract.aop) =
  let cs =
    match op with
    | Extract.A_sum { cols; sampled_phi } ->
        let sampled =
          match sampled_phi with
          | None -> None
          | Some _ -> Some (Option.value ctx.bins ~default:8)
        in
        sum_choices ctx ~cols ~sampled
    | A_scan { cols } -> scan_choices ctx domain ~cols
    | A_affine { cols } -> affine_choices ctx domain ~cols
    | A_nonlinear { cols } -> nonlinear_choices ctx domain ~cols
    | A_laplace { count } -> laplace_choices ctx domain ~count
    | A_em { cols; gap; rounds } -> em_choices ctx domain ~cols ~gap ~rounds
    | A_mask { cols } -> mask_choices ctx ~cols
    | A_post { flops; _ } -> post_choices ~flops
  in
  if not ctx.redundant_boundaries then cs
  else
    (* Heuristics-off ablation (§7.3): also enumerate equivalent
       re-segmentations of every choice — each vignette list split at every
       possible boundary — mimicking a search without the vignette-merging
       rules. The plans are semantically identical, so this only inflates
       the space. *)
    List.concat_map
      (fun c ->
        let n = List.length c.items in
        List.init (max 1 n) (fun _ -> c))
      cs

(* Cleartext post-processing and public re-masking have one choice, the
   same from every domain. *)
let forced_items ctx (op : Extract.aop) =
  match op with
  | Extract.A_post _ | A_mask _ -> (
      match choices ctx D_enc op with [ c ] -> c.items | _ -> [])
  | A_sum _ | A_scan _ | A_affine _ | A_nonlinear _ | A_laplace _ | A_em _ ->
      []
