(* Tests for the query planner: operator extraction, expansion, cost model,
   and branch-and-bound search. *)

module P = Arb_planner
module Q = Arb_queries.Registry
module Cm = P.Cost_model

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let paper_n = 1_000_000_000

(* ---------------- extraction ---------------- *)

let op_names ops = List.map P.Extract.describe ops

let extract name n =
  let q = Q.test_instance name in
  P.Extract.ops q.Q.program ~n

let test_extract_shapes () =
  let has pat ops =
    List.exists
      (fun s ->
        String.length s >= String.length pat
        && String.sub s 0 (String.length pat) = pat)
      (op_names ops)
  in
  let top1 = extract "top1" 1000 in
  checkb "top1 has sum" true (has "sum[" top1);
  checkb "top1 has em" true (has "em[" top1);
  let topk = extract "topK" 1000 in
  checkb "topK em folded to x5" true
    (List.exists (fun s -> s = "em[16] x5") (op_names topk));
  let median = extract "median" 1000 in
  checkb "median has scan" true (has "scan[" median);
  checkb "median has nonlinear" true (has "nonlinear[" median);
  let secrecy = extract "secrecy" 1000 in
  checkb "secrecy has sampled sum" true (has "sampledSum[" secrecy);
  let hypo = extract "hypotest" 1000 in
  checkb "hypotest has laplace" true (has "laplace[" hypo);
  checkb "hypotest has no em" false (has "em[" hypo)

let test_extract_order () =
  (* The encrypted sum always precedes the mechanism. *)
  List.iter
    (fun name ->
      let ops = op_names (extract name 1000) in
      let idx pat =
        let rec go i = function
          | [] -> max_int
          | s :: rest ->
              if
                String.length s >= String.length pat
                && String.sub s 0 (String.length pat) = pat
              then i
              else go (i + 1) rest
        in
        go 0 ops
      in
      checkb (name ^ ": sum before mechanism") true
        (min (idx "sum") (idx "sampledSum") < min (idx "em") (idx "laplace")))
    Q.names

let test_extract_rejects_dynamic () =
  let p =
    {
      Arb_lang.Ast.name = "bad";
      body =
        Arb_lang.Parser.parse_stmt
          "h = sum(db); x = laplace(h[0]); for i = 0 to x do output(1); endfor";
      row = Arb_lang.Ast.One_hot 4;
      epsilon = 0.5;
    }
  in
  checkb "dynamic loop bound unsupported" true
    (try
       ignore (P.Extract.ops p ~n:100);
       false
     with P.Extract.Unsupported _ -> true)

(* ---------------- expansion ---------------- *)

let ctx ?(crypto = P.Plan.Ahe) ?(cols = 1024) ?tolerance () =
  {
    P.Expand.n_devices = paper_n;
    cols;
    crypto;
    bins = None;
    cm = Cm.default;
    redundant_boundaries = false;
    tolerance;
  }

let test_expand_sum_choices () =
  let cs =
    P.Expand.choices (ctx ()) P.Expand.D_enc
      (P.Extract.A_sum { cols = 1024; sampled_phi = None })
  in
  let he_sum_at loc (it : P.Expand.item) =
    match (it.P.Expand.vignette.P.Plan.location, it.P.Expand.vignette.P.Plan.work) with
    | P.Plan.Aggregator, P.Plan.W_he_sum _ -> loc = `Aggregator
    | P.Plan.Committees _, P.Plan.W_he_sum _ -> loc = `Committees
    | _ -> false
  in
  checkb "several sum instantiations" true (List.length cs >= 4);
  checkb "has aggregator loop" true
    (List.exists
       (fun (c : P.Expand.choice) ->
         match c.P.Expand.items with
         | [ it ] -> he_sum_at `Aggregator it
         | _ -> false)
       cs);
  checkb "has sum trees" true
    (List.exists
       (fun (c : P.Expand.choice) ->
         c.P.Expand.items <> []
         && List.for_all (he_sum_at `Committees) c.P.Expand.items)
       cs)

let test_expand_em_choices () =
  let cs =
    P.Expand.choices (ctx ()) P.Expand.D_enc
      (P.Extract.A_em { cols = 1024; gap = false; rounds = 1 })
  in
  let gumbels =
    List.filter (fun (c : P.Expand.choice) -> c.P.Expand.em_variant = `Gumbel) cs
  in
  let exps =
    List.filter (fun (c : P.Expand.choice) -> c.P.Expand.em_variant = `Exponentiate) cs
  in
  checkb "many gumbel variants" true (List.length gumbels >= 10);
  checkb "many exponentiation variants" true (List.length exps >= 10);
  List.iter
    (fun (c : P.Expand.choice) ->
      checkb "ends in shares" true
        (match c.P.Expand.domain_after with
        | P.Expand.D_shares _ -> true
        | _ -> false);
      checkb "contains a decrypt vignette" true
        (List.exists
           (fun (it : P.Expand.item) ->
             match it.P.Expand.vignette.P.Plan.work with
             | P.Plan.W_mpc_decrypt _ -> true
             | _ -> false)
           c.P.Expand.items))
    cs

let test_expand_nonlinear_needs_fhe_in_enc () =
  let cs = P.Expand.choices (ctx ()) P.Expand.D_enc (P.Extract.A_nonlinear { cols = 64 }) in
  checkb "an FHE option exists" true
    (List.exists (fun (c : P.Expand.choice) -> c.P.Expand.needs_fhe) cs);
  checkb "MPC options do not need FHE" true
    (List.exists (fun (c : P.Expand.choice) -> not c.P.Expand.needs_fhe) cs)

let test_expand_sampled_sum_offers_both_maskings () =
  let ctx = { (ctx ()) with P.Expand.bins = Some 8 } in
  let cs =
    P.Expand.choices ctx P.Expand.D_enc
      (P.Extract.A_sum { cols = 256; sampled_phi = Some 0.25 })
  in
  checkb "fhe mask option" true
    (List.exists (fun (c : P.Expand.choice) -> c.P.Expand.needs_fhe) cs);
  checkb "mpc mask option" true
    (List.exists (fun (c : P.Expand.choice) -> not c.P.Expand.needs_fhe) cs)

let test_expand_prefix () =
  let items = P.Expand.prefix (ctx ()) ~sampled_bins:None in
  checki "four prelude vignettes" 4 (List.length items);
  match List.map (fun (it : P.Expand.item) -> it.P.Expand.vignette.P.Plan.work) items with
  | [ P.Plan.W_zk_setup _; P.Plan.W_keygen _; P.Plan.W_encrypt_input _;
      P.Plan.W_verify_inputs _ ] ->
      ()
  | _ -> Alcotest.fail "unexpected prelude shape"

(* An expansion builds each vignette once and every choice that holds it
   shares the item, so the search prices it once per committee size. The
   EM expansion over 2^15 categories holds thousands of vignettes in a
   few dozen items; one built per choice would need hundreds. *)
let test_expand_builds_each_vignette_once () =
  List.iter
    (fun (label, gap, rounds) ->
      let choices =
        P.Expand.choices (ctx ~cols:32768 ()) P.Expand.D_enc
          (P.Extract.A_em { cols = 32768; gap; rounds })
      in
      let items =
        List.fold_left
          (fun seen (c : P.Expand.choice) ->
            List.fold_left
              (fun seen it -> if List.memq it seen then seen else it :: seen)
              seen c.P.Expand.items)
          [] choices
      in
      let n = List.length items in
      checkb (Printf.sprintf "em over 2^15, %s: %d items, at most 70" label n) true (n <= 70))
    [ ("1 round", false, 1); ("5 rounds", false, 5); ("gap", true, 1) ]

let all_aops cols =
  [ P.Extract.A_sum { cols; sampled_phi = None };
    P.Extract.A_scan { cols };
    P.Extract.A_affine { cols };
    P.Extract.A_nonlinear { cols };
    P.Extract.A_laplace { count = cols };
    P.Extract.A_em { cols; gap = false; rounds = 1 };
    P.Extract.A_em { cols; gap = true; rounds = 1 };
    P.Extract.A_mask { cols };
    P.Extract.A_post { flops = 1; outputs = 1 } ]

let prop_expand_total =
  QCheck.Test.make ~name:"every operator has non-empty, well-formed choices"
    ~count:40
    QCheck.(pair (int_range 1 5000) bool)
    (fun (cols, fhe) ->
      let crypto = if fhe then P.Plan.Fhe else P.Plan.Ahe in
      let c = { (ctx ~crypto ~cols ()) with P.Expand.cols } in
      List.for_all
        (fun op ->
          let choices_enc = P.Expand.choices c P.Expand.D_enc op in
          let choices_sh = P.Expand.choices c (P.Expand.D_shares 16) op in
          choices_enc <> []
          && choices_sh <> []
          && List.for_all
               (fun (ch : P.Expand.choice) ->
                 ch.P.Expand.items <> []
                 && List.for_all
                      (fun (it : P.Expand.item) ->
                        match it.P.Expand.vignette.P.Plan.location with
                        | P.Plan.Committees k -> k >= 1
                        | _ -> true)
                      ch.P.Expand.items)
               (choices_enc @ choices_sh))
        (all_aops cols))

(* ---------------- cost model ---------------- *)

let plan_for ?limits ?heuristics ?max_prefixes name n =
  let q = Q.paper_instance name in
  P.Search.plan ?limits ?heuristics ?max_prefixes ~query:q ~n ()

let metrics_of name n =
  match (plan_for name n).P.Search.metrics with
  | Some m -> m
  | None -> Alcotest.failf "no plan for %s" name

let test_cost_monotone_in_n () =
  let small = metrics_of "top1" 1_000_000 in
  let big = metrics_of "top1" 1_000_000_000 in
  checkb "aggregator time grows with N" true (big.Cm.agg_time > small.Cm.agg_time);
  checkb "aggregator bytes grow with N" true (big.Cm.agg_bytes > small.Cm.agg_bytes);
  checkb "expected participant cost shrinks with N" true
    (big.Cm.part_exp_time <= small.Cm.part_exp_time +. 1e-9)

let test_cost_em_dearer_than_laplace () =
  (* §7.2: the exponential mechanism costs more than the Laplace one. *)
  let em = metrics_of "top1" paper_n in
  let lap = metrics_of "bayes" paper_n in
  checkb "EM aggregator time higher" true (em.Cm.agg_time > lap.Cm.agg_time);
  checkb "EM expected participant time higher" true
    (em.Cm.part_exp_time > lap.Cm.part_exp_time)

let test_cost_ring_scales_with_categories () =
  let small = Cm.ring_for Cm.default P.Plan.Ahe ~cols:1 in
  let big = Cm.ring_for Cm.default P.Plan.Ahe ~cols:32768 in
  checkb "bigger ring for more categories" true (big.Cm.ring_n > small.Cm.ring_n);
  checkb "fhe ciphertexts twice as large" true
    ((Cm.ring_for Cm.default P.Plan.Fhe ~cols:1024).Cm.ct_bytes
    > 1.9 *. (Cm.ring_for Cm.default P.Plan.Ahe ~cols:1024).Cm.ct_bytes)

let test_cost_combine_max_semantics () =
  (* Committee maxima don't add: a device serves on at most one committee. *)
  let mk t =
    {
      Cm.c_agg_time = 0.0; c_agg_bytes = 0.0; c_all_time = 0.0; c_all_bytes = 0.0;
      c_member_time = t; c_member_bytes = 10.0; c_instances = 1; c_members = 5;
      c_kind = `Operations; c_est_error = 0.0;
    }
  in
  let m = Cm.combine ~n_devices:1000 [ mk 10.0; mk 20.0 ] in
  checkb "max member time is the max, not the sum" true
    (Float.abs (m.Cm.part_max_time -. 20.0) < 1e-9);
  checkb "expected is seat-weighted" true
    (Float.abs (m.Cm.part_exp_time -. 0.15) < 1e-9)

let prop_price_scales_with_m =
  QCheck.Test.make ~name:"MPC vignette member cost grows with m" ~count:20
    QCheck.(int_range 10 80)
    (fun m ->
      let v =
        {
          P.Plan.location = P.Plan.Committees 4;
          work = P.Plan.W_mpc_noise { kind = `Gumbel; count = 8 };
        }
      in
      let c1 = Cm.price Cm.default ~n_devices:paper_n ~m ~cols:1024 v in
      let c2 = Cm.price Cm.default ~n_devices:paper_n ~m:(m + 10) ~cols:1024 v in
      c2.Cm.c_member_time > c1.Cm.c_member_time
      && c2.Cm.c_member_bytes > c1.Cm.c_member_bytes)

(* The exact cut-offs rest on this: folding a plan's vignettes in order
   with [add_contribution], a prefix priced at m1 finalizes to at most the
   whole plan priced at any m2 >= m1 — componentwise, in floats, with no
   epsilon. *)
let gen_fold_split =
  let open QCheck.Gen in
  let* cols = 1 -- 5000 in
  let* crypto = oneofl [ P.Plan.Ahe; P.Plan.Fhe ] in
  let* n_devices = oneofl [ 64; 100_000; 1_000_000; 1 lsl 30 ] in
  let* tolerance = opt (return 0.05) in
  let* bins = opt (oneofl [ 4; 8; 16 ]) in
  let c = { (ctx ~crypto ~cols ?tolerance ()) with P.Expand.n_devices; bins } in
  let ops = P.Extract.A_sum { cols; sampled_phi = Some 0.25 } :: all_aops cols in
  let domains = [ P.Expand.D_enc; P.Expand.D_shares 1; P.Expand.D_shares 16 ] in
  let* steps = list_size (1 -- 6) (pair (oneofl ops) (oneofl domains)) in
  let* picked =
    flatten_l
      (List.map
         (fun (op, d) ->
           map
             (fun (ch : P.Expand.choice) -> ch.P.Expand.items)
             (oneofl (P.Expand.choices c d op)))
         steps)
  in
  let vs =
    List.map
      (fun (it : P.Expand.item) -> it.P.Expand.vignette)
      (P.Expand.prefix c ~sampled_bins:bins @ List.concat picked)
  in
  let* k = 0 -- List.length vs in
  let* m1 = 1 -- 80 in
  let* dm = 0 -- 40 in
  let* phi = opt (oneofl [ 0.25; 0.01; 0.001 ]) in
  return (n_devices, cols, vs, k, m1, m1 + dm, phi)

let prop_prefix_fold_lower_bounds_completion =
  QCheck.Test.make
    ~name:"prefix fold at m1 <= completed fold at m2 >= m1 (exact floats)"
    ~count:300
    (QCheck.make
       ~print:(fun (n, cols, vs, k, m1, m2, _) ->
         Printf.sprintf "N=%d C=%d split %d/%d m1=%d m2=%d" n cols k
           (List.length vs) m1 m2)
       gen_fold_split)
    (fun (n_devices, cols, vs, k, m1, m2, sample_phi) ->
      let fold m vs =
        Cm.finalize ?sample_phi ~n_devices
          (Cm.partial_of_contributions
             (List.map (Cm.price Cm.default ~n_devices ~m ~cols) vs))
      in
      let lo = fold m1 (List.filteri (fun i _ -> i < k) vs) and hi = fold m2 vs in
      lo.Cm.agg_time <= hi.Cm.agg_time
      && lo.Cm.agg_bytes <= hi.Cm.agg_bytes
      && lo.Cm.part_exp_time <= hi.Cm.part_exp_time
      && lo.Cm.part_max_time <= hi.Cm.part_max_time
      && lo.Cm.part_exp_bytes <= hi.Cm.part_exp_bytes
      && lo.Cm.part_max_bytes <= hi.Cm.part_max_bytes
      && lo.Cm.est_error <= hi.Cm.est_error)

(* ---------------- search ---------------- *)

let test_search_plans_everything () =
  List.iter
    (fun name ->
      let r = plan_for name paper_n in
      match r.P.Search.plan with
      | Some plan ->
          checkb (name ^ " committees positive") true (plan.P.Plan.committee_count > 0);
          checkb (name ^ " committee size sane") true
            (plan.P.Plan.committee_size >= 10 && plan.P.Plan.committee_size <= 80)
      | None -> Alcotest.failf "no plan for %s" name)
    Q.names

let test_search_respects_limits () =
  List.iter
    (fun name ->
      let m = metrics_of name paper_n in
      checkb (name ^ " under participant time cap") true
        (m.Cm.part_max_time <= (20.0 *. 60.0) +. 1e-6);
      checkb (name ^ " under participant byte cap") true
        (m.Cm.part_max_bytes <= 4.0e9))
    Q.names

let test_search_infeasible_limits () =
  let limits =
    { P.Constraints.no_limits with P.Constraints.max_part_max_time = Some 0.001 }
  in
  let q = Q.paper_instance "top1" in
  let r = P.Search.plan ~limits ~query:q ~n:paper_n () in
  checkb "no plan under impossible limits" true (r.P.Search.plan = None)

let test_search_em_variant_matches_plan () =
  let r = plan_for "top1" paper_n in
  match r.P.Search.plan with
  | Some p -> checkb "top1 plans an em variant" true (p.P.Plan.em_variant <> `None)
  | None -> Alcotest.fail "no plan"

let test_search_heuristics_find_same_best_when_both_finish () =
  (* On a small space, branch-and-bound must not change the winner. *)
  let q = Q.test_instance "hypotest" in
  let with_h = P.Search.plan ~query:q ~n:100_000 () in
  let without_h = P.Search.plan ~heuristics:false ~query:q ~n:100_000 () in
  checkb "neither aborted" true
    ((not with_h.P.Search.stats.P.Search.aborted)
    && not without_h.P.Search.stats.P.Search.aborted);
  match (with_h.P.Search.metrics, without_h.P.Search.metrics) with
  | Some m1, Some m2 ->
      checkb "same optimal expected participant time" true
        (Float.abs (m1.Cm.part_exp_time -. m2.Cm.part_exp_time) < 1e-9)
  | _ -> Alcotest.fail "plans missing"

let test_search_pruning_admissible_all_queries () =
  (* Regression for the unsound bound: prefixes used to be priced at the
     committee size for 1024 committees — an overestimate, so the "lower
     bound" could exceed a completion's true cost and prune the branch
     holding the optimum. Prefixes are now priced at the single-committee
     size. Both pricing modes share that bound, so this exhaustive run,
     not the differential below, is what checks that the m1 prune keeps
     the optimum in floats. Heuristic and exhaustive search must agree on
     the winner for every registry query (on a space small enough to
     exhaust), under the default goal and the three plateau goals where
     the exact cut-offs bite hardest (DESIGN.md §7.4). *)
  List.iter
    (fun goal ->
      List.iter
        (fun name ->
          let q = Q.test_instance name in
          let case = name ^ "/" ^ P.Constraints.goal_name goal in
          let pruned = P.Search.plan ~goal ~query:q ~n:100_000 () in
          let exhaustive =
            P.Search.plan ~goal ~heuristics:false ~max_prefixes:3_000_000
              ~query:q ~n:100_000 ()
          in
          checkb (case ^ ": neither run hit the prefix cap") true
            ((not pruned.P.Search.stats.P.Search.aborted)
            && not exhaustive.P.Search.stats.P.Search.aborted);
          match (pruned.P.Search.metrics, exhaustive.P.Search.metrics) with
          | Some m1, Some m2 ->
              (* Both minimize over the same finite plan set and score full
                 plans with the same canonical fold, so the optimum matches
                 exactly — no tolerance. *)
              checkb (case ^ ": pruned search finds the exhaustive optimum") true
                (P.Constraints.goal_value goal m1 = P.Constraints.goal_value goal m2)
          | None, None -> ()
          | _ -> Alcotest.failf "%s: one mode found a plan, the other none" case)
        Q.names)
    P.Constraints.[ Min_part_exp_time; Min_part_max_time; Min_part_max_bytes; Min_agg_time ]

let render_plan (p, m) =
  P.Plan_io.plan_to_string p ^ "\n"
  ^ Arb_util.Json.to_string (P.Plan_io.metrics_to_json m)

let render_winner r =
  match (r.P.Search.plan, r.P.Search.metrics) with
  | Some p, Some m -> render_plan (p, m)
  | _ -> "none"

(* The winner, then every ranked alternative, plan and metrics each. *)
let render_all r =
  String.concat "\n" (render_winner r :: List.map render_plan r.P.Search.alternatives)

let goals =
  P.Constraints.
    [
      ("part-exp-time", Min_part_exp_time);
      ("part-max-time", Min_part_max_time);
      ("part-exp-bytes", Min_part_exp_bytes);
      ("part-max-bytes", Min_part_max_bytes);
      ("agg-time", Min_agg_time);
      ("agg-bytes", Min_agg_bytes);
    ]

let test_search_incremental_matches_full_repricing () =
  (* The memos price each item, choice and fold once, and the exact
     cut-offs drop subtrees on canonical bounds; the reference mode does
     neither. The ranked lists, winner and runners-up with their metrics,
     must match under every goal. *)
  List.iter
    (fun (tag, goal) ->
      List.iter
        (fun name ->
          let q = Q.test_instance name in
          let inc = P.Search.plan ~goal ~incremental:true ~query:q ~n:1_000_000 () in
          let full = P.Search.plan ~goal ~incremental:false ~query:q ~n:1_000_000 () in
          Alcotest.check Alcotest.string
            (Printf.sprintf "%s/%s: incremental pricing preserves the ranked list" name tag)
            (render_all full) (render_all inc))
        Q.names)
    goals

(* The same differential at any population N = 2^k: the ranked lists, their
   metrics bit for bit ([render_all] prints floats with 17 digits). *)
let prop_incremental_matches_full_any_n =
  QCheck.Test.make ~name:"memoized pricing matches the reference at any N" ~count:30
    (QCheck.make
       ~print:(fun (name, (tag, _), k) -> Printf.sprintf "%s/%s at N = 2^%d" name tag k)
       QCheck.Gen.(triple (oneofl Q.names) (oneofl goals) (6 -- 30)))
    (fun (name, (_, goal), k) ->
      let q = Q.test_instance name in
      let inc = P.Search.plan ~goal ~query:q ~n:(1 lsl k) () in
      let full = P.Search.plan ~goal ~incremental:false ~query:q ~n:(1 lsl k) () in
      render_all inc = render_all full)

(* SHA-256 of [render_all] — the winner's and every ranked alternative's
   plan and metrics JSON — recorded before the exact cut-offs existed.
   "paper": the ten paper instances under each goal at N = 2^30 with the
   evaluation limits (the plan_paper benchmark's cases); "n64": the ten
   test instances planned as the service plans them (N = 64, no limits,
   expected participant time). *)
let golden_digests =
  [
    ("paper", "top1", "part-exp-time",
     "9e23ae3d28d2d6008a65585a3f206a373eb42982042754f1791d66c043414d26");
    ("paper", "top1", "part-max-time",
     "4d16edce7d84e330ff87a6d0ba396fef32594cee976cb17084a0388aee8653a4");
    ("paper", "top1", "part-exp-bytes",
     "15833d1c6930b0ab74b7c47eee2ad15656916809819d3ab6dda9fe007aec8a8f");
    ("paper", "top1", "part-max-bytes",
     "4d16edce7d84e330ff87a6d0ba396fef32594cee976cb17084a0388aee8653a4");
    ("paper", "top1", "agg-time",
     "aae3f6ebf6368afb1d5b3eef84c7e48e8004d950b5c43a7916a389cb72b6cea4");
    ("paper", "top1", "agg-bytes",
     "15833d1c6930b0ab74b7c47eee2ad15656916809819d3ab6dda9fe007aec8a8f");
    ("paper", "topK", "part-exp-time",
     "cc915c7f0ca36359bdc59164f6da0f829032cfb2e032740ad9aaba20d64b9ff6");
    ("paper", "topK", "part-max-time",
     "cd395c184c5557b7433548a51c12364df0d02f19f6df47fc08fdc10456732829");
    ("paper", "topK", "part-exp-bytes",
     "73bd93c1af64b62a2032d0d28675fb3593a6df4f9895ae88a0d4ee01f0d152a0");
    ("paper", "topK", "part-max-bytes",
     "cd395c184c5557b7433548a51c12364df0d02f19f6df47fc08fdc10456732829");
    ("paper", "topK", "agg-time",
     "0f85d3067950d7b74e875da29845d97734a5c392ea82c9846c63cad527ca2d34");
    ("paper", "topK", "agg-bytes",
     "73bd93c1af64b62a2032d0d28675fb3593a6df4f9895ae88a0d4ee01f0d152a0");
    ("paper", "gap", "part-exp-time",
     "4aa385da981b12a75043abcf6ec5e826d66e460769ef3759cf90d22ac070a394");
    ("paper", "gap", "part-max-time",
     "3d69e16501af62897af28bca21accc6131c893a4f1f90fc2b47c8207acea5f19");
    ("paper", "gap", "part-exp-bytes",
     "ca3f5fefac1d364d5ab18268f85e940bea00471da57360ddd3dddfdd2a9da32e");
    ("paper", "gap", "part-max-bytes",
     "3d69e16501af62897af28bca21accc6131c893a4f1f90fc2b47c8207acea5f19");
    ("paper", "gap", "agg-time",
     "4939b476aca62c8c9ebd3b508182eb4e76fb8c7b11117a7de8df50f5b210c928");
    ("paper", "gap", "agg-bytes",
     "ca3f5fefac1d364d5ab18268f85e940bea00471da57360ddd3dddfdd2a9da32e");
    ("paper", "auction", "part-exp-time",
     "8ad0fe1454b67476cbb3d4292ec28bc794bb49de02393c416957d86b20b4c112");
    ("paper", "auction", "part-max-time",
     "22698eea73852686a6e7ef007563412b421c94b49ddadff7cd26940ddce9d4f3");
    ("paper", "auction", "part-exp-bytes",
     "8ad0fe1454b67476cbb3d4292ec28bc794bb49de02393c416957d86b20b4c112");
    ("paper", "auction", "part-max-bytes",
     "22698eea73852686a6e7ef007563412b421c94b49ddadff7cd26940ddce9d4f3");
    ("paper", "auction", "agg-time",
     "db454822da5c5c9af51b82151920991e41827a43cb5476ab6fc2ec977c50ecba");
    ("paper", "auction", "agg-bytes",
     "8ad0fe1454b67476cbb3d4292ec28bc794bb49de02393c416957d86b20b4c112");
    ("paper", "hypotest", "part-exp-time",
     "1373b722dbbfff7239a9ee5f2b127c80785f03a9f5bf83d89f99f44b9c96e483");
    ("paper", "hypotest", "part-max-time",
     "9ed5d89450a698d10dd359e8390a680622ea6b7c4ac41ef2183eea4a3772e912");
    ("paper", "hypotest", "part-exp-bytes",
     "a4bfdbbb0f3582d2ba5b5c6f96658de19daf299c812819668ef2789ae82c25f0");
    ("paper", "hypotest", "part-max-bytes",
     "9ed5d89450a698d10dd359e8390a680622ea6b7c4ac41ef2183eea4a3772e912");
    ("paper", "hypotest", "agg-time",
     "bc90671b4a91d4abdbf7bab086418c7d833ac258c9656e02e68a5a7d073e2177");
    ("paper", "hypotest", "agg-bytes",
     "a4bfdbbb0f3582d2ba5b5c6f96658de19daf299c812819668ef2789ae82c25f0");
    ("paper", "secrecy", "part-exp-time",
     "05490a8cf7ab993be399a0bfdd358bd1cc4814af2923f85f28b69336eb765017");
    ("paper", "secrecy", "part-max-time",
     "1c19483319204d04c8ef0d7058662d2dd5750550d790838ccad96855cf0459f8");
    ("paper", "secrecy", "part-exp-bytes",
     "05490a8cf7ab993be399a0bfdd358bd1cc4814af2923f85f28b69336eb765017");
    ("paper", "secrecy", "part-max-bytes",
     "d2d6ebc583395a6217b280a5913c15807ca3aa7944dd1c1d59e126e669ebff3e");
    ("paper", "secrecy", "agg-time",
     "d2d6ebc583395a6217b280a5913c15807ca3aa7944dd1c1d59e126e669ebff3e");
    ("paper", "secrecy", "agg-bytes",
     "05490a8cf7ab993be399a0bfdd358bd1cc4814af2923f85f28b69336eb765017");
    ("paper", "median", "part-exp-time",
     "2af4d3bd199a669b42d7e8f723d24ab4c098802c9e8cdf4fff8b8db89af9abe3");
    ("paper", "median", "part-max-time",
     "5ca5417323a1aeb43ae0845d4217bb44b3d1d71b2baac23f45b85638b2e3c93a");
    ("paper", "median", "part-exp-bytes",
     "9b600dd02b930f63bebf201d1c73b83a008b28c9ef5a950f3a58e8b71dcf9f86");
    ("paper", "median", "part-max-bytes",
     "d8800c36b21ed9be5d33479a19ba0a2cde276f8a6eae069e078df0ddb2952685");
    ("paper", "median", "agg-time",
     "0f3b038f71a5b9bef6586215da56c4bbb23d7a39634cbe015d9469abfbd18f28");
    ("paper", "median", "agg-bytes",
     "9b600dd02b930f63bebf201d1c73b83a008b28c9ef5a950f3a58e8b71dcf9f86");
    ("paper", "cms", "part-exp-time",
     "2a26042bd49da6656f45ca133805d2e2cda64908e57f342fb247262c9a282620");
    ("paper", "cms", "part-max-time",
     "17e729989a41bece43ac17976ee91333be41e4b79b32b59a4587d679611ba452");
    ("paper", "cms", "part-exp-bytes",
     "79548b355d6205a6ca785e014a8cae46bb22259af0e888a7a690c3b3997ca920");
    ("paper", "cms", "part-max-bytes",
     "873fbafb59af89a6f29c21988eb657e1982acd17ebb468bc3dbc92d84ed5407e");
    ("paper", "cms", "agg-time",
     "445048b6197f9fb5b5a273b36d74f3af2074904b7bc4336812b7b7c47d5dd075");
    ("paper", "cms", "agg-bytes",
     "79548b355d6205a6ca785e014a8cae46bb22259af0e888a7a690c3b3997ca920");
    ("paper", "bayes", "part-exp-time",
     "f6a79f83ce2bb80da746e1d2f7374ec673354a57576c88126d0e540bc9b23042");
    ("paper", "bayes", "part-max-time",
     "e2ed8fd23c4d088556fca5daaf37115bc99fec63ae00a13680ee70173d789254");
    ("paper", "bayes", "part-exp-bytes",
     "ba4533a1e783edfdf8cc2e80d827395158d5253b51886ddd4812e1168c6e5199");
    ("paper", "bayes", "part-max-bytes",
     "202128842b70123174b2f48904861af779379152e2c0468385014b739519cfd6");
    ("paper", "bayes", "agg-time",
     "30c60e78dc30be28733070d80fbb6812064a376aa24c248e86203fc43bf00cc0");
    ("paper", "bayes", "agg-bytes",
     "ba4533a1e783edfdf8cc2e80d827395158d5253b51886ddd4812e1168c6e5199");
    ("paper", "kmedians", "part-exp-time",
     "b32192236d62e9b9e62ad49b3d495ede8835c767c1972b7a0804584b77312901");
    ("paper", "kmedians", "part-max-time",
     "e54e9eb8717816c63439d34663c812c7f554ebd604216851e51831ec383715d7");
    ("paper", "kmedians", "part-exp-bytes",
     "4d9029a9dc244d20cdfac98708e9e36b0b373aa243a65bc09b754df372b02626");
    ("paper", "kmedians", "part-max-bytes",
     "407d6379537f7e531e13e24d116d2ebb2f00f5225091924f55ee6122810a98fe");
    ("paper", "kmedians", "agg-time",
     "2d65a766385982ed80b256e54934a11b16ccab91800863e62a96ca06699a5c52");
    ("paper", "kmedians", "agg-bytes",
     "4d9029a9dc244d20cdfac98708e9e36b0b373aa243a65bc09b754df372b02626");
    ("n64", "top1", "part-exp-time",
     "0dfb75b4f18f0afc135ea30a0eb64860ad71b56364c672abac40aa2abe9ece08");
    ("n64", "topK", "part-exp-time",
     "be3d478a6f3bf647fab4981035af3c3a7e7d3ed8142ce9b0362d728c8166da30");
    ("n64", "gap", "part-exp-time",
     "e261508d04c0b5c9bab95e98b06151ba1d704306fd5551c0360e762e0c0d5271");
    ("n64", "auction", "part-exp-time",
     "bf96031d3802c4a154799010a0faac9f815895088f4173c887fbb66c8d7dc17b");
    ("n64", "hypotest", "part-exp-time",
     "696c72ee03c07202966c74233e093dbff58f224b52f9996c518c125d1a79be92");
    ("n64", "secrecy", "part-exp-time",
     "53f14a85d5869b7cbc67a60acd8f6f6830cd10d0e5d0517b0a5bcf8730e5b638");
    ("n64", "median", "part-exp-time",
     "08afb3490216caae7ae7a7f69f3fef4a29ba5586a4343c5906a6a518a7a11e09");
    ("n64", "cms", "part-exp-time",
     "fd70ee2c37211413982be2a681291c469e3373dc4ec26b0f78f8599045cb8141");
    ("n64", "bayes", "part-exp-time",
     "cc1f62509ff6419510fa6772b52fcb82485e68a299bff9ddcead6811d278c624");
    ("n64", "kmedians", "part-exp-time",
     "5974d18fa078850eeee52730a23bd461c35350d26ffaacaa6691c7bed88dcf0a")
  ]

let test_search_golden_byte_identity () =
  let moved =
    List.filter_map
      (fun (setup, name, tag, digest) ->
        let goal = List.assoc tag goals in
        let query, n, limits =
          match setup with
          | "paper" -> (Q.paper_instance name, 1 lsl 30, P.Constraints.evaluation_limits)
          | _ -> (Q.test_instance name, 64, P.Constraints.no_limits)
        in
        let r = P.Search.plan ~goal ~limits ~query ~n () in
        let got =
          Arb_crypto.Sha256.to_hex (Arb_crypto.Sha256.digest (render_all r))
        in
        if got = digest then None else Some (Printf.sprintf "%s (%s, %s)" setup name tag))
      golden_digests
  in
  checki "golden cases" 70 (List.length golden_digests);
  Alcotest.check
    Alcotest.(list string)
    "cases whose winner, metrics or alternatives moved" [] moved

(* The search's counters for each "paper" case of [golden_digests]: plan
   prefixes, complete plans and prunes ([Search.stats]), then the
   choice-memo hits and misses and the cost-model pricing calls
   ([arb_planner_*] metrics; the node counter equals the prefixes).
   Recorded before the per-call price memo and the node-less exact cut
   existed: both must save work without moving a count. *)
let golden_counters =
  [
    ("top1", "part-exp-time", 358, 5, 347, 3, 5, 3956);
    ("top1", "part-max-time", 3137, 40, 3048, 37, 14, 12259);
    ("top1", "part-exp-bytes", 702, 6, 688, 5, 5, 3884);
    ("top1", "part-max-bytes", 3137, 40, 3048, 37, 14, 12259);
    ("top1", "agg-time", 706, 10, 684, 8, 6, 12836);
    ("top1", "agg-bytes", 702, 6, 688, 5, 5, 3884);
    ("topK", "part-exp-time", 363, 5, 347, 7, 6, 21595);
    ("topK", "part-max-time", 3177, 40, 3048, 75, 16, 64423);
    ("topK", "part-exp-bytes", 1053, 7, 1029, 13, 6, 20600);
    ("topK", "part-max-bytes", 3177, 40, 3048, 75, 16, 64423);
    ("topK", "agg-time", 2764, 5, 2741, 14, 6, 54125);
    ("topK", "agg-bytes", 1053, 7, 1029, 13, 6, 20600);
    ("gap", "part-exp-time", 358, 5, 347, 3, 5, 3978);
    ("gap", "part-max-time", 3137, 40, 3048, 37, 14, 12259);
    ("gap", "part-exp-bytes", 702, 6, 688, 5, 5, 3890);
    ("gap", "part-max-bytes", 3137, 40, 3048, 37, 14, 12259);
    ("gap", "agg-time", 706, 10, 684, 8, 6, 12836);
    ("gap", "agg-bytes", 702, 6, 688, 5, 5, 3890);
    ("auction", "part-exp-time", 7266, 9, 7221, 23, 15, 19497);
    ("auction", "part-max-time", 21929, 40, 21750, 115, 26, 36296);
    ("auction", "part-exp-bytes", 17951, 10, 17866, 60, 17, 23152);
    ("auction", "part-max-bytes", 21929, 40, 21750, 115, 26, 36296);
    ("auction", "agg-time", 736, 10, 710, 8, 10, 12808);
    ("auction", "agg-bytes", 17951, 10, 17866, 60, 17, 23152);
    ("hypotest", "part-exp-time", 14, 2, 9, 1, 4, 74);
    ("hypotest", "part-max-time", 40, 10, 10, 16, 6, 178);
    ("hypotest", "part-exp-bytes", 14, 2, 9, 1, 4, 74);
    ("hypotest", "part-max-bytes", 40, 10, 10, 16, 6, 178);
    ("hypotest", "agg-time", 32, 10, 6, 12, 6, 168);
    ("hypotest", "agg-bytes", 14, 2, 9, 1, 4, 74);
    ("secrecy", "part-exp-time", 62, 1, 59, 0, 8, 385);
    ("secrecy", "part-max-time", 80, 9, 54, 12, 11, 500);
    ("secrecy", "part-exp-bytes", 62, 1, 59, 0, 8, 385);
    ("secrecy", "part-max-bytes", 120, 26, 44, 35, 21, 776);
    ("secrecy", "agg-time", 112, 26, 40, 31, 21, 757);
    ("secrecy", "agg-bytes", 62, 1, 59, 0, 8, 385);
    ("median", "part-exp-time", 5552, 10, 5510, 20, 14, 15785);
    ("median", "part-max-time", 4107, 40, 3978, 63, 28, 36196);
    ("median", "part-exp-bytes", 11435, 11, 11367, 44, 15, 15366);
    ("median", "part-max-bytes", 12668, 40, 12516, 86, 28, 47911);
    ("median", "agg-time", 736, 10, 710, 8, 10, 12808);
    ("median", "agg-bytes", 11435, 11, 11367, 44, 15, 15366);
    ("cms", "part-exp-time", 26, 4, 17, 2, 5, 113);
    ("cms", "part-max-time", 152, 22, 98, 22, 12, 374);
    ("cms", "part-exp-bytes", 26, 4, 17, 2, 5, 113);
    ("cms", "part-max-bytes", 148, 18, 102, 20, 10, 308);
    ("cms", "agg-time", 44, 10, 22, 4, 10, 336);
    ("cms", "agg-bytes", 26, 4, 17, 2, 5, 113);
    ("bayes", "part-exp-time", 20, 2, 15, 1, 4, 89);
    ("bayes", "part-max-time", 110, 20, 60, 20, 12, 358);
    ("bayes", "part-exp-bytes", 20, 2, 15, 1, 4, 89);
    ("bayes", "part-max-bytes", 106, 16, 64, 18, 10, 344);
    ("bayes", "agg-time", 36, 10, 14, 4, 10, 272);
    ("bayes", "agg-bytes", 20, 2, 15, 1, 4, 89);
    ("kmedians", "part-exp-time", 30, 4, 18, 3, 7, 129);
    ("kmedians", "part-max-time", 136, 14, 84, 24, 16, 388);
    ("kmedians", "part-exp-bytes", 34, 5, 19, 4, 8, 143);
    ("kmedians", "part-max-bytes", 158, 18, 92, 32, 18, 416);
    ("kmedians", "agg-time", 40, 10, 14, 4, 14, 260);
    ("kmedians", "agg-bytes", 34, 5, 19, 4, 8, 143)
  ]

let test_search_golden_counters () =
  let moved =
    List.filter_map
      (fun (name, tag, prefixes, full_plans, pruned, hits, misses, price_calls) ->
        let reg = Arb_obs.Metrics.create () in
        let r =
          P.Search.plan ~goal:(List.assoc tag goals)
            ~limits:P.Constraints.evaluation_limits ~metrics:reg
            ~query:(Q.paper_instance name) ~n:(1 lsl 30) ()
        in
        let st = r.P.Search.stats in
        let v k =
          match Arb_obs.Metrics.value_at reg k with
          | Some x -> int_of_float x
          | None -> -1
        in
        let want = [ prefixes; prefixes; full_plans; pruned; hits; misses; price_calls ] in
        let got =
          [
            st.P.Search.prefixes;
            v "arb_planner_nodes_total";
            st.P.Search.full_plans;
            st.P.Search.pruned;
            v "arb_planner_memo_hits_total";
            v "arb_planner_memo_misses_total";
            v "arb_planner_price_calls_total";
          ]
        in
        if got = want then None
        else
          Some
            (Printf.sprintf "%s/%s: %s" name tag
               (String.concat " " (List.map string_of_int got))))
      golden_counters
  in
  checki "counter cases" 60 (List.length golden_counters);
  Alcotest.check
    Alcotest.(list string)
    "cases whose counters moved (prefixes nodes plans pruned hits misses \
     price calls)"
    [] moved

(* The same counters for searches stopped at the prefix cap (per task),
   with the per-depth node counts: a change that saves search work must
   still stop at the same prefix. Recorded with the table above. *)
let golden_cap_counters =
  [
    ("auction", "part-max-bytes", 40, 82, 20, 34, true, [3; 2; 2; 55; 20; 0; 0; 0]);
    ("auction", "part-max-bytes", 300, 602, 40, 514, true, [3; 2; 2; 555; 40; 0; 0; 0]);
    ("auction", "part-max-bytes", 2000, 4002, 40, 3900, true, [3; 16; 42; 3901; 40; 0; 0; 0]);
    ("auction", "part-max-bytes", 9000, 18002, 40, 17838, true, [9; 62; 162; 17729; 40; 0; 0; 0]);
    ("topK", "part-max-time", 40, 82, 20, 18, true, [3; 39; 20; 20; 0; 0; 0; 0]);
    ("topK", "part-max-time", 300, 602, 40, 478, true, [3; 519; 40; 40; 0; 0; 0; 0]);
    ("topK", "part-max-time", 2000, 3177, 40, 3048, false, [10; 3087; 40; 40; 0; 0; 0; 0]);
    ("topK", "part-max-time", 9000, 3177, 40, 3048, false, [10; 3087; 40; 40; 0; 0; 0; 0]);
    ("median", "part-max-bytes", 40, 82, 15, 44, true, [3; 2; 3; 59; 15; 0; 0; 0]);
    ("median", "part-max-bytes", 300, 602, 25, 544, true, [3; 2; 3; 569; 25; 0; 0; 0]);
    ("median", "part-max-bytes", 2000, 4002, 40, 3900, true, [4; 10; 38; 3910; 40; 0; 0; 0]);
    ("median", "part-max-bytes", 9000, 12668, 40, 12516, false, [10; 72; 198; 12348; 40; 0; 0; 0])
  ]

let test_search_golden_cap_counters () =
  let moved =
    List.filter_map
      (fun (name, tag, cap, prefixes, full_plans, pruned, aborted, depths) ->
        let reg = Arb_obs.Metrics.create () in
        let r =
          P.Search.plan ~goal:(List.assoc tag goals)
            ~limits:P.Constraints.evaluation_limits ~metrics:reg
            ~max_prefixes:cap ~query:(Q.paper_instance name) ~n:(1 lsl 30) ()
        in
        let st = r.P.Search.stats in
        let got_depths =
          List.init (List.length depths) (fun d ->
              match
                Arb_obs.Metrics.value_at reg
                  ~labels:[ ("depth", string_of_int d) ]
                  "arb_planner_depth_nodes_total"
              with
              | Some v -> int_of_float v
              | None -> 0)
        in
        if
          st.P.Search.prefixes = prefixes
          && st.P.Search.full_plans = full_plans
          && st.P.Search.pruned = pruned
          && st.P.Search.aborted = aborted
          && got_depths = depths
        then None
        else
          Some
            (Printf.sprintf "%s/%s cap %d: %d %d %d %b [%s]" name tag cap
               st.P.Search.prefixes st.P.Search.full_plans st.P.Search.pruned
               st.P.Search.aborted
               (String.concat "; " (List.map string_of_int got_depths))))
      golden_cap_counters
  in
  Alcotest.check
    Alcotest.(list string)
    "capped cases whose counters moved (prefixes plans pruned aborted \
     [nodes per depth])"
    [] moved

let test_search_ablation_blowup () =
  (* §7.3: disabling the heuristics inflates the explored space by orders
     of magnitude. *)
  let on = plan_for "top1" paper_n in
  let off = plan_for ~heuristics:false ~max_prefixes:500_000 "top1" paper_n in
  checkb
    (Printf.sprintf "blowup %d -> %d" on.P.Search.stats.P.Search.prefixes
       off.P.Search.stats.P.Search.prefixes)
    true
    (off.P.Search.stats.P.Search.prefixes > 50 * on.P.Search.stats.P.Search.prefixes)

let test_search_committee_sizing_consistent () =
  let r = plan_for "topK" paper_n in
  match r.P.Search.plan with
  | Some p ->
      let expected = P.Search.committee_size_for (max 1 p.P.Plan.committee_count) in
      checki "committee size matches solver" expected p.P.Plan.committee_size
  | None -> Alcotest.fail "no plan"

let test_search_aggregator_limit_forces_outsourcing () =
  (* Fig 10: a binding aggregator limit moves the sum off the aggregator. *)
  let q = Q.paper_instance "top1" in
  let n = 1 lsl 28 in
  let unlimited =
    P.Search.plan
      ~limits:{ P.Constraints.evaluation_limits with P.Constraints.max_agg_time = None }
      ~query:q ~n ()
  in
  let limited =
    P.Search.plan
      ~limits:(P.Constraints.with_agg_core_hours P.Constraints.evaluation_limits 1000.0)
      ~query:q ~n ()
  in
  match (unlimited.P.Search.metrics, limited.P.Search.metrics) with
  | Some mu, Some ml ->
      checkb "limited plan has lower aggregator time" true
        (ml.Cm.agg_time < mu.Cm.agg_time);
      checkb "limit respected" true (ml.Cm.agg_time <= 1000.0 *. 3600.0)
  | _ -> Alcotest.fail "plans missing"

let test_search_stops_at_2_30_under_1000h () =
  (* Fig 10: with A = 1000 core-hours the red line stops — ZKP verification
     alone exceeds the cap before N = 2^30. *)
  let q = Q.paper_instance "top1" in
  let limits = P.Constraints.with_agg_core_hours P.Constraints.evaluation_limits 1000.0 in
  let at n = (P.Search.plan ~limits ~query:q ~n ()).P.Search.plan <> None in
  checkb "feasible at 2^26" true (at (1 lsl 26));
  checkb "infeasible at 2^30" false (at (1 lsl 30))

(* ---------------- approximate variants under an error tolerance ------ *)

let test_tolerance_byte_identity () =
  (* Without a tolerance — or with one tighter than any approximate
     variant — the winner is the byte-identical exact plan. *)
  let q = Q.paper_instance "top1" in
  let pick tol =
    let q = { q with Q.error_tolerance = tol } in
    match
      (P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:paper_n ())
        .P.Search.plan
    with
    | Some p -> p
    | None -> Alcotest.fail "no plan"
  in
  let exact = pick None and tight = pick (Some 1e-12) in
  Alcotest.check Alcotest.string "tight tolerance keeps the exact winner"
    (Format.asprintf "%a" P.Plan.pp exact)
    (Format.asprintf "%a" P.Plan.pp tight);
  checkb "exact winner does not sample" true (exact.P.Plan.device_sample = None)

let test_tolerance_admits_cheaper_winner () =
  let q = Q.paper_instance "top1" in
  let goal = P.Constraints.Min_part_exp_time in
  List.iter
    (fun (n, tol) ->
      let run tol =
        let q = { q with Q.error_tolerance = tol } in
        match
          (P.Search.plan ~goal ~limits:P.Constraints.no_limits ~query:q ~n ())
            .P.Search.metrics
        with
        | Some m -> m
        | None -> Alcotest.fail "no plan"
      in
      let m_exact = run None and m_approx = run (Some tol) in
      let at what = Printf.sprintf "%s (N=%d, tolerance %g)" what n tol in
      checkb (at "exact winner carries zero est_error") true
        (m_exact.Cm.est_error = 0.0);
      checkb (at "approx winner within tolerance") true
        (m_approx.Cm.est_error > 0.0 && m_approx.Cm.est_error <= tol);
      checkb (at "approx winner at least 10x cheaper") true
        (P.Constraints.goal_value goal m_approx
        <= 0.1 *. P.Constraints.goal_value goal m_exact))
    [ (paper_n, 0.1); (1_000_000, 0.05) ]

let test_est_error_pricing_and_pruning () =
  (* The sampling term is 2/sqrt(phi*n), additive with vignette error;
     plans over the tolerance are pruned like any constraint violation. *)
  let m = Cm.combine ~sample_phi:0.01 ~n_devices:10_000 [] in
  checkb "sampling error term" true
    (Float.abs (m.Cm.est_error -. 0.2) < 1e-9);
  let q = { (Q.paper_instance "top1") with Q.error_tolerance = Some 0.05 } in
  let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:paper_n () in
  List.iter
    (fun (_, (m : Cm.metrics)) ->
      checkb "every surviving candidate within tolerance" true
        (m.Cm.est_error <= 0.05))
    r.P.Search.alternatives

let test_tolerance_read_off_the_query () =
  (* The query declares its tolerance and every planning entry point reads
     it there: the search under its default limits, the search at
     [no_limits] and [Arboretum.plan] all pick the same sampled plan. *)
  let q =
    { (Q.test_instance ~epsilon:0.5 "top1") with Q.error_tolerance = Some 0.1 }
  in
  let n = 5_000 in
  let search ?limits () =
    match (P.Search.plan ?limits ~query:q ~n ()).P.Search.plan with
    | Some p -> p
    | None -> Alcotest.fail "no plan"
  in
  let default = search ()
  and unlimited = search ~limits:P.Constraints.no_limits ()
  and planned = (Arboretum.plan ~n q).Arboretum.plan in
  let sample = Alcotest.(option (float 0.0)) in
  Alcotest.check sample "default limits sample devices" (Some 0.1)
    default.P.Plan.device_sample;
  Alcotest.check sample "no_limits samples devices" (Some 0.1)
    unlimited.P.Plan.device_sample;
  Alcotest.check sample "Arboretum.plan samples devices" (Some 0.1)
    planned.P.Plan.device_sample;
  Alcotest.check Alcotest.string "the search and Arboretum.plan agree"
    (Format.asprintf "%a" P.Plan.pp planned)
    (Format.asprintf "%a" P.Plan.pp unlimited)

let test_goals_change_plans () =
  (* Different optimization goals must be able to pick different plans:
     minimizing aggregator time favors outsourcing; minimizing expected
     participant time favors the aggregator loop. *)
  let q = Q.paper_instance "top1" in
  let plan_with goal =
    match
      (P.Search.plan ~goal ~limits:P.Constraints.no_limits ~query:q ~n:paper_n ())
        .P.Search.metrics
    with
    | Some m -> m
    | None -> Alcotest.fail "no plan"
  in
  let m_agg = plan_with P.Constraints.Min_agg_time in
  let m_part = plan_with P.Constraints.Min_part_exp_time in
  checkb "agg-time goal achieves lower aggregator time" true
    (m_agg.Cm.agg_time <= m_part.Cm.agg_time);
  checkb "participant goal achieves lower expected participant time" true
    (m_part.Cm.part_exp_time <= m_agg.Cm.part_exp_time);
  checkb "the goals trade off (plans differ)" true
    (m_agg.Cm.agg_time < m_part.Cm.agg_time
    || m_part.Cm.part_exp_time < m_agg.Cm.part_exp_time)

let test_plan_pretty_prints () =
  let r = plan_for "median" paper_n in
  match r.P.Search.plan with
  | Some p ->
      let s = Format.asprintf "%a" P.Plan.pp p in
      checkb "non-trivial rendering" true (String.length s > 100)
  | None -> Alcotest.fail "no plan"

let test_alternatives_ranked () =
  (* Without pruning the search sees the whole space, so several
     alternatives survive; they must be ranked by the goal. *)
  let q = Q.test_instance "cms" in
  let r = P.Search.plan ~heuristics:false ~query:q ~n:1_000_000 () in
  let alts = r.P.Search.alternatives in
  checkb "at least two alternatives" true (List.length alts >= 2);
  let values =
    List.map (fun (_, m) -> m.Cm.part_exp_time) alts
  in
  checkb "ranked by goal value" true
    (List.sort compare values = values);
  (match (r.P.Search.plan, alts) with
  | Some best, (first, _) :: _ -> checkb "winner heads the list" true (best = first)
  | _ -> Alcotest.fail "missing plan")

(* ---------------- serialization ---------------- *)

let test_plan_json_roundtrip_all_queries () =
  List.iter
    (fun name ->
      let r = plan_for name paper_n in
      match r.P.Search.plan with
      | Some plan ->
          let json = P.Plan_io.plan_to_string ~pretty:true plan in
          let back = P.Plan_io.plan_of_string json in
          checkb (name ^ " roundtrips") true (back = plan)
      | None -> Alcotest.failf "no plan for %s" name)
    Q.names

let test_metrics_json_roundtrip () =
  let m = metrics_of "top1" paper_n in
  let back =
    P.Plan_io.metrics_of_json (P.Plan_io.metrics_to_json m)
  in
  checkb "metrics roundtrip" true (back = m)

(* Random plans, covering every [work] constructor — not just the shapes
   the search happens to emit today. *)
let gen_plan =
  let open QCheck.Gen in
  let crypto = oneofl [ P.Plan.Ahe; P.Plan.Fhe ] in
  let kind = oneofl [ `Gumbel; `Laplace ] in
  let small = 1 -- 4096 in
  let work =
    oneof
      [
        map (fun c -> P.Plan.W_keygen c) crypto;
        map (fun n -> P.Plan.W_zk_setup { constraints = n }) small;
        map3
          (fun crypto cts_per_device zk_constraints ->
            P.Plan.W_encrypt_input { crypto; cts_per_device; zk_constraints })
          crypto small small;
        map (fun devices -> P.Plan.W_verify_inputs { devices }) small;
        map3
          (fun crypto cts inputs -> P.Plan.W_he_sum { crypto; cts; inputs })
          crypto small small;
        map3
          (fun crypto cts (muls, adds) ->
            P.Plan.W_he_affine { crypto; cts; muls; adds })
          crypto small (pair small small);
        map3
          (fun crypto cts rotations ->
            P.Plan.W_he_rotate_sum { crypto; cts; rotations })
          crypto small small;
        map2 (fun crypto cts -> P.Plan.W_mpc_decrypt { crypto; cts }) crypto small;
        map3
          (fun crypto cts (kind, count) ->
            P.Plan.W_mpc_decrypt_noise { crypto; cts; kind; count })
          crypto small (pair kind small);
        map (fun elements -> P.Plan.W_mpc_affine { elements }) small;
        map (fun elements -> P.Plan.W_mpc_scan { elements }) small;
        map (fun elements -> P.Plan.W_mpc_nonlinear { elements }) small;
        map2 (fun kind count -> P.Plan.W_mpc_noise { kind; count }) kind small;
        map (fun inputs -> P.Plan.W_mpc_argmax { inputs }) small;
        map (fun count -> P.Plan.W_mpc_exp { count }) small;
        map (fun inputs -> P.Plan.W_mpc_sample_index { inputs }) small;
        map (fun values -> P.Plan.W_mpc_output { values }) small;
        map (fun flops -> P.Plan.W_post { flops }) small;
        map3
          (fun crypto cts (width, depth) ->
            P.Plan.W_he_sketch { crypto; cts; width; depth })
          crypto small (pair small (1 -- 8));
        map3
          (fun crypto cts groups -> P.Plan.W_he_coarsen { crypto; cts; groups })
          crypto small small;
      ]
  in
  let location =
    oneof
      [
        return P.Plan.Aggregator;
        map (fun c -> P.Plan.Committees c) (1 -- 64);
        return P.Plan.Participants;
      ]
  in
  let vignette = map2 (fun location work -> { P.Plan.location; work }) location work in
  let plan =
    let* query = oneofl Q.names in
    let* crypto = crypto in
    let* vignettes = list_size (1 -- 12) vignette in
    let* sample_bins = opt (1 -- 1024) in
    let* committee_count = 0 -- 4096 in
    let* committee_size = 1 -- 80 in
    let* em_variant = oneofl [ `Gumbel; `Exponentiate; `Sketch; `None ] in
    let* device_sample = opt (map (fun k -> 1.0 /. float_of_int k) (1 -- 1000)) in
    return
      {
        P.Plan.query;
        crypto;
        vignettes;
        sample_bins;
        device_sample;
        committee_count;
        committee_size;
        em_variant;
      }
  in
  QCheck.make ~print:(Format.asprintf "%a" P.Plan.pp) plan

let prop_plan_json_roundtrip =
  QCheck.Test.make ~name:"plan JSON roundtrip (random plans)" ~count:500 gen_plan
    (fun plan -> P.Plan_io.plan_of_string (P.Plan_io.plan_to_string plan) = plan)

let gen_metrics =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
  let metrics =
    map
      (fun ((agg_time, agg_bytes, part_exp_time, part_max_time,
             part_exp_bytes, part_max_bytes), est_error) ->
        {
          Cm.agg_time;
          agg_bytes;
          part_exp_time;
          part_max_time;
          part_exp_bytes;
          part_max_bytes;
          est_error;
        })
      (pair (tup6 finite finite finite finite finite finite) finite)
  in
  QCheck.make ~print:(Format.asprintf "%a" Cm.pp_metrics) metrics

let prop_metrics_json_roundtrip =
  QCheck.Test.make ~name:"metrics JSON roundtrip (random finite metrics)"
    ~count:1000 gen_metrics (fun m ->
      P.Plan_io.metrics_of_json
        (Arb_util.Json.of_string
           (Arb_util.Json.to_string (P.Plan_io.metrics_to_json m)))
      = m)

let test_metrics_json_rejects_nonfinite () =
  (* The old %.17g encoder emitted "inf"/"nan", which no parser takes back.
     Serialization must fail loudly instead. *)
  List.iter
    (fun bad ->
      let m = { Cm.zero_metrics with Cm.part_exp_time = bad } in
      checkb
        (Printf.sprintf "raises on %h" bad)
        true
        (try
           ignore (Arb_util.Json.to_string (P.Plan_io.metrics_to_json m));
           false
         with Invalid_argument _ -> true))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let test_plan_json_rejects_garbage () =
  checkb "garbage rejected" true
    (try
       ignore (P.Plan_io.plan_of_string "{\"query\": 42}");
       false
     with Arb_util.Json.Parse_error _ -> true)

let test_explain_renders () =
  let q = Q.paper_instance "top1" in
  let r = P.Search.plan ~query:q ~n:paper_n () in
  match (r.P.Search.plan, r.P.Search.metrics) with
  | Some plan, Some m ->
      let text =
        P.Explain.full ~cm:Cm.default ~n_devices:paper_n
          ~cols:q.Q.categories plan m r.P.Search.alternatives
      in
      checkb "mentions the query" true
        (String.length text > 300
        &&
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        contains text "top1" && contains text "keygen" && contains text "aggregator")
  | _ -> Alcotest.fail "no plan"

(* ---------------- baselines ---------------- *)

let test_orchard_single_committee_costlier_max () =
  (* The single Orchard committee bears more per-member cost than
     Arboretum's spread committees for the same large-C Laplace query. *)
  let cols = 2048 in
  let orch =
    Arb_baselines.Baselines.orchard_metrics ~n:paper_n ~cols ~noise_count:cols
      ~cm:Cm.default
  in
  let q = Q.make ~name:"cms" ~c:cols () in
  let arb =
    match (P.Search.plan ~query:q ~n:paper_n ()).P.Search.metrics with
    | Some m -> m
    | None -> Alcotest.fail "no arboretum plan"
  in
  checkb "orchard max member time >= arboretum's" true
    (orch.Cm.part_max_time >= arb.Cm.part_max_time);
  checkb "expected costs similar (within 3x)" true
    (orch.Cm.part_exp_bytes < (3.0 *. arb.Cm.part_exp_bytes) +. 1.0e6)

let test_strawmen_orders_of_magnitude () =
  let fhe = Arb_baselines.Baselines.fhe_only ~n:100_000_000 ~cols:41_683 in
  checkb "FHE-only needs years" true
    (fhe.Arb_baselines.Baselines.agg_compute_seconds > 3.0e7);
  let mpc = Arb_baselines.Baselines.all_to_all_mpc ~n:100_000_000 in
  checkb "all-to-all needs GBs per device" true
    (mpc.Arb_baselines.Baselines.participant_bytes_typical > 1.0e9);
  let b = Arb_baselines.Baselines.boehler_median ~n:1_300_000_000 ~m:40 in
  checkb "Boehler committee needs TBs" true
    (b.Arb_baselines.Baselines.committee_bytes > 5.0e12)

let () =
  Alcotest.run "arb_planner"
    [
      ( "extract",
        [
          Alcotest.test_case "operator shapes" `Quick test_extract_shapes;
          Alcotest.test_case "order" `Quick test_extract_order;
          Alcotest.test_case "rejects dynamic bounds" `Quick test_extract_rejects_dynamic;
        ] );
      ( "expand",
        [
          Alcotest.test_case "sum choices" `Quick test_expand_sum_choices;
          Alcotest.test_case "em choices" `Quick test_expand_em_choices;
          Alcotest.test_case "nonlinear needs FHE in enc domain" `Quick
            test_expand_nonlinear_needs_fhe_in_enc;
          Alcotest.test_case "sampled sum maskings" `Quick
            test_expand_sampled_sum_offers_both_maskings;
          Alcotest.test_case "prelude" `Quick test_expand_prefix;
          Alcotest.test_case "each vignette built once" `Quick
            test_expand_builds_each_vignette_once;
          qtest prop_expand_total;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "monotone in N" `Quick test_cost_monotone_in_n;
          Alcotest.test_case "EM dearer than Laplace" `Quick
            test_cost_em_dearer_than_laplace;
          Alcotest.test_case "ring scaling" `Quick test_cost_ring_scales_with_categories;
          Alcotest.test_case "combine max semantics" `Quick
            test_cost_combine_max_semantics;
          qtest prop_price_scales_with_m;
          qtest prop_prefix_fold_lower_bounds_completion;
        ] );
      ( "search",
        [
          Alcotest.test_case "plans all ten queries" `Slow test_search_plans_everything;
          Alcotest.test_case "respects limits" `Slow test_search_respects_limits;
          Alcotest.test_case "infeasible limits" `Quick test_search_infeasible_limits;
          Alcotest.test_case "em variant chosen" `Quick
            test_search_em_variant_matches_plan;
          Alcotest.test_case "heuristics preserve the optimum" `Quick
            test_search_heuristics_find_same_best_when_both_finish;
          Alcotest.test_case "pruning admissible on every query" `Slow
            test_search_pruning_admissible_all_queries;
          Alcotest.test_case "incremental pricing matches full" `Slow
            test_search_incremental_matches_full_repricing;
          qtest prop_incremental_matches_full_any_n;
          Alcotest.test_case "golden byte-identity" `Slow
            test_search_golden_byte_identity;
          Alcotest.test_case "golden counters" `Slow test_search_golden_counters;
          Alcotest.test_case "golden counters at the prefix cap" `Quick
            test_search_golden_cap_counters;
          Alcotest.test_case "ablation blowup" `Slow test_search_ablation_blowup;
          Alcotest.test_case "committee sizing consistent" `Quick
            test_search_committee_sizing_consistent;
          Alcotest.test_case "limit forces outsourcing" `Quick
            test_search_aggregator_limit_forces_outsourcing;
          Alcotest.test_case "red line stops" `Quick test_search_stops_at_2_30_under_1000h;
          Alcotest.test_case "tolerance: exact byte-identity" `Quick
            test_tolerance_byte_identity;
          Alcotest.test_case "tolerance: cheaper winner admitted" `Quick
            test_tolerance_admits_cheaper_winner;
          Alcotest.test_case "tolerance: est_error priced and pruned" `Quick
            test_est_error_pricing_and_pruning;
          Alcotest.test_case "tolerance is read off the query" `Quick
            test_tolerance_read_off_the_query;
          Alcotest.test_case "goals change plans" `Quick test_goals_change_plans;
          Alcotest.test_case "plan pretty-prints" `Quick test_plan_pretty_prints;
        ] );
      ( "alternatives",
        [ Alcotest.test_case "ranked design-space sample" `Quick test_alternatives_ranked ] );
      ( "serialization",
        [
          Alcotest.test_case "plan JSON roundtrip (all queries)" `Slow
            test_plan_json_roundtrip_all_queries;
          Alcotest.test_case "metrics roundtrip" `Quick test_metrics_json_roundtrip;
          qtest prop_plan_json_roundtrip;
          qtest prop_metrics_json_roundtrip;
          Alcotest.test_case "non-finite metrics rejected" `Quick
            test_metrics_json_rejects_nonfinite;
          Alcotest.test_case "garbage rejected" `Quick test_plan_json_rejects_garbage;
        ] );
      ( "explain",
        [ Alcotest.test_case "renders the vignette table" `Quick test_explain_renders ] );
      ( "baselines",
        [
          Alcotest.test_case "orchard single committee" `Quick
            test_orchard_single_committee_costlier_max;
          Alcotest.test_case "strawman magnitudes" `Quick
            test_strawmen_orders_of_magnitude;
        ] );
    ]
