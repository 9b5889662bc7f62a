(* Tests for the differential-privacy layer: mechanisms, budget accounting,
   committee sizing. *)

module M = Arb_dp.Mechanisms
module B = Arb_dp.Budget
module Cm = Arb_dp.Committee
module Rng = Arb_util.Rng
module S = Arb_util.Stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Laplace mechanism ---------------- *)

let test_laplace_centering_and_scale () =
  let rng = Rng.create 1L in
  let n = 100_000 in
  let samples =
    Array.init n (fun _ -> M.laplace rng ~epsilon:0.5 ~sensitivity:2.0 10.0)
  in
  (* scale = sens/eps = 4; mean 10, var 2*16 = 32 *)
  checkb "mean near 10" true (Float.abs (S.mean samples -. 10.0) < 0.1);
  checkb "variance near 32" true (Float.abs (S.variance samples -. 32.0) < 2.0)

let test_laplace_rejects () =
  let rng = Rng.create 2L in
  Alcotest.check_raises "epsilon 0"
    (Invalid_argument "Mechanisms.laplace: epsilon <= 0") (fun () ->
      ignore (M.laplace rng ~epsilon:0.0 ~sensitivity:1.0 0.0))

(* Empirical check of the core epsilon-DP inequality for the Laplace
   mechanism on two adjacent counts: P[out > thr | d1] <= e^eps P[out > thr | d2] + slack. *)
let test_laplace_dp_inequality () =
  let eps = 0.5 in
  let trials = 60_000 in
  let count db_value =
    let rng = Rng.create 3L in
    let hits = ref 0 in
    for _ = 1 to trials do
      if M.laplace rng ~epsilon:eps ~sensitivity:1.0 db_value > 10.5 then incr hits
    done;
    float_of_int !hits /. float_of_int trials
  in
  let p1 = count 10.0 and p2 = count 9.0 in
  checkb "dp inequality (with sampling slack)" true (p1 <= (exp eps *. p2) +. 0.01)

(* ---------------- exponential mechanism ---------------- *)

let em_distribution mechanism scores trials seed =
  let rng = Rng.create seed in
  let counts = Array.make (Array.length scores) 0 in
  for _ = 1 to trials do
    let w = mechanism rng scores in
    counts.(w) <- counts.(w) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int trials) counts

let theoretical_em_probs ~epsilon ~sensitivity scores =
  let k = epsilon /. (2.0 *. sensitivity) in
  let m = Array.fold_left Float.max neg_infinity scores in
  let ws = Array.map (fun s -> exp (k *. (s -. m))) scores in
  let total = Array.fold_left ( +. ) 0.0 ws in
  Array.map (fun w -> w /. total) ws

let test_em_gumbel_distribution () =
  let scores = [| 0.0; 2.0; 4.0 |] in
  let got =
    em_distribution
      (fun rng s -> M.exponential_gumbel rng ~epsilon:1.0 ~sensitivity:1.0 s)
      scores 60_000 4L
  in
  let want = theoretical_em_probs ~epsilon:1.0 ~sensitivity:1.0 scores in
  Array.iteri
    (fun i p ->
      checkb
        (Printf.sprintf "category %d: got %.3f want %.3f" i got.(i) p)
        true
        (Float.abs (got.(i) -. p) < 0.015))
    want

let test_em_sample_distribution () =
  (* The exponentiation instantiation must induce the same distribution. *)
  let scores = [| 0.0; 2.0; 4.0 |] in
  let got =
    em_distribution
      (fun rng s -> M.exponential_sample rng ~epsilon:1.0 ~sensitivity:1.0 s)
      scores 60_000 5L
  in
  let want = theoretical_em_probs ~epsilon:1.0 ~sensitivity:1.0 scores in
  Array.iteri
    (fun i p ->
      checkb
        (Printf.sprintf "category %d: got %.3f want %.3f" i got.(i) p)
        true
        (Float.abs (got.(i) -. p) < 0.015))
    want

let test_em_epsilon_controls_concentration () =
  let scores = [| 0.0; 10.0 |] in
  let prob eps =
    (em_distribution
       (fun rng s -> M.exponential_gumbel rng ~epsilon:eps ~sensitivity:1.0 s)
       scores 20_000 6L).(1)
  in
  let p_low = prob 0.1 and p_high = prob 2.0 in
  checkb "higher epsilon concentrates more" true (p_high > p_low +. 0.1)

let test_top_k () =
  let rng = Rng.create 7L in
  let scores = [| 100.0; 90.0; 80.0; 1.0; 2.0; 3.0 |] in
  let top = M.top_k rng ~epsilon:5.0 ~sensitivity:1.0 ~k:3 scores in
  checki "k results" 3 (Array.length top);
  let distinct = List.sort_uniq compare (Array.to_list top) in
  checki "distinct" 3 (List.length distinct);
  (* With huge epsilon the true top 3 should be found. *)
  checkb "found true top-3" true
    (List.sort compare (Array.to_list top) = [ 0; 1; 2 ]);
  (* one-shot variant *)
  let top' = M.top_k rng ~epsilon:5.0 ~sensitivity:1.0 ~k:3 ~fresh_noise:false scores in
  checkb "one-shot also finds top-3" true
    (List.sort compare (Array.to_list top') = [ 0; 1; 2 ])

let test_top_k_rejects () =
  let rng = Rng.create 8L in
  Alcotest.check_raises "k too big" (Invalid_argument "Mechanisms.top_k") (fun () ->
      ignore (M.top_k rng ~epsilon:1.0 ~sensitivity:1.0 ~k:5 [| 1.0; 2.0 |]))

let test_noisy_max_gap () =
  let rng = Rng.create 9L in
  let w, gap = M.noisy_max_gap rng ~epsilon:5.0 ~sensitivity:1.0 [| 1.0; 500.0; 3.0 |] in
  checki "winner" 1 w;
  checkb "gap positive" true (gap > 0.0);
  checkb "gap near 497" true (Float.abs (gap -. 497.0) < 40.0)

let test_geometric_stats () =
  let rng = Rng.create 10L in
  let n = 100_000 in
  let eps = 0.5 in
  let samples = Array.init n (fun _ -> float_of_int (M.geometric rng ~epsilon:eps ~sensitivity:1.0 0)) in
  checkb "integer mean near 0" true (Float.abs (S.mean samples) < 0.05);
  (* Two-sided geometric variance: 2 alpha / (1-alpha)^2 with alpha = e^-eps. *)
  let alpha = exp (-.eps) in
  let want_var = 2.0 *. alpha /. ((1.0 -. alpha) ** 2.0) in
  checkb
    (Printf.sprintf "variance %.2f near %.2f" (S.variance samples) want_var)
    true
    (Float.abs (S.variance samples -. want_var) /. want_var < 0.05);
  (* The zero-rejection detail: P(0) must be (1-a)/(1+a), not doubled. *)
  let zeros = Array.fold_left (fun acc x -> if x = 0.0 then acc + 1 else acc) 0
      (Array.map Fun.id samples) in
  let p0 = float_of_int zeros /. float_of_int n in
  let want_p0 = (1.0 -. alpha) /. (1.0 +. alpha) in
  checkb (Printf.sprintf "P(0) = %.3f near %.3f" p0 want_p0) true
    (Float.abs (p0 -. want_p0) < 0.01)

let test_em_base2_distribution () =
  let scores = [| 0.0; 2.0; 4.0 |] in
  let got =
    em_distribution
      (fun rng s -> M.exponential_base2 rng ~epsilon:1.0 ~sensitivity:1.0 s)
      scores 60_000 11L
  in
  let want = theoretical_em_probs ~epsilon:1.0 ~sensitivity:1.0 scores in
  Array.iteri
    (fun i p ->
      checkb
        (Printf.sprintf "category %d: got %.3f want %.3f" i got.(i) p)
        true
        (Float.abs (got.(i) -. p) < 0.015))
    want

let test_em_base2_weights_deterministic () =
  (* Same rng seed, same scores -> bit-identical choices (the base-2 lattice
     leaves no room for platform transcendental differences). *)
  let scores = [| 1.0; 3.5; 2.25; 7.0 |] in
  let run seed =
    let rng = Rng.create seed in
    List.init 50 (fun _ -> M.exponential_base2 rng ~epsilon:0.8 ~sensitivity:1.0 scores)
  in
  checkb "bit-identical runs" true (run 12L = run 12L)

(* ---------------- budget ---------------- *)

let test_budget_arithmetic () =
  let b = B.create ~epsilon:1.0 ~delta:1e-6 in
  let cost = B.create ~epsilon:0.4 ~delta:2e-7 in
  (match B.charge b ~cost with
  | Some left ->
      checkf "eps left" 0.6 left.B.epsilon;
      checkf "delta left" 8e-7 left.B.delta
  | None -> Alcotest.fail "charge should succeed");
  checkb "over-charge refused" true
    (B.charge b ~cost:(B.create ~epsilon:1.5 ~delta:0.0) = None);
  checkb "delta over-charge refused" true
    (B.charge b ~cost:(B.create ~epsilon:0.5 ~delta:1e-5) = None);
  let doubled = B.scale cost 2.0 in
  checkf "scale eps" 0.8 doubled.B.epsilon;
  let total = B.spend_all cost cost in
  checkf "sequential composition" 0.8 total.B.epsilon

let test_budget_rejects () =
  Alcotest.check_raises "negative" (Invalid_argument "Budget.create: negative")
    (fun () -> ignore (B.create ~epsilon:(-1.0) ~delta:0.0))

let test_amplification () =
  (* ln(1 + phi(e^eps - 1)); spot values *)
  let e = B.amplified_epsilon ~epsilon:1.0 ~phi:0.1 in
  checkb "amplified smaller" true (e < 1.0);
  checkb "formula value" true (Float.abs (e -. Float.log (1.0 +. (0.1 *. (Float.exp 1.0 -. 1.0)))) < 1e-12);
  (* phi = 1 gives back the original epsilon *)
  checkb "phi=1 identity" true (Float.abs (B.amplified_epsilon ~epsilon:0.7 ~phi:1.0 -. 0.7) < 1e-12);
  (* small phi, small eps: ~ phi * eps *)
  let small = B.amplified_epsilon ~epsilon:0.1 ~phi:0.01 in
  checkb "linear regime" true (Float.abs (small -. 0.001) < 1e-4)

(* Subsampling amplification: a Bernoulli(phi) device sample charges
   ln(1 + phi(e^eps - 1)) — strictly below the full epsilon, monotone in
   the sampling rate. *)
let prop_amplified_strictly_below_and_monotone =
  QCheck.Test.make
    ~name:"amplified epsilon strictly below full, monotone in phi" ~count:500
    QCheck.(
      triple (float_range 0.01 5.0) (float_range 0.001 0.99)
        (float_range 0.001 0.99))
    (fun (eps, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let e_lo = B.amplified_epsilon ~epsilon:eps ~phi:lo
      and e_hi = B.amplified_epsilon ~epsilon:eps ~phi:hi in
      e_hi < eps && e_lo <= e_hi && e_lo > 0.0)

let prop_amplify_budget =
  QCheck.Test.make
    ~name:"Budget.amplify: strict epsilon shrink, delta scales by phi"
    ~count:500
    QCheck.(pair (float_range 0.01 3.0) (float_range 0.001 0.99))
    (fun (eps, phi) ->
      let cost = B.create ~epsilon:eps ~delta:1e-6 in
      let a = B.amplify cost ~phi in
      a.B.epsilon < cost.B.epsilon
      && Float.abs (a.B.epsilon -. B.amplified_epsilon ~epsilon:eps ~phi)
         < 1e-12
      && Float.abs (a.B.delta -. (1e-6 *. phi)) < 1e-20)

(* A submission whose tolerance is outside (0, 1] is refused at service
   admission — before any budget projection — so both the session's
   sliding window and the service's global budget stay byte-identical. *)
let test_refused_tolerance_budget_intact () =
  let module Sv = Arb_service.Service in
  let module Wk = Arb_service.Workload in
  let module E = Arb_continual.Engine in
  let svc =
    Sv.create ~budget:(B.create ~epsilon:2.0 ~delta:1e-6) ~devices:24 ~seed:11
      ()
  in
  let eng = E.create ~service:svc () in
  let sub =
    {
      Wk.query = "top1";
      epsilon = 0.5;
      categories = None;
      goal = Arb_planner.Constraints.Min_part_exp_time;
      repeat = 1;
      every = Some 1;
      window =
        Some
          {
            Wk.w_epochs = 4;
            w_budget = B.create ~epsilon:1.0 ~delta:1e-6;
            w_compose = None;
          };
      tolerance = Some 1.5;
    }
  in
  (match E.register eng sub with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("register: " ^ m));
  let before = Sv.budget_left svc in
  (match E.tick eng with
  | [ { E.er_outcome = E.Ran { status = "refused"; _ }; er_window; _ } ] -> (
      match er_window with
      | Some (spent, _) ->
          checkb "window spend untouched" true
            (B.equal spent (B.create ~epsilon:0.0 ~delta:0.0))
      | None -> Alcotest.fail "windowed session lost its window")
  | _ -> Alcotest.fail "invalid tolerance was not refused");
  checkb "global budget byte-identical" true
    (B.equal before (Sv.budget_left svc))

let test_advanced_composition () =
  (* Small epsilon, many mechanisms: advanced composition beats basic. *)
  let eps = 0.01 and k = 1000 in
  let adv = B.advanced_composition ~epsilon:eps ~delta:0.0 ~k ~delta_slack:1e-6 in
  let basic = B.scale (B.create ~epsilon:eps ~delta:0.0) (float_of_int k) in
  checkb
    (Printf.sprintf "advanced %.3f < basic %.3f" adv.B.epsilon basic.B.epsilon)
    true (adv.B.epsilon < basic.B.epsilon);
  checkb "delta includes the slack" true (adv.B.delta >= 1e-6);
  (* Large epsilon, few mechanisms: basic can win — both are valid bounds. *)
  let adv2 = B.advanced_composition ~epsilon:2.0 ~delta:0.0 ~k:2 ~delta_slack:1e-6 in
  checkb "still a positive bound" true (adv2.B.epsilon > 0.0);
  checkb "rejects bad k" true
    (try ignore (B.advanced_composition ~epsilon:1.0 ~delta:0.0 ~k:0 ~delta_slack:0.1); false
     with Invalid_argument _ -> true)

(* ---------------- sliding-window accounting ---------------- *)

module W = B.Window

(* Dyadic costs: every partial sum is exactly representable in binary
   floating point, so conservation and commutativity hold with *exact*
   equality, independent of summation order. *)
let dyadic k =
  B.create
    ~epsilon:(float_of_int k /. 64.0)
    ~delta:(float_of_int k /. 1_048_576.0)

(* The window with [cost] charged, or [w] itself when it refuses the
   charge. *)
let charge_or_keep w cost = Option.value (W.charge w ~cost) ~default:w

let test_window_basics () =
  let w = W.create ~horizon:3 ~limit:(B.create ~epsilon:1.0 ~delta:1e-5) in
  checki "starts at epoch 0" 0 (W.epoch w);
  let w, _ = W.advance w 1 in
  let c = B.create ~epsilon:0.5 ~delta:0.0 in
  let w =
    match W.charge w ~cost:c with
    | Some w ->
        checkf "balance after first charge" 0.5 (W.balance w).B.epsilon;
        w
    | None -> Alcotest.fail "affordable charge refused"
  in
  let w, _ = W.advance w 2 in
  let w = charge_or_keep w c in
  checkb "exhausted window refuses" true (not (W.can_afford w ~cost:c));
  checkb "refused charge leaves state" true (W.charge w ~cost:c = None);
  checkf "spent over live window" 1.0 (W.spent w).B.epsilon;
  (match W.next_expiry w with
  | Some (e, r) ->
      checki "oldest charge expires at epoch 4" 4 e;
      checkf "and refunds exactly its cost" 0.5 r.B.epsilon
  | None -> Alcotest.fail "live window has no expiry");
  let w, refund = W.advance w 4 in
  checkf "advance returns the exact refund" 0.5 refund.B.epsilon;
  checkb "refund makes the window affordable again" true
    (W.can_afford w ~cost:c);
  checkb "backwards advance rejected" true
    (try ignore (W.advance w 1); false with Invalid_argument _ -> true);
  checkb "bad horizon rejected" true
    (try ignore (W.create ~horizon:0 ~limit:B.zero); false
     with Invalid_argument _ -> true)

let test_window_composed_partial () =
  let limit = B.create ~epsilon:100.0 ~delta:1.0 in
  let w, _ = W.advance (W.create ~horizon:2 ~limit) 1 in
  checkb "empty window composes to zero" true (B.equal (W.composed w) B.zero);
  let c = B.create ~epsilon:0.01 ~delta:0.0 in
  let w = charge_or_keep w c in
  (* A single live charge composes to itself: k=1 advanced composition
     cannot beat the sequential bound. *)
  checkf "single charge composes to itself" c.B.epsilon
    (W.composed w).B.epsilon;
  let w = List.fold_left (fun w _ -> charge_or_keep w c) w (List.init 199 Fun.id) in
  let comp = W.composed ~delta_slack:1e-6 w in
  let seq = W.spent w in
  checkb "advanced beats sequential over 200 small charges" true
    (comp.B.epsilon < seq.B.epsilon);
  checkb "delta slack accounted" true (comp.B.delta >= 1e-6);
  (* Partially-filled window: expired charges must drop out of the
     composition, leaving only the live ones. *)
  let w, _ = W.advance w 2 in
  let w = charge_or_keep w (B.create ~epsilon:2.0 ~delta:0.0) in
  let w, _ = W.advance w 3 in
  checkb "composition covers live charges only" true
    (B.equal (W.composed w) (B.create ~epsilon:2.0 ~delta:0.0))

let prop_window_conservation =
  (* Random charge/advance interleavings: the live spend never exceeds the
     limit, refusals happen exactly when the prescreen says so, and once
     everything has expired the refunds add up to every accepted charge. *)
  QCheck.Test.make
    ~name:"window never over-spends; expiry refunds are exact" ~count:300
    QCheck.(
      pair (int_range 1 5)
        (list_of_size Gen.(int_range 1 40) (pair bool (int_range 1 16))))
    (fun (horizon, ops) ->
      let limit = B.create ~epsilon:0.25 ~delta:2e-4 in
      let w = ref (W.create ~horizon ~limit) in
      let epoch = ref 0 in
      let charged = ref B.zero and refunded = ref B.zero in
      let advance e =
        let w', r = W.advance !w e in
        w := w';
        refunded := B.spend_all !refunded r
      in
      List.iter
        (fun (is_charge, k) ->
          (if is_charge then begin
             let cost = dyadic k in
             let affordable = W.can_afford !w ~cost in
             match W.charge !w ~cost with
             | Some w' ->
                 if not affordable then
                   QCheck.Test.fail_report "charged past the prescreen";
                 w := w';
                 charged := B.spend_all !charged cost
             | None ->
                 if affordable then
                   QCheck.Test.fail_report "refused an affordable charge"
           end
           else begin
             epoch := !epoch + 1 + (k mod 3);
             advance !epoch
           end);
          let sp = W.spent !w in
          if sp.B.epsilon > limit.B.epsilon || sp.B.delta > limit.B.delta then
            QCheck.Test.fail_report "window over-spent its limit")
        ops;
      advance (!epoch + horizon + 1);
      B.equal !charged !refunded)

let prop_window_commutative =
  (* Within an epoch, charge order is invisible in the serialized state. *)
  QCheck.Test.make
    ~name:"charge order within an epoch is commutative" ~count:300
    QCheck.(small_list (int_range 1 16))
    (fun ks ->
      let limit = B.create ~epsilon:1000.0 ~delta:1.0 in
      let bytes w = Arb_util.Json.to_string (W.to_json w) in
      let mk order =
        let w, _ = W.advance (W.create ~horizon:3 ~limit) 1 in
        List.fold_left (fun w k -> charge_or_keep w (dyadic k)) w order
      in
      let w1 = mk ks and w2 = mk (List.rev ks) in
      W.equal w1 w2 && bytes w1 = bytes w2)

let test_budget_json_roundtrip () =
  let b = B.create ~epsilon:0.375 ~delta:1e-7 in
  checkb "budget json roundtrip" true (B.equal b (B.of_json (B.to_json b)));
  checkb "malformed budget json rejected" true
    (try ignore (B.of_json (Arb_util.Json.String "nope")); false
     with Arb_util.Json.Parse_error _ -> true)

(* ---------------- committee sizing ---------------- *)

let paper_p1 () = Cm.p1_of_round ~p:1e-8 ~rounds:1000

let test_committee_paper_setting () =
  (* §7.1: f = 3%, g = 0.15 gives committees of roughly 40 members. *)
  let p1 = paper_p1 () in
  let m = Cm.min_size ~f:0.03 ~g:0.15 ~committees:115_334 ~p1 in
  checkb (Printf.sprintf "topK-scale committees m=%d in [30,50]" m) true
    (m >= 30 && m <= 50);
  let m1 = Cm.min_size ~f:0.03 ~g:0.15 ~committees:1 ~p1 in
  checkb (Printf.sprintf "single committee m=%d in [20,45]" m1) true
    (m1 >= 20 && m1 <= 45)

let test_committee_monotone_in_committees () =
  let p1 = paper_p1 () in
  let m c = Cm.min_size ~f:0.03 ~g:0.15 ~committees:c ~p1 in
  checkb "more committees need larger m" true (m 100_000 >= m 100);
  checkb "even more" true (m 1_000_000 >= m 100_000)

let test_committee_monotone_in_f () =
  let p1 = paper_p1 () in
  checkb "more adversaries need larger m" true
    (Cm.min_size ~f:0.10 ~g:0.15 ~committees:100 ~p1
    > Cm.min_size ~f:0.01 ~g:0.15 ~committees:100 ~p1)

let test_committee_monotone_in_churn () =
  let p1 = paper_p1 () in
  checkb "more churn tolerance needs larger m" true
    (Cm.min_size ~f:0.03 ~g:0.4 ~committees:100 ~p1
    >= Cm.min_size ~f:0.03 ~g:0.05 ~committees:100 ~p1)

let test_committee_min_size_is_safe_and_tight () =
  let p1 = paper_p1 () in
  let m = Cm.min_size ~f:0.03 ~g:0.15 ~committees:1000 ~p1 in
  checkb "returned size is safe" true (Cm.is_safe ~m ~f:0.03 ~g:0.15 ~committees:1000 ~p1);
  checkb "m-1 is unsafe (tight)" true
    (m = 1 || not (Cm.is_safe ~m:(m - 1) ~f:0.03 ~g:0.15 ~committees:1000 ~p1))

let test_committee_failure_prob_monotone_in_m () =
  (* Larger committees fail less often (checked on even sizes to dodge the
     floor-induced parity wiggles). *)
  let fp m = Cm.log_failure_prob ~m ~f:0.03 ~g:0.15 ~committees:10 in
  checkb "40 safer than 20" true (fp 40 < fp 20);
  checkb "80 safer than 40" true (fp 80 < fp 40)

let test_committee_rejects () =
  Alcotest.check_raises "f too large for churn"
    (Invalid_argument "Committee: f too large relative to churn tolerance g")
    (fun () -> ignore (Cm.min_size ~f:0.45 ~g:0.2 ~committees:1 ~p1:1e-6))

let test_p1_roundtrip () =
  let p = 1e-8 and rounds = 1000 in
  let p1 = Cm.p1_of_round ~p ~rounds in
  let back = 1.0 -. ((1.0 -. p1) ** float_of_int rounds) in
  checkb "p1 roundtrip" true (Float.abs (back -. p) /. p < 1e-6)

let prop_failure_prob_decreases_with_even_m =
  QCheck.Test.make ~name:"failure probability decreases in m (even steps)" ~count:30
    QCheck.(int_range 5 40)
    (fun half ->
      let m = 2 * half in
      Cm.log_failure_prob ~m:(m + 20) ~f:0.03 ~g:0.15 ~committees:5
      <= Cm.log_failure_prob ~m ~f:0.03 ~g:0.15 ~committees:5 +. 1e-9)

let prop_min_size_sound =
  (* Guards the planner's committee-size cache: min_size must return a safe
     and tight m, be monotone in the committee count, and min_size_from
     seeded with the single-committee size (exactly what the cache does)
     must find the same answer as a scan from 1. *)
  QCheck.Test.make ~name:"min_size safe, tight, monotone; min_size_from agrees"
    ~count:60
    QCheck.(
      quad (float_range 0.005 0.2) (float_range 0.0 0.3) (int_range 1 2000)
        (int_range 1 2000))
    (fun (f, g, c1, c2) ->
      QCheck.assume (f < ((1.0 -. g) /. 2.0) -. 0.01);
      let p1 = 1e-9 in
      let lo = min c1 c2 and hi = max c1 c2 in
      let m_lo = Cm.min_size ~f ~g ~committees:lo ~p1 in
      let m_hi = Cm.min_size ~f ~g ~committees:hi ~p1 in
      Cm.is_safe ~m:m_lo ~f ~g ~committees:lo ~p1
      && (m_lo = 1 || not (Cm.is_safe ~m:(m_lo - 1) ~f ~g ~committees:lo ~p1))
      && m_lo <= m_hi
      && Cm.min_size_from ~start:m_lo ~f ~g ~committees:hi ~p1 = m_hi)

let () =
  Alcotest.run "arb_dp"
    [
      ( "laplace",
        [
          Alcotest.test_case "centering and scale" `Slow test_laplace_centering_and_scale;
          Alcotest.test_case "rejects" `Quick test_laplace_rejects;
          Alcotest.test_case "dp inequality (empirical)" `Slow test_laplace_dp_inequality;
        ] );
      ( "exponential",
        [
          Alcotest.test_case "gumbel distribution" `Slow test_em_gumbel_distribution;
          Alcotest.test_case "sampling distribution" `Slow test_em_sample_distribution;
          Alcotest.test_case "epsilon concentrates" `Slow
            test_em_epsilon_controls_concentration;
          Alcotest.test_case "top-k" `Quick test_top_k;
          Alcotest.test_case "top-k rejects" `Quick test_top_k_rejects;
          Alcotest.test_case "noisy max with gap" `Quick test_noisy_max_gap;
          Alcotest.test_case "geometric mechanism stats" `Slow test_geometric_stats;
          Alcotest.test_case "base-2 em distribution" `Slow test_em_base2_distribution;
          Alcotest.test_case "base-2 em deterministic" `Quick
            test_em_base2_weights_deterministic;
        ] );
      ( "budget",
        [
          Alcotest.test_case "arithmetic" `Quick test_budget_arithmetic;
          Alcotest.test_case "rejects" `Quick test_budget_rejects;
          Alcotest.test_case "amplification" `Quick test_amplification;
          qtest prop_amplified_strictly_below_and_monotone;
          qtest prop_amplify_budget;
          Alcotest.test_case "refused tolerance leaves budgets intact" `Quick
            test_refused_tolerance_budget_intact;
          Alcotest.test_case "advanced composition" `Quick test_advanced_composition;
          Alcotest.test_case "json roundtrip" `Quick test_budget_json_roundtrip;
        ] );
      ( "window",
        [
          Alcotest.test_case "sliding-window basics" `Quick test_window_basics;
          Alcotest.test_case "composition over a partial window" `Quick
            test_window_composed_partial;
          qtest prop_window_conservation;
          qtest prop_window_commutative;
        ] );
      ( "committee",
        [
          Alcotest.test_case "paper setting ~40" `Quick test_committee_paper_setting;
          Alcotest.test_case "monotone in committees" `Quick
            test_committee_monotone_in_committees;
          Alcotest.test_case "monotone in f" `Quick test_committee_monotone_in_f;
          Alcotest.test_case "monotone in churn" `Quick test_committee_monotone_in_churn;
          Alcotest.test_case "min_size safe and tight" `Quick
            test_committee_min_size_is_safe_and_tight;
          Alcotest.test_case "failure prob monotone in m" `Quick
            test_committee_failure_prob_monotone_in_m;
          Alcotest.test_case "rejects" `Quick test_committee_rejects;
          Alcotest.test_case "p1 roundtrip" `Quick test_p1_roundtrip;
          qtest prop_failure_prob_decreases_with_even_m;
          qtest prop_min_size_sound;
        ] );
    ]
