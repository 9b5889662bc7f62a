(* Unit and property tests for the arb_util foundation. *)

module Rng = Arb_util.Rng
module Fx = Arb_util.Fixed
module I = Arb_util.Interval
module S = Arb_util.Stats

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Rng ---------------- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  checkb "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_split_independent () =
  let a = Rng.create 9L in
  let b = Rng.split a in
  checkb "split streams differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_copy () =
  let a = Rng.create 5L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    checkb "0 <= v < 7" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-3) 4 in
    checkb "-3 <= v <= 4" true (v >= -3 && v <= 4)
  done

let test_rng_int_rejects_bad () =
  let rng = Rng.create 7L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.int_in: lo > hi") (fun () ->
      ignore (Rng.int_in rng 3 2))

let test_rng_uniform01 () =
  let rng = Rng.create 11L in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    let u = Rng.uniform01 rng in
    checkb "in (0,1)" true (u > 0.0 && u < 1.0);
    sum := !sum +. u
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_laplace_stats () =
  let rng = Rng.create 13L in
  let n = 100_000 in
  let samples = Array.init n (fun _ -> Rng.laplace rng ~scale:2.0) in
  let mean = S.mean samples and var = S.variance samples in
  checkb "laplace mean ~ 0" true (Float.abs mean < 0.05);
  (* Var of Laplace(b) = 2 b^2 = 8. *)
  checkb "laplace variance ~ 8" true (Float.abs (var -. 8.0) < 0.4)

let test_rng_gumbel_stats () =
  let rng = Rng.create 17L in
  let n = 100_000 in
  let samples = Array.init n (fun _ -> Rng.gumbel rng ~scale:1.0) in
  (* Mean of Gumbel(0,1) is the Euler-Mascheroni constant. *)
  checkb "gumbel mean ~ 0.5772" true (Float.abs (S.mean samples -. 0.5772) < 0.02);
  (* Var = pi^2/6 ~ 1.645 *)
  checkb "gumbel var ~ 1.645" true (Float.abs (S.variance samples -. 1.645) < 0.08)

let test_rng_exponential_stats () =
  let rng = Rng.create 19L in
  let samples = Array.init 50_000 (fun _ -> Rng.exponential rng ~rate:4.0) in
  checkb "exp mean ~ 1/4" true (Float.abs (S.mean samples -. 0.25) < 0.01)

let test_rng_gaussian_stats () =
  let rng = Rng.create 23L in
  let samples = Array.init 50_000 (fun _ -> Rng.gaussian rng ~sigma:3.0) in
  checkb "gaussian mean ~ 0" true (Float.abs (S.mean samples) < 0.06);
  checkb "gaussian var ~ 9" true (Float.abs (S.variance samples -. 9.0) < 0.4)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 29L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "shuffle is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 31L in
  let s = Rng.sample_without_replacement rng 10 20 in
  checki "ten draws" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct = Array.length (Array.of_list (List.sort_uniq compare (Array.to_list s))) in
  checki "all distinct" 10 distinct;
  Array.iter (fun v -> checkb "in range" true (v >= 0 && v < 20)) s

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"Rng.int covers all residues" ~count:20
    QCheck.(int_range 2 17)
    (fun bound ->
      let rng = Rng.create (Int64.of_int (bound * 7919)) in
      let seen = Array.make bound false in
      for _ = 1 to bound * 200 do
        seen.(Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* ---------------- Fixed ---------------- *)

let fx = Alcotest.testable (fun fmt v -> Fx.pp fmt v) Fx.equal

let test_fixed_basics () =
  check fx "1 + 1 = 2" (Fx.of_int 2) (Fx.add Fx.one Fx.one);
  check fx "3 * 4 = 12" (Fx.of_int 12) (Fx.mul (Fx.of_int 3) (Fx.of_int 4));
  check fx "7 / 2 = 3.5" (Fx.of_float 3.5) (Fx.div (Fx.of_int 7) (Fx.of_int 2));
  checki "to_int truncates" 3 (Fx.to_int (Fx.of_float 3.9));
  checki "to_int truncates negative toward zero" (-3) (Fx.to_int (Fx.of_float (-3.9)))

let test_fixed_exp2 () =
  List.iter
    (fun x ->
      let got = Fx.to_float (Fx.exp2 (Fx.of_float x)) in
      let want = 2.0 ** x in
      checkb
        (Printf.sprintf "2^%g ~ %g (got %g)" x want got)
        true
        (Float.abs (got -. want) /. want < 1e-3))
    [ 0.0; 0.5; 1.0; 3.25; 7.9; -1.0; -3.5; 10.0 ]

let test_fixed_exp2_saturation () =
  checkb "huge exponent saturates" true
    (Fx.to_float (Fx.exp2 (Fx.of_int 40)) > 1e8);
  check fx "very negative exponent is zero" Fx.zero (Fx.exp2 (Fx.of_int (-30)))

let test_fixed_log2 () =
  List.iter
    (fun x ->
      let got = Fx.to_float (Fx.log2 (Fx.of_float x)) in
      checkb (Printf.sprintf "log2 %g" x) true (Float.abs (got -. Float.log2 x) < 1e-3))
    [ 1.0; 2.0; 10.0; 0.25; 1000.0 ];
  Alcotest.check_raises "log2 0 rejected"
    (Invalid_argument "Fixed.log2: non-positive input") (fun () ->
      ignore (Fx.log2 Fx.zero))

let test_fixed_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Fx.div Fx.one Fx.zero))

let prop_fixed_mul_commutes =
  QCheck.Test.make ~name:"Fixed.mul commutes" ~count:500
    QCheck.(pair (float_range (-1000.0) 1000.0) (float_range (-1000.0) 1000.0))
    (fun (a, b) ->
      let a = Fx.of_float a and b = Fx.of_float b in
      Fx.equal (Fx.mul a b) (Fx.mul b a))

let prop_fixed_mul_neg_symmetric =
  QCheck.Test.make ~name:"Fixed.mul symmetric under negation" ~count:500
    QCheck.(pair (float_range (-1000.0) 1000.0) (float_range (-1000.0) 1000.0))
    (fun (a, b) ->
      let a = Fx.of_float a and b = Fx.of_float b in
      Fx.equal (Fx.neg (Fx.mul a b)) (Fx.mul (Fx.neg a) b))

let prop_fixed_add_roundtrip =
  QCheck.Test.make ~name:"Fixed add/sub roundtrip" ~count:500
    QCheck.(pair (float_range (-1e6) 1e6) (float_range (-1e6) 1e6))
    (fun (a, b) ->
      let a = Fx.of_float a and b = Fx.of_float b in
      Fx.equal a (Fx.sub (Fx.add a b) b))

let prop_fixed_float_roundtrip =
  QCheck.Test.make ~name:"Fixed.of_float error < quantum" ~count:500
    QCheck.(float_range (-1e6) 1e6)
    (fun f -> Float.abs (Fx.to_float (Fx.of_float f) -. f) <= 1.0 /. 65536.0)

(* ---------------- Interval ---------------- *)

let prop_interval_sound op_name abstract concrete =
  QCheck.Test.make ~name:("Interval." ^ op_name ^ " is sound") ~count:500
    QCheck.(
      quad (int_range (-1000) 1000) (int_range 0 100) (int_range (-1000) 1000)
        (int_range 0 100))
    (fun (lo1, w1, lo2, w2) ->
      let i1 = I.make lo1 (lo1 + w1) and i2 = I.make lo2 (lo2 + w2) in
      let result = abstract i1 i2 in
      (* Sample concrete points and check containment. *)
      List.for_all
        (fun (a, b) -> I.contains result (concrete a b))
        [
          (lo1, lo2); (lo1 + w1, lo2 + w2); (lo1, lo2 + w2); (lo1 + w1, lo2);
          (lo1 + (w1 / 2), lo2 + (w2 / 2));
        ])

let prop_interval_add = prop_interval_sound "add" I.add ( + )
let prop_interval_sub = prop_interval_sound "sub" I.sub ( - )
let prop_interval_mul = prop_interval_sound "mul" I.mul ( * )

let prop_interval_div =
  QCheck.Test.make ~name:"Interval.div is sound (nonzero divisor)" ~count:500
    QCheck.(
      quad (int_range (-1000) 1000) (int_range 0 100) (int_range 1 100)
        (int_range 0 50))
    (fun (lo1, w1, lo2, w2) ->
      let i1 = I.make lo1 (lo1 + w1) and i2 = I.make lo2 (lo2 + w2) in
      let result = I.div i1 i2 in
      List.for_all
        (fun (a, b) -> I.contains result (a / b))
        [ (lo1, lo2); (lo1 + w1, lo2 + w2); (lo1, lo2 + w2); (lo1 + w1, lo2) ])

let test_interval_clip () =
  let i = I.make (-10) 50 in
  check
    (Alcotest.testable I.pp I.equal)
    "clip" (I.make 0 20)
    (I.clip i ~lo:0 ~hi:20)

let test_interval_bits () =
  checki "bits for [0,1]" 2 (I.bits_needed I.bool_range);
  checki "bits for [0,255]" 9 (I.bits_needed (I.make 0 255));
  checki "bits for [-128,127]" 9 (I.bits_needed (I.make (-128) 127))

let test_interval_saturation () =
  (* Products beyond the native range must saturate, not wrap. *)
  let big = I.make 0 (1 lsl 59) in
  let sq = I.mul big big in
  checkb "saturated upper bound positive" true (sq.I.hi > 0);
  checkb "lower bound sane" true (sq.I.lo >= 0)

let test_interval_rejects () =
  Alcotest.check_raises "make lo>hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (I.make 3 2))

(* ---------------- Stats ---------------- *)

let test_lgamma () =
  (* lgamma(n) = ln((n-1)!) *)
  checkb "lgamma 5 = ln 24" true (Float.abs (S.lgamma 5.0 -. Float.log 24.0) < 1e-9);
  checkb "lgamma 1 = 0" true (Float.abs (S.lgamma 1.0) < 1e-12);
  checkb "lgamma 0.5 = ln sqrt(pi)" true
    (Float.abs (S.lgamma 0.5 -. Float.log (sqrt Float.pi)) < 1e-9)

let test_log_comb () =
  checkb "C(10,3) = 120" true (Float.abs (exp (S.log_comb 10 3) -. 120.0) < 1e-6);
  checkb "C(n,0) = 1" true (S.log_comb 17 0 = 0.0);
  checkb "C(n,k>n) = 0 prob" true (S.log_comb 5 6 = neg_infinity)

let test_binom_cdf_vs_bruteforce () =
  let n = 20 and p = 0.3 in
  (* brute force *)
  let pmf k =
    exp (S.log_comb n k) *. (p ** float_of_int k)
    *. ((1.0 -. p) ** float_of_int (n - k))
  in
  let rec cdf k acc = if k < 0 then acc else cdf (k - 1) (acc +. pmf k) in
  List.iter
    (fun k ->
      let want = cdf k 0.0 in
      let got = exp (S.log_binom_cdf ~n ~k ~p) in
      checkb (Printf.sprintf "cdf k=%d" k) true (Float.abs (got -. want) < 1e-9))
    [ 0; 3; 7; 12; 19 ]

let test_binom_tail_vs_bruteforce () =
  let n = 15 and p = 0.2 in
  let pmf k =
    exp (S.log_comb n k) *. (p ** float_of_int k)
    *. ((1.0 -. p) ** float_of_int (n - k))
  in
  List.iter
    (fun k ->
      let want = ref 0.0 in
      for i = k to n do
        want := !want +. pmf i
      done;
      checkb
        (Printf.sprintf "tail k=%d" k)
        true
        (Float.abs (exp (S.log_binom_tail ~n ~k ~p) -. !want) < 1e-12))
    [ 0; 1; 5; 10; 15 ];
  checkb "k > n impossible" true (S.log_binom_tail ~n ~k:16 ~p = neg_infinity);
  checkb "k <= 0 certain" true (S.log_binom_tail ~n ~k:0 ~p = 0.0)

let test_log1mexp () =
  List.iter
    (fun x ->
      let want = Float.log (1.0 -. exp x) in
      checkb (Printf.sprintf "log1mexp %g" x) true
        (Float.abs (S.log1mexp x -. want) < 1e-9))
    [ -0.01; -0.5; -1.0; -10.0; -30.0 ]

let test_percentile () =
  let a = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  checkf "median" 3.0 (S.percentile a 50.0);
  checkf "min" 1.0 (S.percentile a 0.0);
  checkf "max" 5.0 (S.percentile a 100.0)

(* ---------------- Json ---------------- *)

module J = Arb_util.Json

let gen_json : J.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ return J.Null; map (fun b -> J.Bool b) bool;
                map (fun i -> J.Int i) small_signed_int;
                map (fun f -> J.Float (Float.round (f *. 1000.0) /. 1000.0))
                  (float_range (-1000.0) 1000.0);
                map (fun s -> J.String s) (string_size ~gen:printable (int_range 0 12)) ]
          else
            oneof
              [ map (fun l -> J.List l) (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun kvs ->
                    (* distinct keys for order-stable roundtrips *)
                    J.Obj (List.mapi (fun i (_, v) -> (Printf.sprintf "k%d" i, v)) kvs))
                  (list_size (int_range 0 4) (pair unit (self (n / 2)))) ])
        (min n 4))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json parse (render v) = v" ~count:300
    (QCheck.make ~print:(fun v -> J.to_string v) gen_json)
    (fun v ->
      J.of_string (J.to_string v) = v
      && J.of_string (J.to_string ~pretty:true v) = v)

let test_json_escapes () =
  let s = J.String "line\nquote\"back\\slash\ttab" in
  check Alcotest.bool "escape roundtrip" true (J.of_string (J.to_string s) = s);
  let ctrl = J.String "\x01\x02" in
  check Alcotest.bool "control chars roundtrip" true
    (J.of_string (J.to_string ctrl) = ctrl)

let test_json_rejects_nonfinite () =
  (* inf/nan have no JSON encoding; rendering them used to emit "inf",
     which of_string (rightly) refuses. *)
  List.iter
    (fun f ->
      check Alcotest.bool (Printf.sprintf "%h raises" f) true
        (try
           ignore (J.to_string (J.Float f));
           false
         with Invalid_argument _ -> true))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let test_json_parse_errors () =
  List.iter
    (fun src ->
      check Alcotest.bool src true
        (try
           ignore (J.of_string src);
           false
         with J.Parse_error _ -> true))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  let v = J.of_string {|{"a": 1, "b": [true, 2.5], "c": "x"}|} in
  checki "member int" 1 (J.to_int (J.member "a" v));
  check Alcotest.bool "nested bool" true (J.to_bool (List.hd (J.to_list (J.member "b" v))));
  check Alcotest.string "member string" "x" (J.to_str (J.member "c" v));
  check Alcotest.bool "missing member raises" true
    (try ignore (J.member "zz" v); false with J.Parse_error _ -> true)

(* ---------------- Units / Table ---------------- *)

let test_units () =
  check Alcotest.string "bytes" "1.5 MB" (Arb_util.Units.bytes_to_string 1.5e6);
  check Alcotest.string "terabytes" "2.0 TB" (Arb_util.Units.bytes_to_string 2.0e12);
  check Alcotest.string "minutes" "2.0 min" (Arb_util.Units.seconds_to_string 120.0);
  check Alcotest.string "hours" "2.0 h" (Arb_util.Units.seconds_to_string 7200.0);
  checkf "core hours" 2.0 (Arb_util.Units.core_hours 7200.0)

let test_table_render () =
  let s =
    Arb_util.Table.render ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "333" ] ]
  in
  checkb "contains padded cell" true
    (String.length s > 0 && String.contains s '|');
  (* short row padded, long ok *)
  checkb "has rule lines" true (String.contains s '+')

(* ---------------- Pool ---------------- *)

module Pool = Arb_util.Pool

exception Three
exception Seven

(* Spin until [flag] holds or a few seconds pass; a helper that never
   arrives fails the test instead of hanging it. *)
let await flag =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (flag ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done

let test_pool_map_matches_init () =
  List.iter
    (fun workers ->
      List.iter
        (fun n ->
          check
            Alcotest.(array int)
            (Printf.sprintf "map at %d workers, n=%d" workers n)
            (Array.init n (fun i -> i * i))
            (Pool.map ~workers n (fun i -> i * i)))
        [ 0; 1; 2; 7; 300 ])
    [ 1; 2; 3 ]

(* Indices 3 and 7 raise distinct exceptions, 7 first in time: the lowest
   failing index's exception surfaces at every worker count, only after
   every participant has left the job; the next fan-out then runs on every
   helper and returns correct results. *)
let test_pool_lowest_failure_wins () =
  List.iter
    (fun workers ->
      let running = Atomic.make 0 and seven = Atomic.make false in
      (match
         Pool.run ~workers 10 (fun ~slot:_ i ->
             Atomic.incr running;
             Fun.protect
               ~finally:(fun () -> Atomic.decr running)
               (fun () ->
                 if i = 3 then begin
                   (* Give index 7 the chance to fail first. *)
                   if workers > 1 then await (fun () -> Atomic.get seven);
                   raise Three
                 end;
                 if i = 7 then begin
                   Atomic.set seven true;
                   raise Seven
                 end))
       with
      | () -> Alcotest.failf "no exception at %d workers" workers
      | exception Three -> ()
      | exception e ->
          Alcotest.failf "at %d workers got %s, want index 3's" workers
            (Printexc.to_string e));
      checki
        (Printf.sprintf "no call still running at %d workers" workers)
        0 (Atomic.get running);
      (* Every index waits until all [workers] have arrived, so each runs
         on its own participant: a helper lost to the failed job would
         time the wait out. *)
      let arrived = Atomic.make 0 in
      let slots = Array.make workers (-1) in
      let squares =
        let out = Array.make workers 0 in
        Pool.run ~workers workers (fun ~slot i ->
            Atomic.incr arrived;
            await (fun () -> Atomic.get arrived = workers);
            slots.(i) <- slot;
            out.(i) <- i * i);
        out
      in
      check
        Alcotest.(array int)
        (Printf.sprintf "next fan-out correct at %d workers" workers)
        (Array.init workers (fun i -> i * i))
        squares;
      checki
        (Printf.sprintf "every participant joined at %d workers" workers)
        workers
        (List.length (List.sort_uniq compare (Array.to_list slots))))
    [ 1; 2; 3 ]

(* A fan-out started from inside a job finds the pool owned and runs on
   its calling domain, with the same results. *)
let test_pool_nested_runs_inline () =
  let inner =
    Pool.map ~workers:2 4 (fun i -> Array.fold_left ( + ) 0 (Pool.map ~workers:2 (i + 1) Fun.id))
  in
  check Alcotest.(array int) "nested sums" [| 0; 1; 3; 6 |] inner

let () =
  Alcotest.run "arb_util"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches Array.init" `Quick test_pool_map_matches_init;
          Alcotest.test_case "lowest failing index wins" `Quick
            test_pool_lowest_failure_wins;
          Alcotest.test_case "nested fan-out runs inline" `Quick
            test_pool_nested_runs_inline;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects" `Quick test_rng_int_rejects_bad;
          Alcotest.test_case "uniform01" `Quick test_rng_uniform01;
          Alcotest.test_case "laplace stats" `Slow test_rng_laplace_stats;
          Alcotest.test_case "gumbel stats" `Slow test_rng_gumbel_stats;
          Alcotest.test_case "exponential stats" `Slow test_rng_exponential_stats;
          Alcotest.test_case "gaussian stats" `Slow test_rng_gaussian_stats;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          qtest prop_rng_int_uniformish;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "basics" `Quick test_fixed_basics;
          Alcotest.test_case "exp2" `Quick test_fixed_exp2;
          Alcotest.test_case "exp2 saturation" `Quick test_fixed_exp2_saturation;
          Alcotest.test_case "log2" `Quick test_fixed_log2;
          Alcotest.test_case "division by zero" `Quick test_fixed_division_by_zero;
          qtest prop_fixed_mul_commutes;
          qtest prop_fixed_mul_neg_symmetric;
          qtest prop_fixed_add_roundtrip;
          qtest prop_fixed_float_roundtrip;
        ] );
      ( "interval",
        [
          qtest prop_interval_add;
          qtest prop_interval_sub;
          qtest prop_interval_mul;
          qtest prop_interval_div;
          Alcotest.test_case "clip" `Quick test_interval_clip;
          Alcotest.test_case "bits_needed" `Quick test_interval_bits;
          Alcotest.test_case "saturation" `Quick test_interval_saturation;
          Alcotest.test_case "rejects bad bounds" `Quick test_interval_rejects;
        ] );
      ( "stats",
        [
          Alcotest.test_case "lgamma" `Quick test_lgamma;
          Alcotest.test_case "log_comb" `Quick test_log_comb;
          Alcotest.test_case "binom cdf vs brute force" `Quick
            test_binom_cdf_vs_bruteforce;
          Alcotest.test_case "binom tail vs brute force" `Quick
            test_binom_tail_vs_bruteforce;
          Alcotest.test_case "log1mexp" `Quick test_log1mexp;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
      ( "json",
        [
          qtest prop_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "non-finite floats rejected" `Quick
            test_json_rejects_nonfinite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "units-table",
        [
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "table render" `Quick test_table_render;
        ] );
    ]
