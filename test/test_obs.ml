(* Tests for the observability layer (lib/obs): metrics registry edge
   cases, span tracer nesting (on synthetic span programs and on the
   traces the planner and the runtime emit), clock injection, and the
   deterministic-mode canonical-bytes guarantees the service and the
   chaos suite rely on. *)

module Obs = Arb_obs
module M = Obs.Metrics
module Tr = Obs.Tracer
module J = Arb_util.Json

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* --- metrics: registration and exposition --- *)

let test_counter_idempotent () =
  let t = M.create () in
  M.add t "requests_total" 1.0;
  M.add t "requests_total" 2.0;
  let c = M.counter t "requests_total" in
  M.inc c;
  checkb "one series" true
    (contains (M.to_prometheus t) "requests_total 4\n")

let test_label_canonicalization () =
  let t = M.create () in
  M.add t ~labels:[ ("b", "2"); ("a", "1") ] "x_total" 1.0;
  M.add t ~labels:[ ("a", "1"); ("b", "2") ] "x_total" 1.0;
  let text = M.to_prometheus t in
  checkb "same cell" true (contains text "x_total{a=\"1\",b=\"2\"} 2\n");
  checkb "no dup" false (contains text "x_total{b=\"2\",a=\"1\"}")

let test_counter_guards () =
  let t = M.create () in
  let c = M.counter t "c_total" in
  checkb "negative" true (raises_invalid (fun () -> M.inc ~by:(-1.0) c));
  checkb "nan" true (raises_invalid (fun () -> M.inc ~by:Float.nan c));
  checkb "kind clash" true
    (raises_invalid (fun () -> M.gauge t "c_total"))

let test_histogram_edges () =
  let t = M.create () in
  let buckets = [ 1.0; 5.0 ] in
  (* Underflow lands in the first bucket, a value exactly on a bound is
     inside it (le is inclusive), overflow lands in +Inf. *)
  M.observe_in t ~buckets "lat" 0.5;
  M.observe_in t ~buckets "lat" 1.0;
  M.observe_in t ~buckets "lat" 3.0;
  M.observe_in t ~buckets "lat" 7.0;
  let text = M.to_prometheus t in
  checkb "le=1 cumulative" true (contains text "lat_bucket{le=\"1\"} 2\n");
  checkb "le=5 cumulative" true (contains text "lat_bucket{le=\"5\"} 3\n");
  checkb "+Inf cumulative" true (contains text "lat_bucket{le=\"+Inf\"} 4\n");
  checkb "sum" true (contains text "lat_sum 11.5\n");
  checkb "count" true (contains text "lat_count 4\n")

let test_histogram_zero_observations () =
  let t = M.create () in
  ignore (M.histogram t ~buckets:[ 0.001; 0.1 ] "idle");
  let text = M.to_prometheus t in
  checkb "family present" true (contains text "# TYPE idle histogram");
  checkb "empty buckets" true (contains text "idle_bucket{le=\"+Inf\"} 0\n");
  checkb "zero count" true (contains text "idle_count 0\n");
  checkb "short bound" true (contains text "le=\"0.001\"")

let test_histogram_guards () =
  let t = M.create () in
  checkb "empty buckets" true
    (raises_invalid (fun () -> M.histogram t ~buckets:[] "h"));
  checkb "unsorted" true
    (raises_invalid (fun () -> M.histogram t ~buckets:[ 2.0; 1.0 ] "h"));
  ignore (M.histogram t ~buckets:[ 1.0; 2.0 ] "h");
  checkb "re-register different buckets" true
    (raises_invalid (fun () -> M.histogram t ~buckets:[ 1.0; 3.0 ] "h"));
  let h = M.histogram t ~buckets:[ 1.0; 2.0 ] "h" in
  checkb "non-finite observation" true
    (raises_invalid (fun () -> M.observe h Float.infinity))

let test_metrics_json_matches_text_order () =
  let t = M.create () in
  M.add t ~labels:[ ("q", "b") ] "z_total" 1.0;
  M.add t ~labels:[ ("q", "a") ] "z_total" 2.0;
  M.set_gauge t "a_gauge" 3.0;
  match M.to_json t with
  | J.List entries ->
      let names =
        List.map
          (fun e -> (J.to_str (J.member "name" e), J.member "labels" e))
          entries
      in
      (match names with
      | [ ("a_gauge", _); ("z_total", la); ("z_total", lb) ] ->
          checks "label order" "a" (J.to_str (J.member "q" la));
          checks "label order" "b" (J.to_str (J.member "q" lb))
      | _ -> Alcotest.fail "unexpected JSON entry order")
  | _ -> Alcotest.fail "to_json is not a list"

(* --- tracer: structure and clocks --- *)

(* The structural check a Chrome trace_event consumer relies on. Every
   event has a non-empty name, a cat and a pid; ts and dur are
   non-negative; instant events carry a scope; and per (pid, tid) the
   complete events are disjoint or properly contained. A missing or
   malformed field raises; overlapping spans return false. *)
let well_nested json =
  let events = J.to_list json in
  let spans = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      if J.to_str (J.member "name" ev) = "" then failwith "empty event name";
      ignore (J.to_str (J.member "cat" ev));
      let key = (J.to_int (J.member "pid" ev), J.to_int (J.member "tid" ev)) in
      let ts = J.to_int (J.member "ts" ev) in
      if ts < 0 then failwith "negative ts";
      match J.to_str (J.member "ph" ev) with
      | "X" ->
          let dur = J.to_int (J.member "dur" ev) in
          if dur < 0 then failwith "negative dur";
          let prev = Option.value ~default:[] (Hashtbl.find_opt spans key) in
          Hashtbl.replace spans key ((ts, ts + dur) :: prev)
      | "i" -> ignore (J.to_str (J.member "s" ev))
      | ph -> failwith ("unexpected ph " ^ ph))
    events;
  Hashtbl.fold
    (fun _key sps ok ->
      let sps =
        List.sort (fun (s1, e1) (s2, e2) -> compare (s1, -e1) (s2, -e2)) sps
      in
      let ok_thread, _ =
        List.fold_left
          (fun (ok, stack) (s, e) ->
            let stack = List.filter (fun (_, pe) -> pe > s) stack in
            let ok =
              ok
              && match stack with
                 | (ps, pe) :: _ -> ps <= s && e <= pe
                 | [] -> true
            in
            (ok, (s, e) :: stack))
          (true, []) sps
      in
      ok && ok_thread)
    spans true

let test_deterministic_ticks () =
  let t = Tr.create ~clock:Obs.Clock.Deterministic () in
  Tr.with_span t "outer" (fun () -> Tr.with_span t "inner" (fun () -> ()));
  (* Each begin/end consumes one tick: outer [0,3] strictly contains
     inner [1,2]. *)
  match J.to_list (Tr.to_json t) with
  | [ outer; inner ] ->
      checks "outer first" "outer" (J.to_str (J.member "name" outer));
      checki "outer ts" 0 (J.to_int (J.member "ts" outer));
      checki "outer dur" 3 (J.to_int (J.member "dur" outer));
      checki "inner ts" 1 (J.to_int (J.member "ts" inner));
      checki "inner dur" 1 (J.to_int (J.member "dur" inner))
  | _ -> Alcotest.fail "expected two events"

let test_span_survives_exception () =
  let t = Tr.create ~clock:Obs.Clock.Deterministic () in
  (try Tr.with_span t "fails" (fun () -> failwith "boom")
   with Failure _ -> ());
  checki "event recorded" 1 (Tr.event_count t);
  checkb "well nested" true (well_nested (Tr.to_json t))

let test_span_end_guard () =
  let t = Tr.create () in
  checkb "no open span" true (raises_invalid (fun () -> Tr.span_end t))

let test_simulated_clock_spans () =
  let sim = Obs.Clock.sim () in
  let t = Tr.create ~clock:(Obs.Clock.Simulated sim) () in
  Tr.with_span t "protocol" (fun () -> Tr.advance t 1.5);
  Tr.advance t 0.25;
  Tr.instant t "after";
  match J.to_list (Tr.to_json t) with
  | [ span; inst ] ->
      checki "span dur is simulated" 1_500_000
        (J.to_int (J.member "dur" span));
      checki "instant at 1.75s" 1_750_000 (J.to_int (J.member "ts" inst));
      checks "instant scope" "t" (J.to_str (J.member "s" inst))
  | _ -> Alcotest.fail "expected two events"

let test_graft_guard_and_splice () =
  let t = Tr.create ~clock:Obs.Clock.Deterministic () in
  let c = Tr.child t ~tid:9 in
  Tr.span_begin c "open";
  checkb "open child refused" true (raises_invalid (fun () -> Tr.graft t c));
  Tr.span_end c;
  Tr.with_span t "parent" (fun () -> ());
  Tr.graft t c;
  (* The child's ticks are spliced after the parent's: [2,3]. *)
  match J.to_list (Tr.to_json t) with
  | [ p; ch ] ->
      checki "parent tid" 0 (J.to_int (J.member "tid" p));
      checki "child tid" 9 (J.to_int (J.member "tid" ch));
      checki "child spliced ts" 2 (J.to_int (J.member "ts" ch))
  | _ -> Alcotest.fail "expected two events"

(* A planner search of paper top1 at N = 10^9, traced and metered. *)
let test_planner_trace () =
  let t = Tr.create () and reg = M.create () in
  let r =
    Arb_planner.Search.plan ~tracer:t ~metrics:reg
      ~query:(Arb_queries.Registry.paper_instance "top1") ~n:1_000_000_000 ()
  in
  checkb "search spans recorded" true
    (List.exists (fun (name, _, _) -> name = "search") (Tr.totals t));
  checkb "planner trace well nested" true (well_nested (J.of_string (Tr.to_string t)));
  let stats = r.Arb_planner.Search.stats in
  checkb "node counter matches the search" true
    (M.value_at reg "arb_planner_nodes_total"
    = Some (float_of_int stats.Arb_planner.Search.prefixes));
  checkb "plan counter matches the search" true
    (M.value_at reg "arb_planner_plans_total"
    = Some (float_of_int stats.Arb_planner.Search.full_plans))

(* An execution of top1 on 32 devices, traced on the simulated clock. *)
let test_exec_trace () =
  let sim = Obs.Clock.sim () in
  let t = Tr.create ~clock:(Obs.Clock.Simulated sim) () in
  let q = Arb_queries.Registry.test_instance ~epsilon:2.0 "top1" in
  let db = Arb_queries.Registry.random_database (Arb_util.Rng.create 17L) q ~n:32 () in
  let config =
    { Arb_runtime.Exec.default_config with
      Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:100.0 ~delta:1e-3;
      tracer = Some t }
  in
  (match Arboretum.run ~config ~db (Arboretum.plan ~n:32 q) with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "run failed closed: %a" Arb_runtime.Exec.pp_failure f);
  checkb "protocol time advanced" true (sim.Obs.Clock.sim_now > 0.0);
  checkb "runtime trace well nested" true (well_nested (J.of_string (Tr.to_string t)))

(* --- qcheck properties --- *)

(* A random span program: a forest of named spans with occasional instants,
   plus a few parallel children grafted in canonical order. *)
type tree = Node of int * tree list

let tree_gen =
  QCheck.Gen.(
    sized_size (int_bound 5) (fix (fun self n ->
        map2
          (fun name kids -> Node (name, kids))
          (int_bound 7)
          (if n <= 0 then return []
           else list_size (int_bound 3) (self (n / 2))))))

let forest_arb =
  QCheck.make
    ~print:(fun f ->
      let rec pp (Node (n, kids)) =
        string_of_int n ^ "(" ^ String.concat "," (List.map pp kids) ^ ")"
      in
      String.concat ";" (List.map pp f))
    QCheck.Gen.(list_size (int_bound 4) tree_gen)

let replay forest =
  let t = Tr.create ~clock:Obs.Clock.Deterministic () in
  let rec walk tr (Node (name, kids)) =
    Tr.with_span tr
      ~args:[ ("n", J.Int name) ]
      (Printf.sprintf "s%d" name)
      (fun () ->
        if name mod 3 = 0 then Tr.instant tr "tick";
        List.iter (walk tr) kids)
  in
  List.iteri
    (fun i root ->
      if i mod 2 = 0 then walk t root
      else begin
        (* Route odd roots through a grafted child, like a parallel stage. *)
        let c = Tr.child t ~tid:(i + 1) in
        walk c root;
        Tr.graft t c
      end)
    forest;
  t

let prop_deterministic_canonical_bytes =
  QCheck.Test.make ~name:"identical deterministic runs give identical bytes"
    ~count:60 forest_arb (fun forest ->
      String.equal (Tr.to_string (replay forest)) (Tr.to_string (replay forest)))

let prop_span_trees_well_nested =
  QCheck.Test.make ~name:"replayed span forests serialize well-nested"
    ~count:60 forest_arb (fun forest -> well_nested (Tr.to_json (replay forest)))

let prop_histogram_buckets_partition =
  QCheck.Test.make ~name:"histogram buckets partition the observations"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6) (float_bound_exclusive 100.0))
           (list_size (int_bound 20) (float_bound_exclusive 200.0))))
    (fun (bounds, observations) ->
      let bounds = List.sort_uniq compare (List.map (fun b -> b +. 0.001) bounds) in
      let t = M.create () in
      let h = M.histogram t ~buckets:bounds "p" in
      List.iter (M.observe h) observations;
      let text = M.to_prometheus t in
      let n = List.length observations in
      contains text (Printf.sprintf "p_bucket{le=\"+Inf\"} %d\n" n)
      && contains text (Printf.sprintf "p_count %d\n" n))

(* --- metrics: quantiles --- *)

let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_histogram_quantile_edges () =
  let t = M.create () in
  (* No histogram yet. *)
  checkb "absent histogram" true (M.histogram_quantile t "h" 0.5 = None);
  List.iter
    (fun v -> M.observe_in t ~buckets:[ 1.0; 10.0 ] "h" v)
    [ 0.2; 0.4; 2.0; 100.0 ];
  (* Rank 1-2 of 4 land in the first bucket: interpolate inside [0, 1]. *)
  checkf "p25 underflow bucket" 0.5 (Option.get (M.histogram_quantile t "h" 0.25));
  (* Rank 4 lands in +Inf: clamp to the highest finite bound. *)
  checkf "p100 overflow clamps" 10.0 (Option.get (M.histogram_quantile t "h" 1.0));
  checkf "p0 uses rank 1" 0.5 (Option.get (M.histogram_quantile t "h" 0.0));
  checkb "q out of range raises" true
    (raises_invalid (fun () -> M.histogram_quantile t "h" 1.5));
  checkb "non-finite q raises" true
    (raises_invalid (fun () -> M.histogram_quantile t "h" Float.nan));
  (* All observations overflow: still clamps, never NaN/inf. *)
  let t2 = M.create () in
  M.observe_in t2 ~buckets:[ 1.0; 10.0 ] "h" 99.0;
  checkf "all-overflow clamps" 10.0 (Option.get (M.histogram_quantile t2 "h" 0.5));
  (* Zero observations. *)
  let t3 = M.create () in
  ignore (M.histogram t3 ~buckets:[ 1.0 ] "h");
  checkb "empty histogram" true (M.histogram_quantile t3 "h" 0.5 = None)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter registration idempotent" `Quick
            test_counter_idempotent;
          Alcotest.test_case "labels canonicalized" `Quick
            test_label_canonicalization;
          Alcotest.test_case "counter guards" `Quick test_counter_guards;
          Alcotest.test_case "histogram under/overflow + boundary" `Quick
            test_histogram_edges;
          Alcotest.test_case "histogram with zero observations" `Quick
            test_histogram_zero_observations;
          Alcotest.test_case "histogram guards" `Quick test_histogram_guards;
          Alcotest.test_case "JSON mirrors canonical text order" `Quick
            test_metrics_json_matches_text_order;
          Alcotest.test_case "histogram quantile edges" `Quick
            test_histogram_quantile_edges;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "deterministic ticks" `Quick
            test_deterministic_ticks;
          Alcotest.test_case "span closes on exception" `Quick
            test_span_survives_exception;
          Alcotest.test_case "span_end guard" `Quick test_span_end_guard;
          Alcotest.test_case "simulated clock drives spans" `Quick
            test_simulated_clock_spans;
          Alcotest.test_case "graft guard + deterministic splice" `Quick
            test_graft_guard_and_splice;
          Alcotest.test_case "planner trace well nested" `Quick
            test_planner_trace;
          Alcotest.test_case "simulated-clock runtime trace well nested" `Quick
            test_exec_trace;
        ] );
      ( "properties",
        [
          qtest prop_deterministic_canonical_bytes;
          qtest prop_span_trees_well_nested;
          qtest prop_histogram_buckets_partition;
        ] );
    ]
