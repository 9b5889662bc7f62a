(* Tests for the multi-tenant analytics service: plan-cache keying and
   persistence, admission control against the shared budget, worker-pool
   determinism, calibration installs, and Plan_io's versioned file
   persistence. *)

module S = Arb_service
module B = Arb_dp.Budget
module P = Arb_planner
module Q = Arb_queries.Registry

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "arb-test-%d-%s" (Unix.getpid ()) name)

let tmp_dir name =
  let d = tmp_path name in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let sub ?categories ?(repeat = 1) ?(goal = P.Constraints.Min_part_exp_time)
    ~epsilon query =
  { S.Workload.query; epsilon; categories; goal; repeat; every = None;
    window = None; tolerance = None }

let service ?cache ?calibration ?(epsilon = 100.0) ?(delta = 0.01)
    ?(devices = 32) ?(seed = 5) () =
  S.Service.create ?cache ?calibration
    ~budget:(B.create ~epsilon ~delta)
    ~devices ~seed ()

(* The default cost model's fingerprint, the [model] of its cache keys. *)
let model = P.Calibration.default.P.Calibration.fingerprint

(* Key generation 20% slower than the default: enough to change kmedians'
   winning plan at 24 devices. *)
let mild_calibration () =
  let d = P.Cost_model.default in
  P.Calibration.make
    { d with P.Cost_model.kg_coeff_time = d.P.Cost_model.kg_coeff_time *. 1.2 }

(* ---------------- Plan_io file persistence ---------------- *)

let plan_of name =
  let q = Q.test_instance name in
  match (P.Search.plan ~query:q ~n:100_000 ()).P.Search.plan with
  | Some p -> p
  | None -> Alcotest.fail ("no plan for " ^ name)

let test_plan_io_roundtrip () =
  let plan = plan_of "top1" in
  let path = tmp_path "roundtrip.json" in
  P.Plan_io.save_plan path plan;
  (match P.Plan_io.load_plan path with
  | Ok plan' -> checkb "same plan back" true (plan = plan')
  | Error m -> Alcotest.fail m);
  Sys.remove path

let test_plan_io_rejects_malformed () =
  (match P.Plan_io.load_plan (tmp_path "does-not-exist.json") with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ());
  let garbage = tmp_path "garbage.json" in
  write_file garbage "this is { not json";
  (match P.Plan_io.load_plan garbage with
  | Ok _ -> Alcotest.fail "loaded garbage"
  | Error m -> checkb "mentions malformed JSON" true (contains m "malformed"));
  Sys.remove garbage;
  let unversioned = tmp_path "unversioned.json" in
  write_file unversioned "{\"plan\": {}}";
  (match P.Plan_io.load_plan unversioned with
  | Ok _ -> Alcotest.fail "loaded a file without formatVersion"
  | Error m -> checkb "mentions formatVersion" true (contains m "formatVersion"));
  Sys.remove unversioned;
  let stale = tmp_path "stale.json" in
  write_file stale "{\"formatVersion\": 999, \"plan\": {}}";
  (match P.Plan_io.load_plan stale with
  | Ok _ -> Alcotest.fail "loaded a version-mismatched file"
  | Error m -> checkb "mentions the version" true (contains m "999"));
  Sys.remove stale;
  let truncated = tmp_path "truncated.json" in
  write_file truncated "{\"formatVersion\": 2, \"plan\": {\"query\": \"x\"}}";
  match P.Plan_io.load_plan truncated with
  | Ok _ -> Alcotest.fail "loaded a plan missing fields"
  | Error m ->
      checkb "mentions the bad plan" true (contains m "bad plan");
      Sys.remove truncated

(* ---------------- cache keying ---------------- *)

let test_cache_key_canonicalization () =
  let goal = P.Constraints.Min_part_exp_time in
  let q = Q.test_instance "top1" in
  let key1 = S.Cache.key ~model ~goal ~query:q ~n:1000 () in
  let key2 = S.Cache.key ~model ~goal ~query:(Q.test_instance "top1") ~n:1000 () in
  checks "same inputs, same key" key1 key2;
  (* The registry name is metadata, not part of the key: a renamed query
     with the same program shares the entry. *)
  let renamed = { q with Q.name = "renamed"; action = "other action" } in
  checks "name is not part of the key" key1
    (S.Cache.key ~model ~goal ~query:renamed ~n:1000 ());
  let different =
    [
      S.Cache.key ~model ~goal ~query:q ~n:1001 ();
      S.Cache.key ~model ~goal:P.Constraints.Min_agg_bytes ~query:q ~n:1000 ();
      S.Cache.key ~model ~goal ~query:(Q.test_instance ~epsilon:0.7 "top1")
        ~n:1000 ();
      S.Cache.key ~model ~goal ~query:(Q.make ~name:"top1" ~c:8 ()) ~n:1000 ();
      S.Cache.key ~model ~goal ~query:(Q.test_instance "median") ~n:1000 ();
      S.Cache.key ~model ~goal
        ~query:{ q with Q.error_tolerance = Some 0.1 }
        ~n:1000 ();
      S.Cache.key
        ~model:(mild_calibration ()).P.Calibration.fingerprint
        ~goal ~query:q ~n:1000 ();
    ]
  in
  List.iteri
    (fun i k ->
      checkb (Printf.sprintf "variant %d differs" i) false (String.equal key1 k))
    different;
  (* Distinct variants are also pairwise distinct. *)
  let uniq = List.sort_uniq compare different in
  checki "no collisions among variants" (List.length different)
    (List.length uniq)

let test_cache_disk_persistence () =
  let dir = tmp_dir "cache-persist" in
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let q = Q.test_instance "top1" in
  let goal = P.Constraints.Min_part_exp_time in
  let key = S.Cache.key ~model ~goal ~query:q ~n:100_000 () in
  let r = P.Search.plan ~query:q ~n:100_000 () in
  let entry =
    match (r.P.Search.plan, r.P.Search.metrics) with
    | Some plan, Some metrics ->
        { S.Cache.plan; metrics; cols = q.Q.categories }
    | _ -> Alcotest.fail "no plan"
  in
  let c1 = S.Cache.create ~dir () in
  S.Cache.add c1 key ~query_name:"top1" entry;
  checkb "hit in the writing cache" true (S.Cache.mem c1 key);
  (* A fresh cache over the same directory revives the entry. *)
  let c2 = S.Cache.create ~dir () in
  (match S.Cache.find c2 key with
  | Some e -> checkb "revived plan equals original" true (e.S.Cache.plan = entry.S.Cache.plan)
  | None -> Alcotest.fail "persisted entry not found");
  checki "revival counted" 1 (S.Cache.revived c2);
  (* Corrupt the file: the entry becomes a miss, never an exception. *)
  write_file (Filename.concat dir (key ^ ".json")) "{corrupt";
  let c3 = S.Cache.create ~dir () in
  checkb "corrupt file is a miss" true (S.Cache.find c3 key = None)

(* ---------------- service lifecycle ---------------- *)

let test_service_cache_hits () =
  let t = service () in
  let records =
    S.Service.run_workload t
      {
        S.Workload.budget = None;
        devices = None;
        seed = None;
        epochs = None;
        submissions = [ sub ~epsilon:0.5 ~repeat:3 "top1" ];
      }
  in
  checki "three records" 3 (List.length records);
  List.iteri
    (fun i r ->
      checki "indices in submission order" i r.S.Lifecycle.index;
      checks "all executed" "executed" (S.Lifecycle.status_name r.S.Lifecycle.status);
      checkb
        (Printf.sprintf "submission %d cache label" i)
        (i > 0) r.S.Lifecycle.cache_hit)
    records;
  let c = S.Service.counters t in
  checki "one cold search" 1 c.S.Lifecycle.planned;
  checki "two hits" 2 c.S.Lifecycle.cache_hits;
  checki "session advanced" 3 (S.Service.queries_executed t);
  checkb "chain verifies" true (S.Service.chain_verifies t)

let test_admission_refuses_midworkload () =
  (* Budget covers exactly two queries at eps 0.5; the third (and a later
     affordable-looking retry) must be refused before planning, leaving
     the balance and the chain exactly as after the second execution. *)
  let t = service ~epsilon:1.0 ~delta:0.01 () in
  let records =
    S.Service.run_workload t
      {
        S.Workload.budget = None;
        devices = None;
        seed = None;
        epochs = None;
        submissions = [ sub ~epsilon:0.5 ~repeat:4 "top1" ];
      }
  in
  let statuses =
    List.map (fun r -> S.Lifecycle.status_name r.S.Lifecycle.status) records
  in
  Alcotest.(check (list string))
    "two executed, two refused"
    [ "executed"; "executed"; "refused"; "refused" ]
    statuses;
  checki "only two queries on the chain" 2 (S.Service.queries_executed t);
  checkb "chain verifies" true (S.Service.chain_verifies t);
  let balance = S.Service.budget_left t in
  checkb "epsilon fully spent" true (Float.abs balance.B.epsilon < 1e-9);
  List.iter
    (fun r ->
      match r.S.Lifecycle.status with
      | S.Lifecycle.Refused reason ->
          checkb "reason names the budget" true (contains reason "budget");
          checkb "refusal leaves balance untouched" true
            (B.equal r.S.Lifecycle.budget_before r.S.Lifecycle.budget_after);
          checkb "refused before planning" true
            (r.S.Lifecycle.timings.S.Lifecycle.plan_s = 0.0)
      | _ -> ())
    records

let test_admission_refuses_before_any_execution () =
  let budget = B.create ~epsilon:0.1 ~delta:0.01 in
  let t = S.Service.create ~budget ~devices:32 ~seed:5 () in
  ignore (S.Service.submit t (sub ~epsilon:0.5 "top1"));
  let records = S.Service.drain t in
  checki "one record" 1 (List.length records);
  (match records with
  | [ r ] ->
      checks "refused" "refused" (S.Lifecycle.status_name r.S.Lifecycle.status)
  | _ -> assert false);
  checkb "budget byte-identical" true (B.equal budget (S.Service.budget_left t));
  checki "nothing executed" 0 (S.Service.queries_executed t);
  checkb "empty chain verifies" true (S.Service.chain_verifies t)

let test_unknown_query_refused () =
  let t = service () in
  ignore (S.Service.submit t (sub ~epsilon:0.5 "no-such-query"));
  match S.Service.drain t with
  | [ r ] -> (
      match r.S.Lifecycle.status with
      | S.Lifecycle.Refused reason ->
          checkb "reason names the query" true (contains reason "no-such-query")
      | _ -> Alcotest.fail "expected a refusal")
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length rs))

(* A row width below 1 is a certification refusal, emitted by the drain
   like any other, not an exception out of [submit]. *)
let test_row_width_below_one_refused () =
  let t = service () in
  ignore (S.Service.submit t (sub ~categories:(-1) ~epsilon:0.5 "top1"));
  match S.Service.drain t with
  | [ { S.Lifecycle.status = S.Lifecycle.Refused reason; _ } ] ->
      checkb "reason names the width" true (contains reason "C = -1")
  | _ -> Alcotest.fail "expected one refusal"

let test_submit_holds_against_try_submit () =
  (* A plain submit holds its certified cost at enqueue, so try_submit
     sees it: of two further eps-0.5 submissions under a budget of 1.0,
     the second gets a 429-style refusal instead of a 202 that the drain
     would then refuse. *)
  let budget = B.create ~epsilon:1.0 ~delta:0.01 in
  let t = S.Service.create ~budget ~devices:32 ~seed:5 () in
  ignore (S.Service.submit t (sub ~epsilon:0.5 "top1"));
  (match S.Service.try_submit t (sub ~epsilon:0.5 "top1") with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "the second query fits beside the first's hold");
  (match S.Service.try_submit t (sub ~epsilon:0.5 "top1") with
  | Error (S.Service.Over_budget m) ->
      checkb "message names the budget" true (contains m "budget")
  | Ok _ -> Alcotest.fail "the submitted query's hold must count"
  | Error _ -> Alcotest.fail "wrong refusal kind");
  checkb "refusal left the balance untouched" true
    (B.equal budget (S.Service.budget_left t));
  let statuses =
    List.map
      (fun r -> S.Lifecycle.status_name r.S.Lifecycle.status)
      (S.Service.drain t)
  in
  Alcotest.(check (list string))
    "both held submissions executed" [ "executed"; "executed" ] statuses;
  checkb "epsilon fully spent" true
    (Float.abs (S.Service.budget_left t).B.epsilon < 1e-9)

let test_raising_drain_releases_holds () =
  (* A registry whose queue-wait series is already a counter makes the
     drain raise before it executes anything. Its finally must release
     both holds: the budget is then whole again for a new submission. *)
  let reg = Arb_obs.Metrics.create () in
  Arb_obs.Metrics.add reg ~help:"wrong kind" "arb_service_queue_wait_seconds"
    1.0;
  let budget = B.create ~epsilon:1.0 ~delta:0.01 in
  let t = S.Service.create ~metrics:reg ~budget ~devices:32 ~seed:5 () in
  ignore (S.Service.submit t (sub ~epsilon:0.5 ~repeat:2 "top1"));
  (match S.Service.try_submit t (sub ~epsilon:0.5 "top1") with
  | Error (S.Service.Over_budget _) -> ()
  | _ -> Alcotest.fail "two holds must exhaust the budget");
  (match S.Service.drain t with
  | _ -> Alcotest.fail "the drain should have raised"
  | exception Invalid_argument _ -> ());
  checkb "nothing was spent" true (B.equal budget (S.Service.budget_left t));
  match S.Service.try_submit t (sub ~epsilon:0.5 ~repeat:2 "top1") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "the raised drain must release its holds"

let test_empty_drain () =
  let t = service () in
  checki "no records" 0 (List.length (S.Service.drain t));
  checki "no pending" 0 (S.Service.pending t)

let test_incremental_batches_share_cache () =
  let t = service () in
  ignore (S.Service.submit t (sub ~epsilon:0.5 "top1"));
  let b1 = S.Service.drain t in
  ignore (S.Service.submit t (sub ~epsilon:0.5 "top1"));
  let b2 = S.Service.drain t in
  (match (b1, b2) with
  | [ r1 ], [ r2 ] ->
      checkb "first is cold" false r1.S.Lifecycle.cache_hit;
      checkb "second batch hits the first's plan" true r2.S.Lifecycle.cache_hit;
      checki "indices are service-global" 1 r2.S.Lifecycle.index
  | _ -> Alcotest.fail "expected singleton batches");
  checki "history holds both" 2 (List.length (S.Service.history t))

(* ---------------- determinism across worker counts ---------------- *)

(* A small pool of cheap executable queries the generator draws from. *)
let workload_pool = [| "top1"; "hypotest"; "median"; "gap" |]

let gen_workload =
  QCheck.Gen.(
    let gen_sub =
      map3
        (fun qi eps repeat ->
          sub ~epsilon:(0.2 +. (0.1 *. float_of_int eps)) ~repeat
            workload_pool.(qi))
        (int_bound (Array.length workload_pool - 1))
        (int_bound 3) (int_range 1 2)
    in
    map2
      (fun seed subs -> (seed, subs))
      (int_range 1 10_000)
      (list_size (int_range 1 4) gen_sub))

let arb_workload =
  QCheck.make gen_workload ~print:(fun (seed, subs) ->
      Printf.sprintf "seed=%d workload=[%s]" seed
        (String.concat "; "
           (List.map
              (fun s ->
                Printf.sprintf "%s eps=%g x%d" s.S.Workload.query
                  s.S.Workload.epsilon s.S.Workload.repeat)
              subs)))

let run_at ~workers ~seed subs =
  (* A budget that admits some but usually not all submissions, so the
     property also covers mid-workload refusals. Submissions land in two
     batches with a drain each — the service-level shape of a multi-epoch
     continual run — so determinism must hold across drain boundaries,
     not just within one. *)
  let t = service ~epsilon:1.5 ~delta:0.01 ~devices:24 ~seed () in
  let n = List.length subs in
  let batch1 = List.filteri (fun i _ -> 2 * i < n) subs in
  let batch2 = List.filteri (fun i _ -> 2 * i >= n) subs in
  List.iter (fun s -> ignore (S.Service.submit t s)) batch1;
  ignore (S.Service.drain ~workers t);
  List.iter (fun s -> ignore (S.Service.submit t s)) batch2;
  ignore (S.Service.drain ~workers t);
  ( S.Lifecycle.records_to_string (S.Service.history t),
    S.Service.budget_left t )

let prop_worker_count_invisible =
  QCheck.Test.make
    ~name:"same workload + seed => identical lifecycle records at any worker count"
    ~count:6 arb_workload
    (fun (seed, subs) ->
      let base, budget1 = run_at ~workers:1 ~seed subs in
      List.for_all
        (fun workers ->
          let records, budget = run_at ~workers ~seed subs in
          String.equal base records && B.equal budget1 budget)
        [ 2; 4 ])

(* ---------------- cross-domain safety ---------------- *)

let test_concurrent_submit_stress () =
  (* 4 domains hammer submit concurrently. Unsynchronized, the queue /
     next_index updates interleave and lose submissions or duplicate
     indices; under the service lock every submission gets a distinct
     index and all of them land. *)
  let t = service () in
  let domains_n = 4 and per_domain = 250 in
  let submitter _ =
    Domain.spawn (fun () ->
        List.init per_domain (fun _ ->
            S.Service.submit t (sub ~epsilon:0.5 "top1")))
  in
  let indices =
    List.concat_map Domain.join (List.init domains_n submitter)
  in
  let total = domains_n * per_domain in
  checki "every submission landed" total (S.Service.pending t);
  checki "next index advanced exactly once each" total (S.Service.submitted t);
  let sorted = List.sort_uniq compare indices in
  checki "indices are distinct" total (List.length sorted);
  checki "indices are dense from zero" (total - 1)
    (List.fold_left max (-1) sorted)

let test_try_submit_queue_full () =
  let t = service () in
  (match S.Service.try_submit ~max_queue:2 t (sub ~epsilon:0.5 "top1") with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "first submission should be index 0");
  (match S.Service.try_submit ~max_queue:2 t (sub ~epsilon:0.5 "top1") with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "second submission should be index 1");
  (match S.Service.try_submit ~max_queue:2 t (sub ~epsilon:0.5 "top1") with
  | Error (S.Service.Queue_full 2 as r) ->
      checkb "message names the bound" true
        (contains (S.Service.refusal_message r) "full")
  | _ -> Alcotest.fail "third submission should hit the queue bound");
  checki "refused submission not enqueued" 2 (S.Service.pending t);
  (* repeat counts toward the bound as a whole *)
  match S.Service.try_submit ~max_queue:4 t (sub ~epsilon:0.5 ~repeat:3 "top1") with
  | Error (S.Service.Queue_full _) -> ()
  | _ -> Alcotest.fail "repeat must count toward the queue bound"

let test_try_submit_over_budget () =
  (* Budget affords two eps-0.5 queries. Admission must count the holds
     of what is already queued, not just the session balance, and a
     refusal must leave both untouched. *)
  let budget = B.create ~epsilon:1.0 ~delta:0.01 in
  let t = S.Service.create ~budget ~devices:32 ~seed:5 () in
  (match S.Service.try_submit t (sub ~epsilon:0.5 "top1") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first affordable submission refused");
  (match S.Service.try_submit t (sub ~epsilon:0.5 "top1") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "second affordable submission refused");
  (match S.Service.try_submit t (sub ~epsilon:0.5 "top1") with
  | Error (S.Service.Over_budget _) -> ()
  | Ok _ -> Alcotest.fail "queued holds must count against the budget"
  | Error _ -> Alcotest.fail "wrong refusal kind");
  checkb "refusals left the balance untouched" true
    (B.equal budget (S.Service.budget_left t));
  checki "only the admitted two are queued" 2 (S.Service.pending t);
  let records = S.Service.drain t in
  checki "both admitted submissions executed" 2
    (List.length
       (List.filter
          (fun r ->
            S.Lifecycle.status_name r.S.Lifecycle.status = "executed")
          records));
  checkb "chain verifies" true (S.Service.chain_verifies t);
  (* The drain settled both holds; a third query is now refused on the
     spent balance. *)
  match S.Service.try_submit t (sub ~epsilon:0.5 "top1") with
  | Error (S.Service.Over_budget _) -> ()
  | _ -> Alcotest.fail "spent balance must refuse the next submission"

let test_try_submit_unknown_query_enqueues () =
  (* Unresolvable submissions pass the prescreen so drain can refuse them
     with the same canonical record the workload path produces. *)
  let t = service () in
  (match S.Service.try_submit t (sub ~epsilon:0.5 "no-such-query") with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "unknown query should enqueue for a canonical refusal");
  match S.Service.drain t with
  | [ { S.Lifecycle.status = S.Lifecycle.Refused reason; _ } ] ->
      checkb "drain refused it canonically" true (contains reason "no-such-query")
  | _ -> Alcotest.fail "expected one refusal record"

let test_cache_concurrent_writers () =
  (* Several domains persist entries for the same key at once: per-writer
     tmp names mean no torn files — afterwards the entry file is valid
     JSON a fresh cache revives, and no *.tmp strays remain. *)
  let dir = tmp_dir "cache-races" in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let q = Q.test_instance "top1" in
  let goal = P.Constraints.Min_part_exp_time in
  let key = S.Cache.key ~model ~goal ~query:q ~n:100_000 () in
  let r = P.Search.plan ~query:q ~n:100_000 () in
  let entry =
    match (r.P.Search.plan, r.P.Search.metrics) with
    | Some plan, Some metrics ->
        { S.Cache.plan; metrics; cols = q.Q.categories }
    | _ -> Alcotest.fail "no plan"
  in
  let cache = S.Cache.create ~dir () in
  let writers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              S.Cache.add cache key ~query_name:"top1" entry
            done))
  in
  List.iter Domain.join writers;
  let leftovers =
    List.filter
      (fun f -> Filename.check_suffix f ".tmp")
      (Array.to_list (Sys.readdir dir))
  in
  checki "no stranded tmp files" 0 (List.length leftovers);
  let fresh = S.Cache.create ~dir () in
  (match S.Cache.find fresh key with
  | Some e -> checkb "revived entry intact" true (e.S.Cache.plan = entry.S.Cache.plan)
  | None -> Alcotest.fail "entry file unreadable after concurrent writes")

let test_cache_dir_creation () =
  let root = tmp_path "cache-mkdirp" in
  let nested = Filename.concat (Filename.concat root "a") "b" in
  (* mkdir_p: the whole chain comes into being. *)
  let _ = S.Cache.create ~dir:nested () in
  checkb "nested directory created" true (Sys.is_directory nested);
  (* Concurrent creators of the same fresh directory: the TOCTOU seam —
     everyone must succeed even when another domain wins the mkdir race. *)
  let fresh = Filename.concat (Filename.concat root "c") "d" in
  let creators =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            match S.Cache.create ~dir:fresh () with
            | _ -> true
            | exception _ -> false))
  in
  checkb "all concurrent creators succeed" true
    (List.for_all Domain.join creators);
  checkb "directory exists" true (Sys.is_directory fresh)

let test_cache_tmp_sweep () =
  let dir = tmp_dir "cache-sweep" in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  write_file (Filename.concat dir "stale.1234.0.tmp") "half-written";
  write_file (Filename.concat dir "deadbeef.json.tmp") "also stale";
  write_file (Filename.concat dir "keep.json") "{}";
  let _ = S.Cache.create ~dir () in
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string))
    "tmp files swept, real entries kept" [ "keep.json" ] files

(* ---------------- workload files ---------------- *)

let test_workload_file_roundtrip () =
  let w =
    {
      S.Workload.budget = Some (B.create ~epsilon:3.0 ~delta:1e-6);
      devices = Some 48;
      seed = Some 7;
      epochs = None;
      submissions =
        [ sub ~epsilon:0.5 ~repeat:2 "top1"; sub ~epsilon:0.4 "median" ];
    }
  in
  let path = tmp_path "workload.json" in
  S.Workload.save path w;
  (match S.Workload.load path with
  | Error m -> Alcotest.fail m
  | Ok w' ->
      checkb "same workload back" true (w = w');
      checki "expansion honors repeat" 3 (List.length (S.Workload.expand w')));
  Sys.remove path

let test_workload_file_rejects () =
  let path = tmp_path "bad-workload.json" in
  write_file path "{\"formatVersion\": 2, \"queries\": [{\"epsilon\": 1}]}";
  (match S.Workload.load path with
  | Ok _ -> Alcotest.fail "loaded a workload entry without a query name"
  | Error m -> checkb "mentions the query field" true (contains m "query"));
  write_file path
    "{\"formatVersion\": 2, \"queries\": [{\"query\": \"top1\", \"goal\": \
     \"warp-speed\"}]}";
  (match S.Workload.load path with
  | Ok _ -> Alcotest.fail "loaded a workload with an unknown goal"
  | Error m -> checkb "mentions the goal" true (contains m "warp-speed"));
  write_file path
    "{\"formatVersion\": 2, \"queries\": [{\"query\": \"top1\", \"repeat\": 0}]}";
  (match S.Workload.load path with
  | Ok _ -> Alcotest.fail "loaded a workload with repeat 0"
  | Error m -> checkb "mentions repeat" true (contains m "repeat"));
  Sys.remove path

(* ---------------- calibration installs ---------------- *)

let cal_workload queries =
  {
    S.Workload.budget = None;
    devices = None;
    seed = None;
    epochs = None;
    submissions = List.map (fun q -> sub ~epsilon:0.5 q) queries;
  }

let test_set_calibration_rekeys () =
  let reg = Arb_obs.Metrics.create () in
  let t =
    S.Service.create ~metrics:reg
      ~budget:(B.create ~epsilon:100.0 ~delta:0.01)
      ~devices:32 ~seed:5 ()
  in
  ignore (S.Service.run_workload t (cal_workload [ "top1"; "median" ]));
  let planned () = (S.Service.counters t).S.Lifecycle.planned in
  checki "two cold plans" 2 (planned ());
  let default = S.Service.calibration t in
  (* Reinstalling the current calibration is a no-op. *)
  checkb "same fingerprint unchanged" false
    (S.Service.set_calibration t default);
  let mild = mild_calibration () in
  checkb "mild install changed" true (S.Service.set_calibration t mild);
  checks "installed fingerprint" mild.P.Calibration.fingerprint
    (S.Service.calibration_fingerprint t);
  checkb "install counter moved" true
    (Arb_obs.Metrics.value_at reg "arb_service_calibration_installs_total"
    = Some 1.0);
  checki "the old model's entries stay cached" 2
    (S.Cache.size (S.Service.cache t));
  (* The key names the model: under the new one, top1 plans cold once. *)
  ignore (S.Service.run_workload t (cal_workload [ "top1"; "top1" ]));
  checki "one cold plan under the new model" 3 (planned ());
  (* Back under the default model, its entries are reachable again. *)
  ignore (S.Service.set_calibration t default);
  ignore (S.Service.run_workload t (cal_workload [ "top1"; "median" ]));
  checki "the default model's plans hit again" 3 (planned ())

let test_install_executes_new_winner () =
  (* After an install, a one-shot executes the plan the new model's own
     search picks, not the old model's plan. *)
  let t = service ~devices:24 () in
  let s = sub ~epsilon:0.5 "kmedians" in
  let executed_plan () =
    ignore (S.Service.submit t s);
    match S.Service.drain t with
    | [ { S.Lifecycle.status = S.Lifecycle.Executed _; cache_key; _ } ] -> (
        match S.Cache.find (S.Service.cache t) cache_key with
        | Some e -> e.S.Cache.plan
        | None -> Alcotest.fail "the executed plan is not cached")
    | _ -> Alcotest.fail "kmedians did not execute"
  in
  let winner calib =
    match
      (P.Search.plan ~cm:calib.P.Calibration.constants
         ~limits:P.Constraints.no_limits ~goal:s.S.Workload.goal
         ~query:(Option.get (S.Service.resolve s))
         ~n:24 ())
        .P.Search.plan
    with
    | Some p -> p
    | None -> Alcotest.fail "no kmedians plan"
  in
  let mild = mild_calibration () in
  checkb "the two models pick different plans" false
    (winner P.Calibration.default = winner mild);
  checkb "the default model's winner runs first" true
    (executed_plan () = winner P.Calibration.default);
  ignore (S.Service.set_calibration t mild);
  checkb "after the install, the mild model's winner runs" true
    (executed_plan () = winner mild)

let test_cache_dir_names_the_model () =
  (* A cache directory holds the plans of the model that filed them: a
     service under another model revives none of them, and a service
     under the filing model revives them again. *)
  let dir = tmp_dir "cache-models" in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let run ?calibration () =
    let t = service ~cache:(S.Cache.create ~dir ()) ?calibration () in
    ignore (S.Service.run_workload t (cal_workload [ "top1" ]));
    ( (S.Service.counters t).S.Lifecycle.planned,
      S.Cache.revived (S.Service.cache t) )
  in
  let planned, _ = run () in
  checki "the default model plans cold" 1 planned;
  let planned, revived = run ~calibration:(mild_calibration ()) () in
  checki "the mild model revives nothing" 0 revived;
  checki "the mild model plans cold" 1 planned;
  let planned, revived = run () in
  checki "the default model revives its entry" 1 revived;
  checki "the default model plans nothing" 0 planned

let test_install_between_submit_and_drain () =
  (* The drain keys a submission under the model it plans with: a plan
     searched under an install that landed after [submit] is filed under
     that install's model, never under the one current at [submit]. *)
  let t = service () in
  let default = S.Service.calibration t in
  ignore (S.Service.submit t (sub ~epsilon:0.5 "top1"));
  ignore (S.Service.set_calibration t (mild_calibration ()));
  (match S.Service.drain t with
  | [ r ] -> checkb "planned cold under the mild model" false r.S.Lifecycle.cache_hit
  | _ -> Alcotest.fail "expected one record");
  ignore (S.Service.set_calibration t default);
  ignore (S.Service.submit t (sub ~epsilon:0.5 "top1"));
  match S.Service.drain t with
  | [ r ] ->
      checkb "the default model has no plan for it yet" false
        r.S.Lifecycle.cache_hit
  | _ -> Alcotest.fail "expected one record"

let test_fixed_calibration_worker_identity () =
  (* Under one fixed calibration file, canonical records are byte-identical
     at any planner worker count. *)
  let calib = mild_calibration () in
  let run workers =
    let t =
      S.Service.create ~calibration:calib
        ~budget:(B.create ~epsilon:100.0 ~delta:0.01)
        ~devices:32 ~seed:5 ()
    in
    List.iter
      (fun q -> ignore (S.Service.submit t (sub ~epsilon:0.5 q)))
      [ "top1"; "median"; "top1" ];
    ignore (S.Service.drain ~workers t);
    S.Lifecycle.records_to_string ~timings:false (S.Service.history t)
  in
  let reference = run 1 in
  List.iter
    (fun w ->
      checks (Printf.sprintf "workers=%d byte-identical" w) reference (run w))
    [ 2; 3 ]

(* With the drain's tracer also in the exec config (as both serve modes
   set it up), each execute span holds its execution's stage spans, and a
   Deterministic clock keeps the trace and metrics bytes independent of the
   worker count. The pool-size gauge reports configuration, so it is the
   one series left out of the comparison. *)
let test_traced_drain_shows_exec_stages () =
  let run workers =
    let tr = Arb_obs.Tracer.create ~clock:Arb_obs.Clock.Deterministic () in
    let reg = Arb_obs.Metrics.create () in
    let t =
      S.Service.create ~metrics:reg
        ~exec_config:{ Arb_runtime.Exec.default_config with tracer = Some tr; workers }
        ~budget:(B.create ~epsilon:100.0 ~delta:0.01)
        ~devices:32 ~seed:5 ()
    in
    List.iter
      (fun q -> ignore (S.Service.submit t (sub ~epsilon:0.5 q)))
      [ "top1"; "median"; "top1" ];
    ignore (S.Service.drain ~tracer:tr ~workers t);
    let metrics =
      String.split_on_char '\n' (Arb_obs.Metrics.to_prometheus reg)
      |> List.filter (fun l -> not (String.starts_with ~prefix:"arb_service_pool_workers" l))
      |> String.concat "\n"
    in
    (Arb_obs.Tracer.to_string tr, metrics, (S.Service.counters t).S.Lifecycle.executed, tr)
  in
  let trace, metrics, executed, tr = run 1 in
  let trace2, metrics2, _, _ = run 2 in
  checks "trace bytes identical at 1 and 2 workers" trace trace2;
  checks "metrics bytes identical at 1 and 2 workers" metrics metrics2;
  checki "every submission executed" 3 executed;
  let module J = Arb_util.Json in
  let spans name =
    List.filter_map
      (fun e ->
        if J.member "name" e = J.String name then
          let ts = J.to_int (J.member "ts" e) in
          Some (ts, ts + J.to_int (J.member "dur" e))
        else None)
      (J.to_list (Arb_obs.Tracer.to_json tr))
  in
  let executes = spans "execute" in
  List.iter
    (fun stage ->
      let inside = spans stage in
      checki (stage ^ " spans: one per executed query") executed (List.length inside);
      List.iter
        (fun (a, b) ->
          checkb (stage ^ " span inside an execute span") true
            (List.exists (fun (ea, eb) -> ea <= a && b <= eb) executes))
        inside)
    [ "keygen"; "inputs" ]

let () =
  Alcotest.run "service"
    [
      ( "plan-io",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_plan_io_roundtrip;
          Alcotest.test_case "malformed files are rejected with Error" `Quick
            test_plan_io_rejects_malformed;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key canonicalization" `Quick
            test_cache_key_canonicalization;
          Alcotest.test_case "disk persistence + corrupt-file tolerance" `Quick
            test_cache_disk_persistence;
        ] );
      ( "admission",
        [
          Alcotest.test_case "budget exhaustion refuses mid-workload" `Quick
            test_admission_refuses_midworkload;
          Alcotest.test_case "refusal before any execution" `Quick
            test_admission_refuses_before_any_execution;
          Alcotest.test_case "unknown query refused" `Quick
            test_unknown_query_refused;
          Alcotest.test_case "row width below 1 refused" `Quick
            test_row_width_below_one_refused;
          Alcotest.test_case "submit holds its cost against try_submit" `Quick
            test_submit_holds_against_try_submit;
          Alcotest.test_case "a raising drain releases its holds" `Quick
            test_raising_drain_releases_holds;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "repeat submissions hit the cache" `Quick
            test_service_cache_hits;
          Alcotest.test_case "empty drain" `Quick test_empty_drain;
          Alcotest.test_case "batches share cache, indices global" `Quick
            test_incremental_batches_share_cache;
        ] );
      ("determinism", [ qtest prop_worker_count_invisible ]);
      ( "calibration",
        [
          Alcotest.test_case "install re-keys the cache" `Quick
            test_set_calibration_rekeys;
          Alcotest.test_case "fixed calibration byte-identical across workers"
            `Quick test_fixed_calibration_worker_identity;
          Alcotest.test_case "install executes the new model's winner" `Quick
            test_install_executes_new_winner;
          Alcotest.test_case "cache directory names the model" `Quick
            test_cache_dir_names_the_model;
          Alcotest.test_case "install between submit and drain" `Quick
            test_install_between_submit_and_drain;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "multi-domain submit stress" `Quick
            test_concurrent_submit_stress;
          Alcotest.test_case "try_submit queue bound" `Quick
            test_try_submit_queue_full;
          Alcotest.test_case "try_submit budget prescreen + reservations"
            `Quick test_try_submit_over_budget;
          Alcotest.test_case "unknown queries enqueue for canonical refusal"
            `Quick test_try_submit_unknown_query_enqueues;
          Alcotest.test_case "concurrent cache writers never tear files"
            `Quick test_cache_concurrent_writers;
          Alcotest.test_case "cache dir created recursively, race-tolerant"
            `Quick test_cache_dir_creation;
          Alcotest.test_case "stale tmp files swept on create" `Quick
            test_cache_tmp_sweep;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "traced drain shows execution stages" `Quick
            test_traced_drain_shows_exec_stages;
        ] );
      ( "workload",
        [
          Alcotest.test_case "file roundtrip" `Quick test_workload_file_roundtrip;
          Alcotest.test_case "malformed workloads rejected" `Quick
            test_workload_file_rejects;
        ] );
    ]
