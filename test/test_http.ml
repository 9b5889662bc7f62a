(* HTTP front door tests: the pure parser (every malformed, oversized or
   partial input maps to the right outcome), response serialization, and
   end-to-end socket exchanges against a live Server — including the
   JSON API submitting real queries and the byte-identity of lifecycle
   records between the HTTP and in-process paths. *)

module S = Arb_service
module H = S.Http
module B = Arb_dp.Budget
module P = Arb_planner
module J = Arb_util.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let sub ?categories ?(repeat = 1) ?(goal = P.Constraints.Min_part_exp_time)
    ~epsilon query =
  { S.Workload.query; epsilon; categories; goal; repeat; every = None;
    window = None; tolerance = None }

let service ?(epsilon = 100.0) ?(delta = 0.01) ?(devices = 32) ?(seed = 5) () =
  S.Service.create ~budget:(B.create ~epsilon ~delta) ~devices ~seed ()

let rec wait_until ?(tries = 400) f =
  f ()
  || tries > 0
     && (Unix.sleepf 0.025;
         wait_until ~tries:(tries - 1) f)

(* ---------------- parser ---------------- *)

let get_request =
  "GET /v1/queries/3?x=a%20b&flag HTTP/1.1\r\nHost: example\r\nX-Thing: v\r\n\r\n"

let test_parse_get () =
  match H.parse_request get_request with
  | H.Complete (r, consumed) ->
      checks "method" "GET" r.H.meth;
      checks "decoded path" "/v1/queries/3" r.H.path;
      checkb "query decoded" true
        (r.H.query = [ ("x", "a b"); ("flag", "") ]);
      checks "header names lowercased" "example"
        (Option.get (List.assoc_opt "host" r.H.headers));
      checks "empty body" "" r.H.body;
      checki "whole buffer consumed" (String.length get_request) consumed
  | _ -> Alcotest.fail "valid GET did not parse"

let test_parse_pipelined () =
  let post = "POST /v1/queries HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd" in
  let buf = post ^ get_request in
  match H.parse_request buf with
  | H.Complete (r, consumed) -> (
      checks "body" "abcd" r.H.body;
      checki "consumed just the first request" (String.length post) consumed;
      let rest = String.sub buf consumed (String.length buf - consumed) in
      match H.parse_request rest with
      | H.Complete (r2, _) -> checks "second request" "GET" r2.H.meth
      | _ -> Alcotest.fail "pipelined second request did not parse")
  | _ -> Alcotest.fail "valid POST did not parse"

let test_every_prefix_is_partial () =
  let full = "POST /q HTTP/1.1\r\ncontent-length: 6\r\nhost: x\r\n\r\nabcdef" in
  for i = 0 to String.length full - 1 do
    match H.parse_request (String.sub full 0 i) with
    | H.Partial -> ()
    | H.Complete _ -> Alcotest.failf "prefix %d parsed as complete" i
    | H.Reject (st, _) -> Alcotest.failf "prefix %d rejected with %d" i st
  done;
  match H.parse_request full with
  | H.Complete (r, _) -> checks "full buffer parses" "abcdef" r.H.body
  | _ -> Alcotest.fail "full buffer did not parse"

let reject_status input =
  match H.parse_request input with
  | H.Reject (st, _) -> st
  | H.Complete _ -> Alcotest.fail "malformed input parsed"
  | H.Partial -> Alcotest.fail "malformed input left partial"

let test_rejects () =
  checki "garbage request line" 400 (reject_status "GARBAGE\r\n\r\n");
  checki "double-space request line" 400
    (reject_status "GET  /x HTTP/1.1\r\n\r\n");
  checki "unsupported version" 505 (reject_status "GET / HTTP/2.0\r\n\r\n");
  checki "request line too long" 414
    (reject_status ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n"));
  (* ... even before the newline arrives. *)
  checki "oversized line without newline" 414
    (reject_status (String.make 9000 'a'));
  let many_headers =
    "GET / HTTP/1.1\r\n"
    ^ String.concat ""
        (List.init 101 (fun i -> Printf.sprintf "h%d: v\r\n" i))
    ^ "\r\n"
  in
  checki "too many headers" 431 (reject_status many_headers);
  checki "oversized body" 413
    (reject_status
       (Printf.sprintf "POST / HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
          ((1 lsl 20) + 1)));
  checki "chunked rejected" 501
    (reject_status
       "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
  checki "malformed content-length" 400
    (reject_status "POST / HTTP/1.1\r\ncontent-length: abc\r\n\r\n");
  checki "multiple content-lengths" 400
    (reject_status
       "POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nx");
  checki "malformed header line" 400
    (reject_status "GET / HTTP/1.1\r\nnot a header\r\n\r\n");
  checki "malformed header name" 400
    (reject_status "GET / HTTP/1.1\r\nbad name: v\r\n\r\n")

let test_header_block_limit () =
  let limits = { H.default_limits with H.max_header_bytes = 256 } in
  match
    H.parse_request ~limits
      ("GET / HTTP/1.1\r\nbig: " ^ String.make 300 'x' ^ "\r\n\r\n")
  with
  | H.Reject (431, _) -> ()
  | _ -> Alcotest.fail "oversized header block not rejected with 431"

let parse_exn input =
  match H.parse_request input with
  | H.Complete (r, _) -> r
  | _ -> Alcotest.fail "expected a complete request"

let test_keep_alive () =
  checkb "1.1 defaults on" true
    (H.keep_alive (parse_exn "GET / HTTP/1.1\r\n\r\n"));
  checkb "1.1 close wins" false
    (H.keep_alive (parse_exn "GET / HTTP/1.1\r\nconnection: close\r\n\r\n"));
  checkb "1.0 defaults off" false
    (H.keep_alive (parse_exn "GET / HTTP/1.0\r\n\r\n"));
  checkb "1.0 keep-alive wins" true
    (H.keep_alive
       (parse_exn "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"))

let test_lenient_line_endings () =
  let r = parse_exn "\r\n\nGET /x HTTP/1.1\nhost: x\n\n" in
  checks "bare-LF request parses" "/x" r.H.path

(* ---------------- response serialization ---------------- *)

let test_response_roundtrip () =
  let resp = H.json_response ~status:202 (J.Obj [ ("ok", J.Bool true) ]) in
  let wire = H.response_to_string ~close:false resp in
  checkb "advertises keep-alive" true (contains wire "connection: keep-alive");
  (match H.parse_response wire with
  | H.Complete (r, consumed) ->
      checki "status" 202 r.H.status;
      checkb "body round-trips" true (contains r.H.resp_body "\"ok\":true");
      checki "consumed everything" (String.length wire) consumed
  | _ -> Alcotest.fail "serialized response did not parse");
  let wire_close = H.response_to_string ~close:true resp in
  checkb "advertises close" true (contains wire_close "connection: close")

let test_request_roundtrip () =
  let wire =
    H.request_to_string ~body:"{\"a\":1}" ~meth:"POST" ~target:"/v1/queries" ()
  in
  let r = parse_exn wire in
  checks "method" "POST" r.H.meth;
  checks "body" "{\"a\":1}" r.H.body

(* ---------------- end-to-end over sockets ---------------- *)

let host = "127.0.0.1"

let with_server ?(config = S.Server.default_config) handler f =
  let server = S.Server.start ~config ~handler () in
  Fun.protect ~finally:(fun () -> S.Server.stop server) (fun () -> f server)

let ok_handler _req = H.json_response ~status:200 (J.Obj [ ("ok", J.Bool true) ])

let test_e2e_get () =
  with_server ok_handler (fun server ->
      let port = S.Server.port server in
      match S.Client.get ~host ~port "/" with
      | Ok r ->
          checki "status" 200 r.H.status;
          checkb "body" true (contains r.H.resp_body "\"ok\":true")
      | Error m -> Alcotest.fail m)

let test_e2e_keep_alive () =
  with_server
    (fun req -> H.json_response ~status:200 (J.Obj [ ("path", J.String req.H.path) ]))
    (fun server ->
      let port = S.Server.port server in
      match S.Client.connect ~host ~port () with
      | Error m -> Alcotest.fail m
      | Ok conn ->
          List.iter
            (fun path ->
              match S.Client.request conn ~meth:"GET" ~target:path () with
              | Ok r -> checkb ("echoed " ^ path) true (contains r.H.resp_body path)
              | Error m -> Alcotest.fail m)
            [ "/one"; "/two"; "/three" ];
          S.Client.close conn)

let test_e2e_accept_edge_busy () =
  (* max_pending = 0 makes the accept edge refuse every connection inline:
     the deterministic way to observe the 429 path. *)
  with_server
    ~config:{ S.Server.default_config with S.Server.max_pending = 0 }
    ok_handler
    (fun server ->
      let port = S.Server.port server in
      (match S.Client.get ~host ~port "/" with
      | Ok r ->
          checki "accept-edge busy" 429 r.H.status;
          checkb "names the reason" true (contains r.H.resp_body "queueFull")
      | Error m -> Alcotest.fail m);
      let st = S.Server.stats server in
      checkb "counted as rejected_busy" true (st.S.Server.rejected_busy >= 1))

let test_e2e_request_deadline () =
  with_server
    ~config:{ S.Server.default_config with S.Server.request_timeout_s = 0.3 }
    ok_handler
    (fun server ->
      let port = S.Server.port server in
      match S.Client.connect ~host ~port () with
      | Error m -> Alcotest.fail m
      | Ok conn ->
          (match S.Client.send_raw conn "GET / HT" with
          | Ok () -> ()
          | Error m -> Alcotest.fail m);
          (match S.Client.read_response ~deadline_s:5.0 conn with
          | Ok r -> checki "slowloris answered 408" 408 r.H.status
          | Error m -> Alcotest.fail ("expected 408, got error: " ^ m));
          S.Client.close conn)

let test_e2e_concurrent_clients () =
  with_server ok_handler (fun server ->
      let port = S.Server.port server in
      let per_domain = 20 in
      let runner () =
        match S.Client.connect ~host ~port () with
        | Error _ -> 0
        | Ok conn ->
            let ok = ref 0 in
            for _ = 1 to per_domain do
              match S.Client.request conn ~meth:"GET" ~target:"/" () with
              | Ok r when r.H.status = 200 -> incr ok
              | _ -> ()
            done;
            S.Client.close conn;
            !ok
      in
      let domains = List.init 6 (fun _ -> Domain.spawn runner) in
      let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
      checki "every request answered" (6 * per_domain) total)

(* ---------------- the JSON API over sockets ---------------- *)

let with_api ?(epsilon = 100.0) ?(svc = service ~epsilon ())
    ?(api_config = S.Api.default_config) ?(server_config = S.Server.default_config)
    ?extra f =
  let api = S.Api.create ~config:api_config ?extra ~service:svc () in
  let server =
    S.Server.start ~config:server_config ~handler:(S.Api.handler api) ()
  in
  Fun.protect
    ~finally:(fun () ->
      S.Server.stop server;
      S.Api.join api)
    (fun () -> f svc api (S.Server.port server))

let submit_json s = S.Workload.submission_to_json s

let test_api_submit_and_poll () =
  with_api (fun svc api port ->
      (match S.Client.post_json ~host ~port ~json:(submit_json (sub ~epsilon:0.5 "top1")) "/v1/queries" with
      | Ok r ->
          checki "accepted" 202 r.H.status;
          checkb "index assigned" true (contains r.H.resp_body "\"index\":0")
      | Error m -> Alcotest.fail m);
      let drained () =
        match S.Client.get ~host ~port "/v1/queries/0" with
        | Ok r -> contains r.H.resp_body "\"status\":\"executed\""
        | Error _ -> false
      in
      checkb "poll reaches executed" true (wait_until drained);
      (match S.Client.get ~host ~port "/healthz" with
      | Ok r ->
          checki "healthy" 200 r.H.status;
          checkb "nothing pending" true (contains r.H.resp_body "\"pending\":0")
      | Error m -> Alcotest.fail m);
      (match S.Client.get ~host ~port "/v1/queries/7" with
      | Ok r -> checki "unknown index" 404 r.H.status
      | Error m -> Alcotest.fail m);
      (match S.Client.get ~host ~port "/nope" with
      | Ok r -> checki "unknown endpoint" 404 r.H.status
      | Error m -> Alcotest.fail m);
      (match S.Client.post ~host ~port ~body:"" "/healthz" with
      | Ok r -> checki "wrong method" 405 r.H.status
      | Error m -> Alcotest.fail m);
      (match S.Client.post ~host ~port ~body:"{not json" "/v1/queries" with
      | Ok r -> checki "malformed body" 400 r.H.status
      | Error m -> Alcotest.fail m);
      (match S.Client.post ~host ~port ~body:"" "/v1/stop" with
      | Ok r -> checkb "stop acknowledged" true (contains r.H.resp_body "true")
      | Error m -> Alcotest.fail m);
      checkb "stop requested" true (S.Api.stop_requested api);
      checkb "chain verifies" true (S.Service.chain_verifies svc))

let test_api_budget_429 () =
  with_api ~epsilon:0.3 (fun svc _api port ->
      let before = S.Service.budget_left svc in
      (match
         S.Client.post_json ~host ~port
           ~json:(submit_json (sub ~epsilon:0.5 "top1"))
           "/v1/queries"
       with
      | Ok r ->
          checki "over-budget refused" 429 r.H.status;
          checkb "names budget" true (contains r.H.resp_body "budget")
      | Error m -> Alcotest.fail m);
      checkb "429 left the budget untouched" true
        (B.equal before (S.Service.budget_left svc));
      checki "nothing was enqueued" 0 (S.Service.submitted svc);
      (match
         S.Client.post_json ~host ~port
           ~json:(submit_json (sub ~epsilon:0.1 "top1"))
           "/v1/queries"
       with
      | Ok r -> checki "affordable query accepted" 202 r.H.status
      | Error m -> Alcotest.fail m);
      checkb "affordable query executes" true
        (wait_until (fun () ->
             match S.Service.record svc 0 with
             | Some { S.Lifecycle.status = S.Lifecycle.Executed _; _ } -> true
             | _ -> false)))

let test_api_equivalence () =
  (* The determinism boundary: the same submissions produce byte-identical
     canonical lifecycle records whether they arrive over a socket or are
     run in-process — however the executor happened to batch them. *)
  let subs =
    [
      sub ~epsilon:0.5 "top1";
      sub ~epsilon:0.4 "median";
      sub ~epsilon:0.5 "top1";
      (* identical: must be a cache hit on both paths *)
    ]
  in
  let reference = service () in
  let ref_records =
    S.Service.run_workload reference
      {
        S.Workload.budget = None;
        devices = None;
        seed = None;
        epochs = None;
        submissions = subs;
      }
  in
  with_api (fun svc _api port ->
      List.iter
        (fun s ->
          match
            S.Client.post_json ~host ~port ~json:(submit_json s) "/v1/queries"
          with
          | Ok r -> checki "accepted" 202 r.H.status
          | Error m -> Alcotest.fail m)
        subs;
      checkb "all drained" true
        (wait_until (fun () ->
             S.Service.pending svc = 0
             && List.length (S.Service.history svc) = List.length subs));
      checks "byte-identical lifecycle records"
        (S.Lifecycle.records_to_string ref_records)
        (S.Lifecycle.records_to_string (S.Service.history svc));
      checkb "identical remaining budget" true
        (B.equal
           (S.Service.budget_left reference)
           (S.Service.budget_left svc));
      (* And the wire form agrees with a locally-serialized canonical list. *)
      match S.Client.get ~host ~port "/v1/records" with
      | Ok r ->
          checks "records endpoint serves the canonical form"
            (J.to_string
               (J.List
                  (List.map (S.Lifecycle.to_json ~timings:false) ref_records))
            ^ "\n")
            r.H.resp_body
      | Error m -> Alcotest.fail m)

let test_api_graceful_stop_drains () =
  with_api (fun svc api port ->
      List.iter
        (fun s ->
          match
            S.Client.post_json ~host ~port ~json:(submit_json s) "/v1/queries"
          with
          | Ok r -> checki "accepted" 202 r.H.status
          | Error m -> Alcotest.fail m)
        [ sub ~epsilon:0.5 "top1"; sub ~epsilon:0.4 "median" ];
      (* join = request_stop + final drain: every accepted submission must
         have a record afterwards even if the executor never woke yet. *)
      S.Api.join api;
      checki "every accepted submission drained" 2
        (List.length (S.Service.history svc));
      checkb "chain verifies" true (S.Service.chain_verifies svc))

(* PUT a body to /v1/calibration on its own connection. *)
let put_calibration ~port body =
  match S.Client.connect ~host ~port () with
  | Error m -> Alcotest.fail m
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> S.Client.close conn)
        (fun () ->
          match
            S.Client.request conn ~meth:"PUT" ~body ~target:"/v1/calibration"
              ()
          with
          | Ok r -> r
          | Error m -> Alcotest.fail m)

(* The default cost model with key generation 20% slower. *)
let mild_calibration () =
  let d = Arb_planner.Cost_model.default in
  Arb_planner.Calibration.make
    {
      d with
      Arb_planner.Cost_model.kg_coeff_time =
        d.Arb_planner.Cost_model.kg_coeff_time *. 1.2;
    }

let test_api_calibration_routes () =
  with_api (fun svc _api port ->
      let put = put_calibration ~port in
      let fp = S.Service.calibration_fingerprint svc in
      (* The health endpoint carries the active fingerprint. *)
      (match S.Client.get ~host ~port "/healthz" with
      | Ok r ->
          checki "healthy" 200 r.H.status;
          checkb "fingerprint in health" true (contains r.H.resp_body fp)
      | Error m -> Alcotest.fail m);
      (* GET returns the full calibration document. *)
      (match S.Client.get ~host ~port "/v1/calibration" with
      | Ok r ->
          checki "calibration served" 200 r.H.status;
          checkb "schema present" true
            (contains r.H.resp_body "arb-calibration/1");
          checkb "fingerprint present" true (contains r.H.resp_body fp)
      | Error m -> Alcotest.fail m);
      (* PUT a recalibration: the response reports the install. *)
      let d = Arb_planner.Cost_model.default in
      let mild = mild_calibration () in
      let r =
        put (J.to_string (Arb_planner.Calibration.to_json mild))
      in
      checki "install accepted" 200 r.H.status;
      checkb "install changed" true (contains r.H.resp_body "\"changed\":true");
      checkb "reply has exactly changed and installed" true
        (match J.of_string r.H.resp_body with
        | J.Obj fields ->
            List.sort compare (List.map fst fields) = [ "changed"; "installed" ]
        | _ -> false);
      checks "service fingerprint moved"
        mild.Arb_planner.Calibration.fingerprint
        (S.Service.calibration_fingerprint svc);
      (* Re-PUT of the same file is a no-op. *)
      let r2 =
        put (J.to_string (Arb_planner.Calibration.to_json mild))
      in
      checkb "re-install unchanged" true
        (contains r2.H.resp_body "\"changed\":false");
      (* Malformed and tampered bodies are 400 with the typed reason. *)
      let r3 = put "{not json" in
      checki "malformed body rejected" 400 r3.H.status;
      let r4 =
        put
          (J.to_string
             (J.Obj
                [
                  ("schema", J.String "arb-calibration/1");
                  ("version", J.Int 99);
                  ("fingerprint", J.String "beef");
                  ("constants", Arb_planner.Cost_model.to_json d);
                  ( "provenance",
                    match Arb_planner.Calibration.to_json mild with
                    | J.Obj fields -> List.assoc "provenance" fields
                    | _ -> J.Obj [] );
                ]))
      in
      checki "future version rejected" 400 r4.H.status;
      checkb "version named" true (contains r4.H.resp_body "99");
      (* Method mismatch. *)
      match S.Client.post ~host ~port ~body:"" "/v1/calibration" with
      | Ok r -> checki "POST not supported" 405 r.H.status
      | Error m -> Alcotest.fail m)

let test_api_continual_routes () =
  let svc = service () in
  let engine = Arb_continual.Engine.create ~service:svc () in
  (match
     Arb_continual.Engine.register engine
       {
         (sub ~epsilon:0.5 "top1") with
         every = Some 1;
         window =
           Some
             {
               S.Workload.w_epochs = 3;
               w_budget = B.create ~epsilon:2.0 ~delta:1e-5;
               w_compose = Some 3;
             };
       }
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  with_api ~svc ~extra:(Arb_continual.Routes.handler engine)
    (fun _svc _api port ->
      (* Recurring submissions are session-scoped: the one-shot endpoint
         rejects them with a pointer at /v1/sessions. *)
      (match
         S.Client.post_json ~host ~port
           ~json:(submit_json { (sub ~epsilon:0.5 "top1") with every = Some 1 })
           "/v1/queries"
       with
      | Ok r ->
          checki "recurring submit rejected" 400 r.H.status;
          checkb "points at sessions" true (contains r.H.resp_body "session")
      | Error m -> Alcotest.fail m);
      (* Drive an epoch by hand, then read the views back. *)
      (match S.Client.post ~host ~port ~body:"" "/v1/epoch" with
      | Ok r ->
          checki "manual epoch ticks" 200 r.H.status;
          checkb "tick returns records" true
            (contains r.H.resp_body "\"records\"")
      | Error m -> Alcotest.fail m);
      (match S.Client.get ~host ~port "/v1/sessions" with
      | Ok r ->
          checki "sessions index" 200 r.H.status;
          checkb "epoch advanced" true (contains r.H.resp_body "\"epoch\":1");
          checkb "session summarized" true
            (contains r.H.resp_body "\"name\":\"top1\"")
      | Error m -> Alcotest.fail m);
      (match S.Client.get ~host ~port "/v1/sessions/top1" with
      | Ok r ->
          checki "per-session detail" 200 r.H.status;
          checkb "epoch history present" true
            (contains r.H.resp_body "\"history\"")
      | Error m -> Alcotest.fail m);
      (match S.Client.get ~host ~port "/v1/sessions/nope" with
      | Ok r -> checki "unknown session" 404 r.H.status
      | Error m -> Alcotest.fail m);
      (match S.Client.post ~host ~port ~body:"" "/v1/sessions/top1" with
      | Ok r -> checki "wrong method on session" 405 r.H.status
      | Error m -> Alcotest.fail m);
      (* The live window is served with the session views; /v1/budget is
         the service's global balance alone. *)
      (match S.Client.get ~host ~port "/v1/sessions" with
      | Ok r ->
          checkb "live window exposed" true
            (contains r.H.resp_body "\"window\"")
      | Error m -> Alcotest.fail m);
      match S.Client.get ~host ~port "/v1/budget" with
      | Ok r ->
          checki "budget still served" 200 r.H.status;
          let j = J.of_string r.H.resp_body in
          checkb "exactly epsilon and delta" true
            (match j with
            | J.Obj fields ->
                List.sort compare (List.map fst fields) = [ "delta"; "epsilon" ]
            | _ -> false);
          checkb "the global balance" true
            (B.equal (B.of_json j) (S.Service.budget_left svc))
      | Error m -> Alcotest.fail m)

(* PUT /v1/calibration on a server with the continual engine mounted: the
   service's install is the one the sessions see, so the next due epoch
   re-plans once and the one after revalidates. *)
let test_api_calibration_reaches_sessions () =
  let svc = service () in
  let engine = Arb_continual.Engine.create ~service:svc () in
  (match
     Arb_continual.Engine.register engine
       { (sub ~epsilon:0.5 "top1") with every = Some 1 }
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  with_api ~svc ~extra:(Arb_continual.Routes.handler engine)
    (fun _svc _api port ->
      (* The session's planned label in one POST /v1/epoch. *)
      let tick () =
        match S.Client.post ~host ~port ~body:"" "/v1/epoch" with
        | Error m -> Alcotest.fail m
        | Ok r -> (
            checki "epoch tick" 200 r.H.status;
            let records = J.member "records" (J.of_string r.H.resp_body) in
            match J.to_list records with
            | [ record ] -> J.to_str (J.member "planned" record)
            | _ -> Alcotest.fail "one record per epoch expected")
      in
      checks "epoch 1 plans cold" "cold" (tick ());
      checks "epoch 2 revalidates" "revalidated" (tick ());
      let r =
        put_calibration ~port
          (J.to_string (Arb_planner.Calibration.to_json (mild_calibration ())))
      in
      checki "install accepted" 200 r.H.status;
      checkb "install changed" true (contains r.H.resp_body "\"changed\":true");
      checks "epoch 3 re-plans" "replanned" (tick ());
      checks "epoch 4 revalidates" "revalidated" (tick ()))

(* Recurring sessions ticked over POST /v1/epoch must leave the continual
   records, the timing-free lifecycle records and the budget of the same
   engine run in-process, whatever the server's worker count. *)
let test_api_multi_epoch_equivalence () =
  let module E = Arb_continual.Engine in
  let epochs = 4 in
  let run drive =
    let svc = service () in
    let engine = E.create ~service:svc () in
    List.iter
      (fun s ->
        match E.register engine s with
        | Ok _ -> ()
        | Error m -> Alcotest.fail m)
      [ { (sub ~epsilon:0.5 "top1") with
          every = Some 1;
          window =
            Some
              { S.Workload.w_epochs = 3;
                w_budget = B.create ~epsilon:2.0 ~delta:1e-4;
                w_compose = None } };
        { (sub ~epsilon:0.4 "median") with every = Some 2 } ];
    drive svc engine;
    ( String.concat "\n"
        (List.map
           (fun s -> E.records_string (List.rev s.E.history))
           (E.sessions engine)),
      S.Lifecycle.records_to_string ~timings:false (S.Service.history svc),
      S.Service.budget_left svc )
  in
  let cont, life, budget =
    run (fun _svc engine -> ignore (E.run_epochs ~workers:2 engine epochs))
  in
  List.iter
    (fun workers ->
      let cont', life', budget' =
        run (fun svc engine ->
            with_api ~svc
              ~server_config:{ S.Server.default_config with workers }
              ~extra:(Arb_continual.Routes.handler ~workers:2 engine)
              (fun _svc _api port ->
                for _ = 1 to epochs do
                  match S.Client.post ~host ~port ~body:"" "/v1/epoch" with
                  | Ok r -> checki "epoch tick" 200 r.H.status
                  | Error m -> Alcotest.fail m
                done))
      in
      let at what = Printf.sprintf "%s at %d server workers" what workers in
      checks (at "continual records") cont cont';
      checks (at "lifecycle records") life life';
      checkb (at "budget") true (B.equal budget budget'))
    [ 1; 2; 4 ]

(* All 520 connections are open before any of them sends, so the server
   holds every one at once; each must still be answered, and a read-only
   storm must not move the budget. *)
let test_api_fan_in () =
  let conns = 520 in
  with_api (fun svc _api port ->
      let before = S.Service.budget_left svc in
      let opened =
        List.init conns (fun _ ->
            match S.Client.connect ~timeout_s:30.0 ~host ~port () with
            | Ok c -> c
            | Error m -> Alcotest.fail m)
      in
      List.iter
        (fun c ->
          match
            S.Client.send_raw c "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
          with
          | Ok () -> ()
          | Error m -> Alcotest.fail m)
        opened;
      let answered =
        List.fold_left
          (fun n c ->
            let ok =
              match S.Client.read_response ~deadline_s:60.0 c with
              | Ok r -> r.H.status = 200
              | Error _ -> false
            in
            S.Client.close c;
            if ok then n + 1 else n)
          0 opened
      in
      checki "every connection answered 200" conns answered;
      checkb "budget unmoved" true (B.equal before (S.Service.budget_left svc)))

(* Eight concurrent submitters against a budget that affords two. Each
   202 holds its certified cost from the moment it is queued, and a drain
   settles a hold only when the balance already carries its charge, so
   exactly two submissions are accepted, the other six get a 429, the
   drain refuses none, and the spend is exactly the budget. *)
let test_api_concurrent_backpressure () =
  with_api ~epsilon:1.0 (fun svc _api port ->
      let statuses =
        List.init 8 (fun _ ->
            Domain.spawn (fun () ->
                match
                  S.Client.post_json ~host ~port
                    ~json:(submit_json (sub ~epsilon:0.5 "top1"))
                    "/v1/queries"
                with
                | Ok r -> r.H.status
                | Error _ -> 0))
        |> List.map Domain.join
      in
      let count st = List.length (List.filter (( = ) st) statuses) in
      checki "exactly two 202s" 2 (count 202);
      checki "six 429s" 6 (count 429);
      checkb "admitted submissions drained" true
        (wait_until ~tries:2400 (fun () ->
             S.Service.pending svc = 0
             && List.length (S.Service.history svc) = count 202));
      let executed, refused =
        List.fold_left
          (fun (e, r) rc ->
            match rc.S.Lifecycle.status with
            | S.Lifecycle.Executed _ -> (e + 1, r)
            | S.Lifecycle.Refused _ -> (e, r + 1)
            | _ -> (e, r))
          (0, 0) (S.Service.history svc)
      in
      checki "exactly two executed" 2 executed;
      checki "no drain-time refusal" 0 refused;
      checkb "epsilon spent exactly" true
        (Float.abs (S.Service.budget_left svc).B.epsilon <= 1e-9);
      checkb "chain verifies" true (S.Service.chain_verifies svc))

let () =
  Alcotest.run "http"
    [
      ( "parser",
        [
          Alcotest.test_case "valid GET" `Quick test_parse_get;
          Alcotest.test_case "pipelined requests" `Quick test_parse_pipelined;
          Alcotest.test_case "every prefix is partial" `Quick
            test_every_prefix_is_partial;
          Alcotest.test_case "malformed and oversized inputs rejected" `Quick
            test_rejects;
          Alcotest.test_case "header block limit" `Quick test_header_block_limit;
          Alcotest.test_case "keep-alive semantics" `Quick test_keep_alive;
          Alcotest.test_case "lenient line endings" `Quick
            test_lenient_line_endings;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "basic GET over a socket" `Quick test_e2e_get;
          Alcotest.test_case "keep-alive connection" `Quick test_e2e_keep_alive;
          Alcotest.test_case "accept-edge 429" `Quick test_e2e_accept_edge_busy;
          Alcotest.test_case "whole-request deadline (slowloris)" `Quick
            test_e2e_request_deadline;
          Alcotest.test_case "concurrent clients" `Quick
            test_e2e_concurrent_clients;
        ] );
      ( "api",
        [
          Alcotest.test_case "submit, poll to completion, stop" `Quick
            test_api_submit_and_poll;
          Alcotest.test_case "429 keeps the budget intact" `Quick
            test_api_budget_429;
          Alcotest.test_case "HTTP path == in-process path (byte-identical)"
            `Quick test_api_equivalence;
          Alcotest.test_case "graceful stop drains accepted work" `Quick
            test_api_graceful_stop_drains;
          Alcotest.test_case "continual session routes" `Quick
            test_api_continual_routes;
          Alcotest.test_case "calibration routes" `Quick
            test_api_calibration_routes;
          Alcotest.test_case "multi-epoch HTTP == in-process engine" `Quick
            test_api_multi_epoch_equivalence;
          Alcotest.test_case "520-connection fan-in" `Quick test_api_fan_in;
          Alcotest.test_case "concurrent backpressure" `Quick
            test_api_concurrent_backpressure;
          Alcotest.test_case "calibration install reaches sessions" `Quick
            test_api_calibration_reaches_sessions;
        ] );
    ]
