(* The network front door: an HTTP/1.1 server over Unix sockets and OCaml
   domains. One accept domain feeds a bounded connection queue; a fixed
   pool of worker domains parses requests ({!Http}), dispatches the
   handler, and writes responses. The queue bound is the first layer of
   backpressure: over-capacity connections are answered 429 at the accept
   edge, before any work happens. Stop is graceful: the listener closes,
   queued and in-flight connections finish, then the domains are joined.

   Everything here is wall-clock by design — this is the one layer of the
   service allowed to be. The handler it wraps (Api over Service) stays on
   the deterministic core, so the same submissions yield byte-identical
   lifecycle records whether they arrive over a socket or from a workload
   file.

   Fault seams (chaos suite): when an injector is attached, Accept_drop
   loses a just-accepted connection and Response_truncate cuts a response
   write short — both must look to clients like the churn a real
   deployment sees, and must never corrupt service state. *)

module Fault = Arb_runtime.Fault
module M = Arb_obs.Metrics

let src = Logs.Src.create "arb.service.http" ~doc:"HTTP front door"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  host : string;
  port : int;  (* 0 picks an ephemeral port; see {!port} *)
  workers : int;
  max_pending : int;  (* accepted connections waiting for a worker *)
  request_timeout_s : float;  (* whole-request deadline (slowloris guard) *)
  faults : Fault.t option;
  metrics : M.t option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    max_pending = 1024;
    request_timeout_s = 10.0;
    faults = None;
    metrics = None;
  }

type stats = {
  accepted : int;
  served : int;
  rejected_busy : int;
  bad_requests : int;
  timeouts : int;
  client_disconnects : int;
  faults_injected : int;
}

type t = {
  config : config;
  handler : Http.request -> Http.response;
  lsock : Unix.file_descr;
  bound_port : int;
  stop_r : Unix.file_descr;  (* self-pipe: wakes the accept select *)
  stop_w : Unix.file_descr;
  lock : Mutex.t;
  work : Condition.t;
  queue : Unix.file_descr Queue.t;
  mutable stopping : bool;
  mutable st : stats;
  mutable domains : unit Domain.t list;
}

let zero_stats =
  {
    accepted = 0;
    served = 0;
    rejected_busy = 0;
    bad_requests = 0;
    timeouts = 0;
    client_disconnects = 0;
    faults_injected = 0;
  }

let port t = t.bound_port
let stats t = Mutex.protect t.lock (fun () -> t.st)

let bump t f = Mutex.protect t.lock (fun () -> t.st <- f t.st)

(* Fault.t mutates unsynchronized internal counters; consult it under the
   server lock so accept and worker domains never race on it. *)
let fault_fires t kind =
  match t.config.faults with
  | None -> false
  | Some inj ->
      Mutex.protect t.lock (fun () ->
          let hit = Fault.fires inj kind in
          if hit then t.st <- { t.st with faults_injected = t.st.faults_injected + 1 };
          hit)

let count t ?labels name help =
  match t.config.metrics with
  | None -> ()
  | Some reg -> M.add reg ?labels ~help name 1.0

let observe_bytes t name help v =
  match t.config.metrics with
  | None -> ()
  | Some reg ->
      M.observe_in reg ~help ~buckets:M.size_buckets name (float_of_int v)

(* ---------------- socket I/O helpers ---------------- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Write everything, tolerating partial writes; false when the peer is
   gone (EPIPE/ECONNRESET) or the send deadline passes. *)
let write_all fd s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let rec go off =
    if off >= n then true
    else
      match Unix.write fd b off (n - off) with
      | 0 -> false
      | written -> go (off + written)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) -> false
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> false
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

type read_result = Data of int | Eof | Timeout | Gone

let read_chunk fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> Eof
  | n -> Data n
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> Timeout
  | exception Unix.Unix_error (EINTR, _, _) -> Timeout
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> Gone

(* ---------------- connection handling ---------------- *)

(* What became of one request or connection. [record] makes it visible in
   [stats] and the metrics registry before the response that reveals it
   is written: a client that has read its response never reads counters
   that have not moved yet. *)
type conn_outcome =
  | Served  (* one request answered *)
  | Bad
  | Timed_out
  | Disconnected

let record t = function
  | Served -> bump t (fun s -> { s with served = s.served + 1 })
  | Bad ->
      bump t (fun s -> { s with bad_requests = s.bad_requests + 1 });
      count t "arb_http_bad_requests_total"
        "Connections failed closed on malformed input"
  | Timed_out ->
      bump t (fun s -> { s with timeouts = s.timeouts + 1 });
      count t "arb_http_timeouts_total"
        "Connections that blew the whole-request deadline"
  | Disconnected ->
      bump t (fun s -> { s with client_disconnects = s.client_disconnects + 1 });
      count t "arb_http_client_disconnects_total"
        "Connections dropped by the client mid-request"

let truncate_response resp =
  let s = Http.response_to_string ~close:true resp in
  String.sub s 0 (String.length s / 2)

let handle_conn t fd =
  (* The whole-request deadline is the slowloris guard: a client may be
     slow, but the bytes of one request must arrive within the window —
     per-read timeouts alone would let one-byte-at-a-time clients pin a
     worker forever. The deadline resets between keep-alive requests. *)
  let chunk = Bytes.create 8192 in
  let respond ?(close = false) resp =
    let truncated = fault_fires t Fault.Response_truncate in
    let wire =
      if truncated then truncate_response resp
      else Http.response_to_string ~close resp
    in
    count t
      ~labels:[ ("status", string_of_int resp.Http.status) ]
      "arb_http_responses_total" "HTTP responses by status";
    observe_bytes t "arb_http_response_bytes" "Response sizes on the wire"
      (String.length wire);
    let ok = write_all fd wire in
    (not truncated) && ok
  in
  let rec requests buf deadline =
    match Http.parse_request (Buffer.contents buf) with
    | Http.Reject (status, reason) ->
        record t Bad;
        ignore (respond ~close:true (Http.error_response status reason))
    | Http.Complete (req, consumed) ->
        observe_bytes t "arb_http_request_bytes"
          "Request sizes on the wire (line + headers + body)" consumed;
        let resp =
          match t.handler req with
          | resp -> resp
          | exception exn ->
              Log.err (fun f ->
                  f "handler raised on %s %s: %s" req.Http.meth req.Http.path
                    (Printexc.to_string exn));
              Http.error_response 500 "internal error"
        in
        record t Served;
        let keep = Http.keep_alive req && not t.stopping in
        if respond ~close:(not keep) resp && keep then begin
          (* Shift the leftover bytes down and start the next request
             with a fresh deadline. *)
          let rest = Buffer.contents buf in
          let rest =
            String.sub rest consumed (String.length rest - consumed)
          in
          Buffer.clear buf;
          Buffer.add_string buf rest;
          requests buf (Unix.gettimeofday () +. t.config.request_timeout_s)
        end
    | Http.Partial -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then begin
          (* An empty buffer is an idle keep-alive expiry, not an error. *)
          if Buffer.length buf > 0 then begin
            record t Timed_out;
            ignore
              (respond ~close:true (Http.error_response 408 "request timed out"))
          end
        end
        else begin
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.min remaining 1.0)
           with Unix.Unix_error _ -> ());
          match read_chunk fd chunk with
          | Data n ->
              Buffer.add_subbytes buf chunk 0 n;
              requests buf deadline
          | Timeout -> requests buf deadline (* deadline re-checked above *)
          | Eof | Gone -> if Buffer.length buf > 0 then record t Disconnected
        end)
  in
  (try
     requests (Buffer.create 1024)
       (Unix.gettimeofday () +. t.config.request_timeout_s)
   with exn ->
     Log.err (fun f -> f "connection handler raised: %s" (Printexc.to_string exn));
     record t Bad);
  close_quiet fd

(* ---------------- domains ---------------- *)

let worker_loop t =
  let rec loop () =
    let job =
      Mutex.protect t.lock (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.work t.lock
          done;
          if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
    in
    match job with
    | None -> () (* stopping, queue drained *)
    | Some fd ->
        handle_conn t fd;
        loop ()
  in
  loop ()

let busy_response =
  Http.response_to_string ~close:true
    (Http.response
       ~headers:[ ("retry-after", "1") ]
       ~status:429
       "{\"error\":\"server is at capacity, retry later\",\"reason\":\"queueFull\"}\n")

let accept_loop t =
  let rec loop () =
    let ready =
      try
        let r, _, _ = Unix.select [ t.lsock; t.stop_r ] [] [] (-1.0) in
        r
      with Unix.Unix_error (EINTR, _, _) -> []
    in
    if t.stopping || List.mem t.stop_r ready then ()
    else if not (List.mem t.lsock ready) then loop ()
    else
      match Unix.accept ~cloexec:true t.lsock with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
        ->
          loop ()
      | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> () (* closed under us: stopping *)
      | fd, _peer ->
          bump t (fun s -> { s with accepted = s.accepted + 1 });
          count t "arb_http_connections_total" "Accepted connections";
          if fault_fires t Fault.Accept_drop then begin
            (* The front door loses the connection before reading a byte —
               to the client this is indistinguishable from socket churn. *)
            close_quiet fd;
            loop ()
          end
          else begin
            let enqueued =
              Mutex.protect t.lock (fun () ->
                  if Queue.length t.queue >= t.config.max_pending then begin
                    t.st <- { t.st with rejected_busy = t.st.rejected_busy + 1 };
                    false
                  end
                  else begin
                    Queue.push fd t.queue;
                    Condition.signal t.work;
                    true
                  end)
            in
            if not enqueued then begin
              (* Backpressure at the socket edge: answer 429 inline and
                 close, without touching the service at all. *)
              count t
                ~labels:[ ("reason", "queue_full") ]
                "arb_http_rejected_total"
                "Connections refused at the accept edge";
              ignore (write_all fd busy_response);
              close_quiet fd
            end;
            (match t.config.metrics with
            | Some reg ->
                M.set_gauge reg ~help:"Connections waiting for a worker"
                  "arb_http_queue_depth"
                  (float_of_int
                     (Mutex.protect t.lock (fun () -> Queue.length t.queue)))
            | None -> ());
            loop ()
          end
  in
  loop ()

(* ---------------- lifecycle ---------------- *)

let start ?(config = default_config) ~handler () =
  (* Writes to sockets whose peer vanished must surface as EPIPE results,
     not process death. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try Unix.bind lsock addr
   with e ->
     close_quiet lsock;
     raise e);
  Unix.listen lsock 1024 (* the kernel's accept backlog *);
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      config;
      handler;
      lsock;
      bound_port;
      stop_r;
      stop_w;
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      st = zero_stats;
      domains = [];
    }
  in
  let workers =
    List.init (max 1 config.workers) (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  let acceptor = Domain.spawn (fun () -> accept_loop t) in
  t.domains <- acceptor :: workers;
  Log.info (fun f ->
      f "listening on %s:%d (%d workers, queue bound %d)" config.host bound_port
        (max 1 config.workers) config.max_pending);
  t

let stop t =
  let first =
    Mutex.protect t.lock (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          Condition.broadcast t.work;
          true
        end)
  in
  if first then begin
    (* Wake the accept select, then stop listening: already-accepted and
       queued connections still get served (drain-then-close). *)
    (try ignore (Unix.write t.stop_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    List.iter Domain.join t.domains;
    t.domains <- [];
    close_quiet t.lsock;
    close_quiet t.stop_r;
    close_quiet t.stop_w;
    Log.info (fun f ->
        let s = t.st in
        f "stopped: %d accepted, %d busy-rejected, %d bad, %d timeouts, %d \
           client disconnects"
          s.accepted s.rejected_busy s.bad_requests s.timeouts
          s.client_disconnects)
  end
