(* A minimal blocking HTTP/1.1 client over Unix sockets: just enough for
   the tests, the chaos suite, the repository benchmark and the CLI to
   talk to {!Server}. Keep-alive aware (one [conn] can carry many requests);
   every read is bounded by a deadline so a wedged server surfaces as
   [Error] rather than a hang. *)

type conn = {
  fd : Unix.file_descr;
  mutable leftover : string;  (* bytes past the previous response *)
}

let connect ?(timeout_s = 10.0) ~host ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () ->
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
       with Unix.Unix_error _ -> ());
      Ok { fd; leftover = "" }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_raw c s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write c.fd b off (n - off) with
      | 0 -> Error "short write"
      | w -> go (off + w)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
          Error ("write: " ^ Unix.error_message e)
  in
  go 0

let read_response ?(deadline_s = 10.0) c =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let chunk = Bytes.create 8192 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf c.leftover;
  c.leftover <- "";
  let rec go () =
    match Http.parse_response (Buffer.contents buf) with
    | Http.Complete (resp, consumed) ->
        let all = Buffer.contents buf in
        c.leftover <- String.sub all consumed (String.length all - consumed);
        Ok resp
    | Http.Reject (_, m) -> Error ("malformed response: " ^ m)
    | Http.Partial -> (
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then Error "response timed out"
        else begin
          (try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO (Float.min remaining 1.0)
           with Unix.Unix_error _ -> ());
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 ->
              if Buffer.length buf = 0 then Error "connection closed"
              else Error "connection closed mid-response"
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
              go ()
          | exception Unix.Unix_error (e, _, _) ->
              Error ("read: " ^ Unix.error_message e)
        end)
  in
  go ()

let request ?(timeout_s = 10.0) ?headers ?body c ~meth ~target () =
  match send_raw c (Http.request_to_string ?headers ?body ~meth ~target ()) with
  | Error _ as e -> e
  | Ok () -> read_response ~deadline_s:timeout_s c

(* One-shot conveniences: fresh connection, single exchange, close. *)

let one_shot ?timeout_s ?headers ?body ~host ~port ~meth ~target () =
  match connect ?timeout_s ~host ~port () with
  | Error _ as e -> e
  | Ok c ->
      let r = request ?timeout_s ?headers ?body c ~meth ~target () in
      close c;
      r

let get ?timeout_s ~host ~port target =
  one_shot ?timeout_s ~host ~port ~meth:"GET" ~target ()

let post ?timeout_s ~host ~port ~body target =
  one_shot ?timeout_s ~body ~host ~port ~meth:"POST" ~target ()

let post_json ?timeout_s ~host ~port ~json target =
  post ?timeout_s ~host ~port ~body:(Arb_util.Json.to_string json) target
