(* From-scratch HTTP/1.1 message handling: an incremental request parser
   with hard limits (the front door's first line of defense against
   malformed and abusive clients), and response/request serialization.
   Pure string-in/string-out — no sockets here, so every branch is unit
   testable; Server owns the I/O. *)

module J = Arb_util.Json

type limits = {
  max_request_line : int;
  max_header_count : int;
  max_header_bytes : int;  (* request line + all header lines together *)
  max_body_bytes : int;
}

let default_limits =
  {
    max_request_line = 8192;
    max_header_count = 100;
    max_header_bytes = 65536;
    max_body_bytes = 1 lsl 20;
  }

type request = {
  meth : string;
  target : string;  (* the request-target exactly as sent *)
  path : string;  (* percent-decoded, query stripped *)
  query : (string * string) list;
  version : string;
  headers : (string * string) list;  (* names lowercased, in wire order *)
  body : string;
}

type 'a outcome =
  | Complete of 'a * int  (* parsed value, bytes consumed *)
  | Partial  (* valid so far; need more bytes *)
  | Reject of int * string  (* HTTP status, reason — fail closed *)

(* ---------------- small lexical helpers ---------------- *)

let is_tchar c =
  (* RFC 9110 token characters. *)
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_'
  | '`' | '|' | '~' ->
      true
  | _ -> false

let is_token s = s <> "" && String.for_all is_tchar s

let trim_ows s =
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  while !j > !i && (s.[!j - 1] = ' ' || s.[!j - 1] = '\t') do decr j done;
  String.sub s !i (!j - !i)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let pct_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Buffer.contents b
    else
      match s.[i] with
      | '%' when i + 2 < n -> (
          match (hex_val s.[i + 1], hex_val s.[i + 2]) with
          | Some h, Some l ->
              Buffer.add_char b (Char.chr ((h * 16) + l));
              go (i + 3)
          | _ ->
              Buffer.add_char b '%';
              go (i + 1))
      | '+' ->
          Buffer.add_char b ' ';
          go (i + 1)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0

let split_target target =
  let raw_path, raw_query =
    match String.index_opt target '?' with
    | None -> (target, "")
    | Some i ->
        ( String.sub target 0 i,
          String.sub target (i + 1) (String.length target - i - 1) )
  in
  let query =
    if raw_query = "" then []
    else
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | None -> (pct_decode kv, "")
          | Some i ->
              ( pct_decode (String.sub kv 0 i),
                pct_decode (String.sub kv (i + 1) (String.length kv - i - 1)) ))
        (String.split_on_char '&' raw_query)
  in
  (pct_decode raw_path, query)

(* A line ends at '\n'; a trailing '\r' is stripped (we tolerate bare-LF
   clients, as real front doors do). Returns (line, next position). *)
let next_line s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some nl ->
      let stop = if nl > pos && s.[nl - 1] = '\r' then nl - 1 else nl in
      Some (String.sub s pos (stop - pos), nl + 1)

let header_value headers name = List.assoc_opt name headers

let all_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* ---------------- request parsing ---------------- *)

let parse_request ?(limits = default_limits) s =
  let len = String.length s in
  (* RFC 9112 §2.2: tolerate CRLFs ahead of the request line. *)
  let start =
    let rec skip i =
      if i < len && (s.[i] = '\r' || s.[i] = '\n') then skip (i + 1) else i
    in
    skip 0
  in
  match next_line s start with
  | None ->
      if len - start > limits.max_request_line then
        Reject (414, "request line too long")
      else Partial
  | Some (line, pos) -> (
      if String.length line > limits.max_request_line then
        Reject (414, "request line too long")
      else
        match String.split_on_char ' ' line with
        | [ meth; target; version ] when is_token meth && target <> "" -> (
            if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
              Reject (505, "unsupported protocol version " ^ version)
            else
              (* Header block: stop at the first empty line. *)
              let rec headers acc count pos =
                if pos - start > limits.max_header_bytes then
                  Reject (431, "header block too large")
                else
                  match next_line s pos with
                  | None ->
                      if len - start > limits.max_header_bytes then
                        Reject (431, "header block too large")
                      else Partial
                  | Some ("", pos') -> Complete (List.rev acc, pos')
                  | Some (h, pos') -> (
                      if count + 1 > limits.max_header_count then
                        Reject (431, "too many headers")
                      else
                        match String.index_opt h ':' with
                        | None -> Reject (400, "malformed header line")
                        | Some i ->
                            let name = String.sub h 0 i in
                            if not (is_token name) then
                              Reject (400, "malformed header name")
                            else
                              let value =
                                trim_ows
                                  (String.sub h (i + 1)
                                     (String.length h - i - 1))
                              in
                              headers
                                ((String.lowercase_ascii name, value) :: acc)
                                (count + 1) pos')
              in
              match headers [] 0 pos with
              | Partial -> Partial
              | Reject (st, m) -> Reject (st, m)
              | Complete (headers, body_start) -> (
                  if header_value headers "transfer-encoding" <> None then
                    Reject (501, "transfer-encoding is not supported")
                  else
                    match
                      List.filter
                        (fun (n, _) -> String.equal n "content-length")
                        headers
                    with
                    | _ :: _ :: _ ->
                        Reject (400, "multiple content-length headers")
                    | rest -> (
                        let clen =
                          match rest with
                          | [] -> Ok 0
                          | [ (_, v) ] ->
                              if all_digits v && String.length v <= 15 then
                                Ok (int_of_string v)
                              else Error ()
                          | _ -> assert false
                        in
                        match clen with
                        | Error () -> Reject (400, "malformed content-length")
                        | Ok clen ->
                            if clen > limits.max_body_bytes then
                              Reject (413, "request body too large")
                            else if len - body_start < clen then Partial
                            else
                              let body = String.sub s body_start clen in
                              let path, query = split_target target in
                              Complete
                                ( {
                                    meth;
                                    target;
                                    path;
                                    query;
                                    version;
                                    headers;
                                    body;
                                  },
                                  body_start + clen ))))
        | _ -> Reject (400, "malformed request line"))

let keep_alive (r : request) =
  match Option.map String.lowercase_ascii (header_value r.headers "connection") with
  | Some v when String.equal v "close" -> false
  | Some v when String.equal v "keep-alive" -> true
  | _ -> String.equal r.version "HTTP/1.1"

let strip_prefix ~prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

(* ---------------- responses ---------------- *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let reason_phrase = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 414 -> "URI Too Long"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Status"

let response ?(headers = []) ?(content_type = "application/json") ~status body =
  {
    status;
    reason = reason_phrase status;
    resp_headers = ("content-type", content_type) :: headers;
    resp_body = body;
  }

let json_response ?headers ~status json =
  response ?headers ~status (J.to_string json ^ "\n")

let error_response ?headers ?(reason = "") status message =
  json_response ?headers ~status
    (J.Obj
       (("error", J.String message)
       :: (if reason = "" then [] else [ ("reason", J.String reason) ])))

let text_response ?headers ~status body =
  response ?headers ~content_type:"text/plain; version=0.0.4" ~status body

let response_to_string ?(close = false) r =
  let b = Buffer.create (String.length r.resp_body + 256) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status r.reason);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    r.resp_headers;
  Buffer.add_string b
    (Printf.sprintf "content-length: %d\r\n" (String.length r.resp_body));
  Buffer.add_string b
    (if close then "connection: close\r\n" else "connection: keep-alive\r\n");
  Buffer.add_string b "\r\n";
  Buffer.add_string b r.resp_body;
  Buffer.contents b

(* ---------------- client-side serialization (tests, bench, CLI) ------- *)

let request_to_string ?(headers = []) ?(body = "") ~meth ~target () =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  if body <> "" || meth = "POST" || meth = "PUT" then
    Buffer.add_string b
      (Printf.sprintf "content-length: %d\r\n" (String.length body));
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

let parse_response ?(limits = default_limits) s =
  match next_line s 0 with
  | None ->
      if String.length s > limits.max_request_line then
        Reject (0, "status line too long")
      else Partial
  | Some (line, pos) -> (
      let status =
        match String.split_on_char ' ' line with
        | version :: code :: _
          when String.length version >= 5
               && String.sub version 0 5 = "HTTP/" && all_digits code ->
            Some (int_of_string code)
        | _ -> None
      in
      match status with
      | None -> Reject (0, "malformed status line")
      | Some status -> (
          let rec headers acc pos =
            match next_line s pos with
            | None -> Partial
            | Some ("", pos') -> Complete (List.rev acc, pos')
            | Some (h, pos') -> (
                match String.index_opt h ':' with
                | None -> Reject (0, "malformed header line")
                | Some i ->
                    headers
                      (( String.lowercase_ascii (String.sub h 0 i),
                         trim_ows
                           (String.sub h (i + 1) (String.length h - i - 1)) )
                      :: acc)
                      pos')
          in
          match headers [] pos with
          | Partial -> Partial
          | Reject (st, m) -> Reject (st, m)
          | Complete (headers, body_start) -> (
              match header_value headers "content-length" with
              | Some v when all_digits v ->
                  let clen = int_of_string v in
                  if String.length s - body_start < clen then Partial
                  else
                    Complete
                      ( {
                          status;
                          reason = reason_phrase status;
                          resp_headers = headers;
                          resp_body = String.sub s body_start clen;
                        },
                        body_start + clen )
              | _ -> Reject (0, "response without content-length"))))
