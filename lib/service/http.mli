(** From-scratch HTTP/1.1 message handling for the service front door.

    Pure string-in/string-out: an incremental request parser with hard
    limits (every malformed, oversized or partial input maps to either
    [Partial] — feed more bytes — or a [Reject] carrying the HTTP status
    the connection must fail closed with), plus response serialization and
    the client-side halves the tests, bench and CLI use to speak to a
    server. {!Server} owns all socket I/O. *)

type limits = {
  max_request_line : int;  (** longest accepted request line (414 beyond) *)
  max_header_count : int;  (** 431 beyond *)
  max_header_bytes : int;
      (** request line + header block together (431 beyond) *)
  max_body_bytes : int;  (** declared content-length cap (413 beyond) *)
}

val default_limits : limits
(** 8 KiB request line, 100 headers / 64 KiB header block, 1 MiB body. *)

type request = {
  meth : string;  (** verbatim token, e.g. ["GET"] *)
  target : string;  (** the request-target exactly as sent *)
  path : string;  (** percent-decoded, query stripped *)
  query : (string * string) list;  (** decoded query parameters, in order *)
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
  headers : (string * string) list;  (** names lowercased, wire order *)
  body : string;
}

type 'a outcome =
  | Complete of 'a * int  (** parsed value, bytes consumed from the buffer *)
  | Partial  (** a valid prefix; read more bytes and re-parse *)
  | Reject of int * string  (** HTTP status + reason; fail the connection *)

val parse_request : ?limits:limits -> string -> request outcome
(** Parse one request from the front of a receive buffer. Bare-LF line
    endings and leading empty lines are tolerated; [transfer-encoding] is
    rejected with 501 (the API never needs chunked bodies); a malformed
    request line or header is a 400, an unsupported version a 505. *)

val keep_alive : request -> bool
(** Connection persistence: HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
    close; an explicit [connection: close] / [keep-alive] header wins. *)

val strip_prefix : prefix:string -> string -> string option
(** The rest of a path after [prefix], when it is non-empty: routing for
    [/v1/queries/<index>] and [/v1/sessions/<name>]. *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:int ->
  string ->
  response

val json_response :
  ?headers:(string * string) list -> status:int -> Arb_util.Json.t -> response

val error_response :
  ?headers:(string * string) list -> ?reason:string -> int -> string -> response
(** [{"error": message, "reason": reason?}] as JSON. *)

val text_response :
  ?headers:(string * string) list -> status:int -> string -> response
(** [text/plain] (Prometheus exposition). *)

val response_to_string : ?close:bool -> response -> string
(** Serialize with [content-length] and a [connection] header reflecting
    [close]. *)

val request_to_string :
  ?headers:(string * string) list ->
  ?body:string ->
  meth:string ->
  target:string ->
  unit ->
  string

val parse_response : ?limits:limits -> string -> response outcome
(** Client-side: parse a response off a receive buffer. Responses without
    [content-length] are rejected (the server always sends one). *)
