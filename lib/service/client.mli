(** A minimal blocking HTTP/1.1 client for tests, the chaos suite, the
    repository benchmark ([perfbench/]) and the CLI. Keep-alive aware;
    every read is bounded by a deadline so a wedged peer surfaces as
    [Error], never a hang. *)

type conn

val connect :
  ?timeout_s:float -> host:string -> port:int -> unit -> (conn, string) result

val close : conn -> unit

val request :
  ?timeout_s:float ->
  ?headers:(string * string) list ->
  ?body:string ->
  conn ->
  meth:string ->
  target:string ->
  unit ->
  (Http.response, string) result
(** One exchange on a persistent connection. *)

val send_raw : conn -> string -> (unit, string) result
(** Write raw bytes (malformed-input and partial-request chaos tests). *)

val read_response : ?deadline_s:float -> conn -> (Http.response, string) result

val get :
  ?timeout_s:float -> host:string -> port:int -> string -> (Http.response, string) result

val post :
  ?timeout_s:float ->
  host:string ->
  port:int ->
  body:string ->
  string ->
  (Http.response, string) result

val post_json :
  ?timeout_s:float ->
  host:string ->
  port:int ->
  json:Arb_util.Json.t ->
  string ->
  (Http.response, string) result
