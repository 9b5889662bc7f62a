(* Continual endpoints, mounted through {!Arb_service.Api}'s [?extra]
   hook so the service API needs no dependency on this library. *)

module S = Arb_service
module J = Arb_util.Json

let sessions_index engine =
  S.Http.json_response ~status:200 (Engine.to_json engine)

let session_detail engine name =
  match Engine.session engine name with
  | Some v -> S.Http.json_response ~status:200 (Engine.session_json v)
  | None ->
      S.Http.error_response 404 (Printf.sprintf "no session named %S" name)

let tick ?tracer ?workers engine =
  let records = Engine.tick ?tracer ?workers engine in
  S.Http.json_response ~status:200
    (J.Obj
       [
         ("epoch", J.Int (Engine.epoch engine));
         ("records", J.List (List.map Engine.record_json records));
       ])

let handler ?tracer ?(workers = 1) engine (req : S.Http.request) =
  match (req.S.Http.meth, req.S.Http.path) with
  | "GET", "/v1/sessions" -> Some (sessions_index engine)
  | "POST", "/v1/epoch" -> Some (tick ?tracer ~workers engine)
  | meth, path -> (
      match S.Http.strip_prefix ~prefix:"/v1/sessions/" path with
      | None -> None
      | Some name ->
          if meth = "GET" then Some (session_detail engine name)
          else
            Some
              (S.Http.error_response 405
                 (Printf.sprintf "%s does not support %s" path meth)))
