module P = Arb_planner
module J = Arb_util.Json

let src = Logs.Src.create "arb.service.cache" ~doc:"Plan cache"

module Log = (val Logs.src_log src : Logs.LOG)

type key = string

type entry = { plan : P.Plan.t; metrics : P.Cost_model.metrics; cols : int }

type t = {
  table : (key, entry) Hashtbl.t;
  lock : Mutex.t;
  dir : string option;
  mutable revived : int;
}

let is_tmp_file name =
  String.length name > 4 && String.sub name (String.length name - 4) 4 = ".tmp"

let create ?dir () =
  (match dir with
  | Some d ->
      P.Plan_io.mkdir_p d;
      (* Sweep tmp files stranded by writers that crashed mid-save. A
         concurrently *live* writer can lose its tmp file here too; its
         rename then fails and is logged as a non-persisted entry — the
         entry stays served from memory and is rewritten on the next
         add, so the sweep is safe, just noisy in that unlikely race. *)
      Array.iter
        (fun f ->
          if is_tmp_file f then
            try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        (try Sys.readdir d with Sys_error _ -> [||])
  | None -> ());
  { table = Hashtbl.create 64; lock = Mutex.create (); dir; revived = 0 }

(* ---------------- canonical key ---------------- *)

let float_repr f = Printf.sprintf "%.17g" f

let row_repr = function
  | Arb_lang.Ast.One_hot k -> Printf.sprintf "oneHot:%d" k
  | Arb_lang.Ast.Bounded { width; lo; hi } ->
      Printf.sprintf "bounded:%d:%d:%d" width lo hi

let key ~model ~goal ~(query : Arb_queries.Registry.query) ~n () =
  (* The program's canonical pretty-printed form — not the registry name —
     identifies the query, together with every other search input. The
     leading tag versions the canonicalization itself (v4: the search
     always runs at [no_limits], so the limits left the key and the
     tolerance is hashed once, as the query declares it). *)
  let canonical =
    String.concat "\n"
      [
        "arb-plan-cache-key-v4";
        model;
        Arb_lang.Pretty.stmt query.Arb_queries.Registry.program.Arb_lang.Ast.body;
        row_repr query.Arb_queries.Registry.program.Arb_lang.Ast.row;
        float_repr query.Arb_queries.Registry.program.Arb_lang.Ast.epsilon;
        string_of_int n;
        string_of_int query.Arb_queries.Registry.categories;
        (match query.Arb_queries.Registry.error_tolerance with
        | None -> "-"
        | Some tol -> float_repr tol);
        P.Constraints.goal_name goal;
      ]
  in
  Arb_crypto.Sha256.to_hex (Arb_crypto.Sha256.digest canonical)

(* ---------------- disk persistence ---------------- *)

let path_of dir k = Filename.concat dir (k ^ ".json")

let load_from_disk dir k =
  let path = path_of dir k in
  if not (Sys.file_exists path) then None
  else
    match
      Result.bind (P.Plan_io.load_versioned path) (fun json ->
          match
            ( J.to_str (J.member "key" json),
              P.Plan_io.plan_of_json (J.member "plan" json),
              P.Plan_io.metrics_of_json (J.member "metrics" json),
              J.to_int (J.member "cols" json) )
          with
          | k', plan, metrics, cols ->
              if String.equal k' k then Ok { plan; metrics; cols }
              else Error (path ^ ": key field does not match file name")
          | exception J.Parse_error m -> Error (path ^ ": " ^ m))
    with
    | Ok entry -> Some entry
    | Error m ->
        Log.warn (fun f -> f "ignoring cache file: %s" m);
        None

(* Tmp names carry the writer's pid and a per-process sequence number so
   two writers of the same key never clobber each other's half-written
   file; the final rename is atomic, so readers only ever see complete
   entries (last writer wins — both wrote the same plan for the key). *)
let tmp_seq = Atomic.make 0

let write_to_disk dir k ~query_name entry =
  let path = path_of dir k in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  (try
     P.Plan_io.save_versioned tmp
       [
         ("key", J.String k);
         ("query", J.String query_name);
         ("plan", P.Plan_io.plan_to_json entry.plan);
         ("metrics", P.Plan_io.metrics_to_json entry.metrics);
         ("cols", J.Int entry.cols);
       ]
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* ---------------- lookup / insert ---------------- *)

let find t k =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some _ as hit -> hit
      | None -> (
          match t.dir with
          | None -> None
          | Some dir -> (
              match load_from_disk dir k with
              | Some entry ->
                  Hashtbl.replace t.table k entry;
                  t.revived <- t.revived + 1;
                  Some entry
              | None -> None)))

let add t k ~query_name entry =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.table k entry;
      match t.dir with
      | None -> ()
      | Some dir -> (
          try write_to_disk dir k ~query_name entry
          with Sys_error m ->
            Log.warn (fun f -> f "could not persist cache entry %s: %s" k m)))

let mem t k = find t k <> None
let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let revived t = Mutex.protect t.lock (fun () -> t.revived)
