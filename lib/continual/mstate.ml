module J = Arb_util.Json

type kind = Winners | Sketch

(* Bounded so a long-lived session cannot grow without limit; compaction
   keeps every other sample of the sorted list, the classic deterministic
   eps-approximate quantile decimation. *)
let default_capacity = 512

type t = {
  kind : kind;
  epochs : int;
  counts : (string * int) list;  (* Winners: sorted by key *)
  samples : float list;  (* Sketch: sorted ascending *)
  capacity : int;
}

let create ?(capacity = default_capacity) kind =
  if capacity < 2 then invalid_arg "Mstate.create: capacity < 2";
  { kind; epochs = 0; counts = []; samples = []; capacity }

let kind_for (query : Arb_queries.Registry.query) =
  if query.Arb_queries.Registry.uses_em then Winners else Sketch

let kind_name = function Winners -> "winners" | Sketch -> "sketch"

(* The heavy-hitter key is the JSON encoding of the epoch's output list —
   reversible and unambiguous even when outputs contain separators. *)
let winners_key outputs = J.to_string (J.List (List.map (fun s -> J.String s) outputs))

let key_outputs key =
  match J.of_string key with
  | J.List l -> List.map J.to_str l
  | _ | (exception J.Parse_error _) -> [ key ]

let bump counts key =
  let rec go = function
    | [] -> [ (key, 1) ]
    | (k, n) :: rest when k = key -> (k, n + 1) :: rest
    | kv :: rest -> kv :: go rest
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (go counts)

let merge_samples capacity samples xs =
  Arb_util.Sketch.merge_bounded ~capacity samples xs

let update t ~outputs =
  match t.kind with
  | Winners -> { t with epochs = t.epochs + 1; counts = bump t.counts (winners_key outputs) }
  | Sketch ->
      let xs = List.filter_map float_of_string_opt outputs in
      { t with epochs = t.epochs + 1; samples = merge_samples t.capacity t.samples xs }

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then string_of_int (int_of_float v)
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let estimate t =
  match t.kind with
  | Winners -> (
      (* Modal output list; ties break toward the lexicographically
         smallest key, so the estimate never depends on insertion order. *)
      match
        List.fold_left
          (fun best (k, n) ->
            match best with
            | Some (_, bn) when bn >= n -> best
            | _ -> Some (k, n))
          None t.counts
      with
      | None -> None
      | Some (k, _) -> Some (key_outputs k))
  | Sketch -> (
      match t.samples with
      | [] -> None
      | samples ->
          let a = Array.of_list samples in
          Some [ float_repr a.((Array.length a - 1) / 2) ])

let to_json t =
  J.Obj
    [
      ("kind", J.String (kind_name t.kind));
      ("epochs", J.Int t.epochs);
      ("capacity", J.Int t.capacity);
      ( "counts",
        J.List
          (List.map
             (fun (k, n) -> J.Obj [ ("key", J.String k); ("n", J.Int n) ])
             t.counts) );
      ("samples", J.List (List.map (fun s -> J.Float s) t.samples));
    ]
