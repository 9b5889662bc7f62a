(* A small Prometheus-flavored metrics registry.

   Counters, gauges, and fixed-bucket histograms, registered by
   (name, sorted labels). All mutation goes through the registry mutex so
   instruments can be bumped from planner/service worker domains; exposition
   sorts by (name, labels), which makes both the text and JSON forms
   canonical: two registries holding the same values serialize to identical
   bytes. *)

module J = Arb_util.Json

type hist = {
  h_bounds : float array;  (* strictly increasing upper bounds *)
  h_counts : int array;  (* length = bounds + 1; last is the +Inf bucket *)
  mutable h_sum : float;
  mutable h_count : int;
}

type instrument = I_counter of float ref | I_gauge of float ref | I_hist of hist

type entry = { e_help : string; e_inst : instrument }

type t = {
  lock : Mutex.t;
  tbl : (string * (string * string) list, entry) Hashtbl.t;
}

type counter = { c_cell : float ref; c_lock : Mutex.t }
type gauge = { g_cell : float ref; g_lock : Mutex.t }
type histogram = { o_hist : hist; o_lock : Mutex.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 32 }

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_hist _ -> "histogram"

let register t ~help ~labels name make =
  let key = (name, canon_labels labels) in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e -> e.e_inst
      | None ->
          let inst = make () in
          (* A name must keep one kind across all label sets: Prometheus
             exposition declares TYPE once per family. *)
          Hashtbl.iter
            (fun (n, _) e ->
              if n = name && kind_name e.e_inst <> kind_name (inst) then
                invalid_arg
                  (Printf.sprintf "Metrics: %s already registered as a %s" name
                     (kind_name e.e_inst)))
            t.tbl;
          Hashtbl.replace t.tbl key { e_help = help; e_inst = inst };
          inst)

let counter t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name (fun () -> I_counter (ref 0.0)) with
  | I_counter c -> { c_cell = c; c_lock = t.lock }
  | i -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a counter" name (kind_name i))

let gauge t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name (fun () -> I_gauge (ref 0.0)) with
  | I_gauge g -> { g_cell = g; g_lock = t.lock }
  | i -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a gauge" name (kind_name i))

let histogram t ?(help = "") ?(labels = []) ~buckets name =
  let bounds = Array.of_list buckets in
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: needs at least one bucket bound";
  Array.iter
    (fun b ->
      if not (Float.is_finite b) then
        invalid_arg "Metrics.histogram: bucket bounds must be finite")
    bounds;
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
  done;
  let make () =
    I_hist
      {
        h_bounds = bounds;
        h_counts = Array.make (Array.length bounds + 1) 0;
        h_sum = 0.0;
        h_count = 0;
      }
  in
  match register t ~help ~labels name make with
  | I_hist h ->
      if h.h_bounds <> bounds then
        invalid_arg
          (Printf.sprintf "Metrics: %s re-registered with different buckets" name);
      { o_hist = h; o_lock = t.lock }
  | i -> invalid_arg (Printf.sprintf "Metrics: %s is a %s, not a histogram" name (kind_name i))

let inc ?(by = 1.0) c =
  if (not (Float.is_finite by)) || by < 0.0 then
    invalid_arg "Metrics.inc: counters only move forward by finite amounts";
  Mutex.protect c.c_lock (fun () -> c.c_cell := !(c.c_cell) +. by)

let set g v =
  if not (Float.is_finite v) then invalid_arg "Metrics.set: non-finite gauge value";
  Mutex.protect g.g_lock (fun () -> g.g_cell := v)

let observe o v =
  if not (Float.is_finite v) then
    invalid_arg "Metrics.observe: non-finite observation";
  Mutex.protect o.o_lock (fun () ->
      let h = o.o_hist in
      let n = Array.length h.h_bounds in
      (* First bucket whose upper bound covers v; values above every bound
         (overflow) land in the trailing +Inf bucket, values below the first
         bound (underflow) in the first. *)
      let rec idx i = if i >= n then n else if v <= h.h_bounds.(i) then i else idx (i + 1) in
      let i = idx 0 in
      h.h_counts.(i) <- h.h_counts.(i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

(* One-shot forms for end-of-run publishing, where keeping a handle around
   would just be noise. *)
let add t ?help ?labels name v = inc ~by:v (counter t ?help ?labels name)
let set_gauge t ?help ?labels name v = set (gauge t ?help ?labels name) v

let observe_in t ?help ?labels ~buckets name v =
  observe (histogram t ?help ?labels ~buckets name) v

let latency_buckets =
  [ 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 ]

let size_buckets =
  [ 64.0; 256.0; 1024.0; 4096.0; 16384.0; 65536.0; 262144.0; 1048576.0 ]

(* --- exposition --- *)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    string_of_int (int_of_float v)
  else
    (* Shortest decimal that round-trips: bucket bounds render as "0.005",
       not "0.0050000000000000001". *)
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

let sorted_entries t =
  Mutex.protect t.lock (fun () ->
      let items =
        Hashtbl.fold (fun (name, labels) e acc -> ((name, labels), e) :: acc) t.tbl []
      in
      List.sort (fun ((n1, l1), _) ((n2, l2), _) -> compare (n1, l1) (n2, l2)) items)

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let last_family = ref "" in
  List.iter
    (fun ((name, labels), e) ->
      if name <> !last_family then begin
        last_family := name;
        if e.e_help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name e.e_help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" name (kind_name e.e_inst))
      end;
      match e.e_inst with
      | I_counter c | I_gauge c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (render_labels labels) (fmt_float !c))
      | I_hist h ->
          let cumulative = ref 0 in
          Array.iteri
            (fun i n ->
              cumulative := !cumulative + n;
              let le =
                if i = Array.length h.h_bounds then "+Inf"
                else fmt_float h.h_bounds.(i)
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (render_labels (labels @ [ ("le", le) ]))
                   !cumulative))
            h.h_counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
               (fmt_float h.h_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) h.h_count))
    (sorted_entries t);
  Buffer.contents buf

let to_json t =
  J.List
    (List.map
       (fun ((name, labels), e) ->
         let base =
           [
             ("name", J.String name);
             ("type", J.String (kind_name e.e_inst));
             ("labels", J.Obj (List.map (fun (k, v) -> (k, J.String v)) labels));
           ]
         in
         match e.e_inst with
         | I_counter c | I_gauge c -> J.Obj (base @ [ ("value", J.Float !c) ])
         | I_hist h ->
             let cumulative = ref 0 in
             let buckets =
               Array.to_list
                 (Array.mapi
                    (fun i n ->
                      cumulative := !cumulative + n;
                      let le =
                        if i = Array.length h.h_bounds then "+Inf"
                        else fmt_float h.h_bounds.(i)
                      in
                      J.Obj [ ("le", J.String le); ("count", J.Int !cumulative) ])
                    h.h_counts)
             in
             J.Obj
               (base
               @ [
                   ("buckets", J.List buckets);
                   ("sum", J.Float h.h_sum);
                   ("count", J.Int h.h_count);
                 ]))
       (sorted_entries t))

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_prometheus t))

(* --- quantiles --- *)

(* Prometheus-style bucket interpolation. The q-quantile's target rank is
   located in the cumulative bucket counts, then interpolated linearly
   inside the covering bucket. Ranks landing in the +Inf overflow bucket
   clamp to the highest finite bound (there is no upper edge to
   interpolate toward); an all-underflow histogram interpolates inside
   [0, first bound] like Prometheus does. *)
let quantile_of_hist h q =
  if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    invalid_arg "Metrics.histogram_quantile: q must be in [0, 1]";
  if h.h_count = 0 then None
  else begin
    let rank = Float.max 1.0 (q *. float_of_int h.h_count) in
    let n = Array.length h.h_bounds in
    let rec locate i cum_below =
      if i >= n then `Overflow
      else
        let cum = cum_below + h.h_counts.(i) in
        if float_of_int cum >= rank then `Bucket (i, cum_below) else locate (i + 1) cum
    in
    match locate 0 0 with
    | `Overflow -> Some h.h_bounds.(n - 1)
    | `Bucket (i, cum_below) ->
        let lower =
          if i = 0 then if h.h_bounds.(0) > 0.0 then 0.0 else h.h_bounds.(0)
          else h.h_bounds.(i - 1)
        in
        let upper = h.h_bounds.(i) in
        let in_bucket = float_of_int h.h_counts.(i) in
        let frac = (rank -. float_of_int cum_below) /. in_bucket in
        Some (lower +. ((upper -. lower) *. frac))
  end

let histogram_quantile t ?(labels = []) name q =
  let key = (name, canon_labels labels) in
  match
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some { e_inst = I_hist h; _ } ->
            (* Copy under the lock so interpolation reads a consistent view. *)
            Some { h with h_counts = Array.copy h.h_counts }
        | _ -> None)
  with
  | None -> None
  | Some h -> quantile_of_hist h q

(* --- point reads --- *)

let value_at t ?(labels = []) name =
  let key = (name, canon_labels labels) in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some { e_inst = I_counter c; _ } | Some { e_inst = I_gauge c; _ } ->
          Some !c
      | _ -> None)

let label_values t name ~label =
  let seen = Hashtbl.create 8 in
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun (n, labels) _ ->
          if n = name then
            match List.assoc_opt label labels with
            | Some v when not (Hashtbl.mem seen v) -> Hashtbl.replace seen v ()
            | _ -> ())
        t.tbl);
  List.sort String.compare (Hashtbl.fold (fun v () acc -> v :: acc) seen [])
