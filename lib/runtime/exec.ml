module C = Arb_crypto
module L = Arb_lang
module E = Arb_mpc.Engine
module Fm = Arb_mpc.Fixpoint_mpc
module Pr = Arb_mpc.Protocols
module Fx = Arb_util.Fixed
module Plan = Arb_planner.Plan

let log_src = Logs.Src.create "arb.runtime" ~doc:"Arboretum execution runtime"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* How much of the device population runs the real crypto path. [Full]
   materializes every device. [Sharded] splits the population into
   cohorts of [cohort_size] consecutive device ids, runs [sampled_cohorts]
   of them for real (encrypt, prove, verify, audit), and extrapolates the
   rest analytically from exact per-device cost formulas — while their
   exact honest plaintext contribution is carried into the aggregate as a
   single "residual" ciphertext, so decrypted outputs (and hence DP noise,
   budget deductions and certificates) are bit-identical to a Full run at
   the same seed. Peak memory is O(cohort), not O(population). *)
type sharding = Full | Sharded of { cohort_size : int; sampled_cohorts : int }

type config = {
  committee_size : int;
  byzantine_fraction : float;
  churn : float;  (* probability a committee member goes offline (§5.1) *)
  bgv_n : int;
  latency : Net.profile;
  seed : int64;
  audit_p_max : float;
  auditing_devices : int;
  tamper_aggregator : bool;
  budget : Arb_dp.Budget.t;
  block : string; (* sortition randomness block B_i (§5.1) *)
  query_id : int;
  faults : Fault.spec; (* deterministic fault plan (Fault.no_faults = clean) *)
  tracer : Arb_obs.Tracer.t option;
      (* span tracer for the execution pipeline; drive it with a Simulated
         clock and the spans advance along the protocol's simulated time *)
  workers : int;
      (* Domains for the per-member and per-device stages (keygen,
         certificate-check, inputs, sortition-check) and the sum-tree
         folds, fanned out over Arb_util.Pool. Reports and traces are
         byte-identical at any worker count: fanned-out items draw only
         from their own per-device streams, every session and fault draw
         stays on the calling domain, and results merge in canonical
         order. *)
  sharding : sharding;
}

let default_config =
  {
    committee_size = 5;
    byzantine_fraction = 0.0;
    churn = 0.0;
    bgv_n = 256;
    latency = Net.lan;
    seed = 1L;
    audit_p_max = 1e-6;
    auditing_devices = 16;
    tamper_aggregator = false;
    budget = Arb_dp.Budget.create ~epsilon:10.0 ~delta:1e-4;
    block = "B0";
    query_id = 1;
    faults = Fault.no_faults;
    tracer = None;
    workers = 1;
    sharding = Full;
  }

(* A device database that is addressed, not materialized: [row i] is
   device [i]'s input, computed on demand. A sharded run over 10^8 devices
   only ever calls [row] streaming through one cohort at a time, so the
   database never has to exist as an array. [row] must be pure (safe to
   call from any domain, no shared mutable state). *)
type source = { n_devices : int; row : int -> int array }

let source_of_db db = { n_devices = Array.length db; row = (fun i -> db.(i)) }

type report = {
  outputs : L.Interp.value list;
  trace : Trace.t;
  certificate : Setup.certificate;
  certificate_ok : bool;
  audit_root : C.Sha256.digest;
  audit_ok : bool;
  accepted_inputs : int;
  rejected_inputs : int;
  budget_left : Arb_dp.Budget.t;
  committee_wall_clock : (Trace.committee_kind * float) list;
}

exception Execution_error of string
exception Execution_degraded of string

let err fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt
let degraded fmt = Printf.ksprintf (fun s -> raise (Execution_degraded s)) fmt

(* Values flowing through the distributed interpreter. *)
type rvalue =
  | R_clean of L.Interp.value
  | R_svec of E.sec array (* shared fixpoint vector (raw 2^16-scaled ints) *)
  | R_sscalar of E.sec

type state = {
  cfg : config;
  query : Arb_queries.Registry.query;
  plan : Plan.t;
  rng : Arb_util.Rng.t;
  trace : Trace.t;
  inj : Fault.t;
  epsilon : float;
  sensitivity : float;
  eng_ops : E.t;
  vars : (string, rvalue) Hashtbl.t;
  mutable outputs : L.Interp.value list;
  shared_db_sums : E.sec array; (* result of sum(db), prepared by the pipeline *)
  sampled_var : string option; (* variable bound by sampleUniform, if any *)
}

(* --- observability helpers: no-ops when no tracer is configured --- *)

let spn cfg ?args name f =
  match cfg.tracer with
  | None -> f ()
  | Some t -> Arb_obs.Tracer.with_span t ~cat:"runtime" ?args name f

(* Advance the tracer's simulated clock (no-op for other clocks), so span
   boundaries line up with the protocol's estimated wall time. *)
let adv cfg dt = match cfg.tracer with None -> () | Some t -> Arb_obs.Tracer.advance t dt

(* --- helpers over the engine: values are fixpoint-raw integers --- *)

let fx_scale = 1 lsl Fx.frac_bits

let lookup st v =
  match Hashtbl.find_opt st.vars v with
  | Some x -> x
  | None -> err "unbound variable %s" v

let as_clean = function
  | R_clean v -> v
  | _ -> err "expected a public value, found a secret one"

let clean_int v = L.Interp.as_int (as_clean v)
let clean_float v = L.Interp.as_float (as_clean v)

let to_sscalar st = function
  | R_sscalar s -> s
  | R_clean v -> E.const st.eng_ops (Fx.to_raw (Fx.of_float (L.Interp.as_float v)))
  | R_svec _ -> err "expected a scalar, found a vector"

let is_secret = function R_clean _ -> false | _ -> true

(* --- clean-value arithmetic (mirrors the reference interpreter) --- *)

let clean_binop op a b : L.Interp.value =
  let fa = L.Interp.as_float a and fb = L.Interp.as_float b in
  let arith f =
    match (a, b) with
    | L.Interp.V_int x, L.Interp.V_int y -> (
        match op with
        | L.Ast.Add -> L.Interp.V_int (x + y)
        | Sub -> V_int (x - y)
        | Mul -> V_int (x * y)
        | Div -> if y = 0 then err "division by zero" else V_int (x / y)
        | _ -> assert false)
    | _ -> L.Interp.V_fix (Fx.of_float (f fa fb))
  in
  match op with
  | L.Ast.Add -> arith ( +. )
  | Sub -> arith ( -. )
  | Mul -> arith ( *. )
  | Div -> if fb = 0.0 then err "division by zero" else arith ( /. )
  | Lt -> V_bool (fa < fb)
  | Le -> V_bool (fa <= fb)
  | Gt -> V_bool (fa > fb)
  | Ge -> V_bool (fa >= fb)
  | Eq -> V_bool (fa = fb)
  | Ne -> V_bool (fa <> fb)
  | And | Or -> (
      match (a, b) with
      | V_bool x, V_bool y -> V_bool (if op = L.Ast.And then x && y else x || y)
      | _ -> err "boolean operator on non-booleans")

(* Secret binop: at least one side secret. *)
let secret_binop st op a b : rvalue =
  let eng = st.eng_ops in
  match op with
  | L.Ast.Add -> R_sscalar (E.add eng (to_sscalar st a) (to_sscalar st b))
  | Sub -> R_sscalar (E.sub eng (to_sscalar st a) (to_sscalar st b))
  | Mul -> (
      match (a, b) with
      | R_clean v, s | s, R_clean v -> (
          match v with
          | L.Interp.V_int k -> R_sscalar (E.scale eng k (to_sscalar st s))
          | _ ->
              R_sscalar
                (Fm.mul_public eng (Fx.of_float (L.Interp.as_float v)) (to_sscalar st s)))
      | _ -> R_sscalar (Fm.mul eng (to_sscalar st a) (to_sscalar st b)))
  | Div -> (
      match b with
      | R_clean v ->
          let inv = 1.0 /. L.Interp.as_float v in
          R_sscalar (Fm.mul_public eng (Fx.of_float inv) (to_sscalar st a))
      | _ -> err "division by a secret value is not supported")
  | Lt -> R_sscalar (Fm.less_than eng (to_sscalar st a) (to_sscalar st b))
  | Gt -> R_sscalar (Fm.less_than eng (to_sscalar st b) (to_sscalar st a))
  | Le ->
      let gt = Fm.less_than eng (to_sscalar st b) (to_sscalar st a) in
      R_sscalar (E.sub eng (E.const eng 1) gt)
  | Ge ->
      let lt = Fm.less_than eng (to_sscalar st a) (to_sscalar st b) in
      R_sscalar (E.sub eng (E.const eng 1) lt)
  | Eq | Ne | And | Or -> err "operator not supported on secret values"

let secret_abs st s =
  let eng = st.eng_ops in
  let neg = Fm.less_than eng s (E.const eng 0) in
  E.select eng neg (E.neg eng s) s

(* --- expression evaluation --- *)

let rec eval st (e : L.Ast.expr) : rvalue =
  match e with
  | Int_lit i -> R_clean (V_int i)
  | Fix_lit f -> R_clean (V_fix (Fx.of_float f))
  | Bool_lit b -> R_clean (V_bool b)
  | Var v -> lookup st v
  | Index (v, idxs) -> (
      let idx_vals = List.map (fun i -> clean_int (eval st i)) idxs in
      match (lookup st v, idx_vals) with
      | R_svec a, [ i ] ->
          if i < 0 || i >= Array.length a then err "index %d out of bounds" i
          else R_sscalar a.(i)
      | R_clean (V_arr a), is ->
          let rec descend v = function
            | [] -> v
            | i :: rest -> (
                match v with
                | L.Interp.V_arr a when i >= 0 && i < Array.length a ->
                    descend a.(i) rest
                | _ -> err "bad index into %s" "array")
          in
          R_clean (descend (V_arr a) is)
      | _ -> err "cannot index %s" v)
  | Unop (Neg, e) -> (
      match eval st e with
      | R_clean (V_int i) -> R_clean (V_int (-i))
      | R_clean (V_fix f) -> R_clean (V_fix (Fx.neg f))
      | R_sscalar s -> R_sscalar (E.neg st.eng_ops s)
      | _ -> err "cannot negate this value")
  | Unop (Not, e) -> (
      match eval st e with
      | R_clean (V_bool b) -> R_clean (V_bool (not b))
      | _ -> err "! on a non-boolean")
  | Binop (op, e1, e2) ->
      let a = eval st e1 and b = eval st e2 in
      if is_secret a || is_secret b then secret_binop st op a b
      else R_clean (clean_binop op (as_clean a) (as_clean b))
  | Call (f, args) -> eval_call st f args

and eval_call st f (args : L.Ast.expr list) : rvalue =
  let eng = st.eng_ops in
  match (f, args) with
  | "sum", [ Var src ]
    when src = "db" || Some src = st.sampled_var ->
      R_svec st.shared_db_sums
  | "sum", [ e ] -> (
      match eval st e with
      | R_svec a -> R_sscalar (Pr.sum eng a)
      | R_clean (V_arr a) ->
          R_clean
            (V_fix
               (Array.fold_left
                  (fun acc v -> Fx.add acc (Fx.of_float (L.Interp.as_float v)))
                  Fx.zero a))
      | _ -> err "sum over a non-array")
  | ("prefixSums" | "suffixSums"), [ e ] -> (
      match eval st e with
      | R_svec a ->
          if f = "prefixSums" then R_svec (Pr.prefix_sums eng a)
          else begin
            let rev = Array.of_list (List.rev (Array.to_list a)) in
            let sums = Pr.prefix_sums eng rev in
            R_svec (Array.of_list (List.rev (Array.to_list sums)))
          end
      | _ -> err "%s over a non-secret-vector" f)
  | "max", [ e ] -> (
      match eval st e with
      | R_svec a -> R_sscalar (Pr.max eng a)
      | _ -> err "max over a non-secret-vector")
  | "argmax", [ e ] -> (
      match eval st e with
      | R_svec a -> R_sscalar (Pr.argmax eng a)
      | _ -> err "argmax over a non-secret-vector")
  | "len", [ e ] -> (
      match eval st e with
      | R_svec a -> R_clean (V_int (Array.length a))
      | R_clean (V_arr a) -> R_clean (V_int (Array.length a))
      | _ -> err "len of a non-array")
  | "abs", [ e ] -> (
      match eval st e with
      | R_sscalar s -> R_sscalar (secret_abs st s)
      | R_clean (V_int i) -> R_clean (V_int (abs i))
      | R_clean (V_fix f) -> R_clean (V_fix (Fx.abs f))
      | _ -> err "abs of a non-scalar")
  | "clip", [ e; lo; hi ] -> (
      let lo = clean_float (eval st lo) and hi = clean_float (eval st hi) in
      match eval st e with
      | R_clean v ->
          let x = Float.min hi (Float.max lo (L.Interp.as_float v)) in
          R_clean (V_fix (Fx.of_float x))
      | R_sscalar s ->
          let lo_s = E.const eng (Fx.to_raw (Fx.of_float lo)) in
          let hi_s = E.const eng (Fx.to_raw (Fx.of_float hi)) in
          let below = Fm.less_than eng s lo_s in
          let s = E.select eng below lo_s s in
          let above = Fm.less_than eng hi_s s in
          R_sscalar (E.select eng above hi_s s)
      | _ -> err "clip of a vector")
  | "declassify", [ e ] -> (
      match eval st e with
      | R_sscalar s -> R_clean (V_fix (Fm.open_fixed eng s))
      | v -> v)
  | "laplace", [ e ] -> laplace_mechanism st (eval st e)
  | ("em" | "emGap"), [ e ] -> em_mechanism st ~gap:(f = "emGap") (eval st e)
  | "exp", [ e ] -> (
      match eval st e with
      | R_clean v -> R_clean (V_fix (Fx.of_float (exp (L.Interp.as_float v))))
      | _ -> err "exp on secret values must go through a mechanism")
  | "log", [ e ] -> (
      match eval st e with
      | R_clean v -> R_clean (V_fix (Fx.of_float (log (L.Interp.as_float v))))
      | _ -> err "log on secret values must go through a mechanism")
  | "sampleUniform", _ ->
      (* Sampling is folded into the input pipeline; the variable is bound
         in [prepare]; reaching here means the query used it oddly. *)
      err "sampleUniform may only be bound to a variable and summed"
  | _ -> err "unsupported builtin %s/%d" f (List.length args)

and laplace_mechanism st v : rvalue =
  spn st.cfg "laplace" @@ fun () ->
  let eng = st.eng_ops in
  let scale = Fx.of_float (st.sensitivity /. st.epsilon) in
  let noise_one s =
    let noised = Fm.add eng s (Fm.laplace eng ~scale) in
    L.Interp.V_fix (Fm.open_fixed eng noised)
  in
  let cost_before = copy_cost (E.cost eng) in
  let result =
    match v with
    | R_sscalar s -> R_clean (noise_one s)
    | R_svec a -> R_clean (V_arr (Array.map noise_one a))
    | R_clean _ -> err "laplace over an already-public value"
  in
  record_ops_cost st cost_before;
  result

and em_mechanism st ~gap v : rvalue =
  spn st.cfg ~args:[ ("gap", Arb_util.Json.Bool gap) ] "em" @@ fun () ->
  let eng = st.eng_ops in
  let scores =
    match v with
    | R_svec a -> a
    | _ -> err "em over a non-secret-vector"
  in
  let cost_before = copy_cost (E.cost eng) in
  let result =
    if gap then begin
      let w, g =
        Pr.em_gumbel_gap eng ~epsilon:st.epsilon ~sensitivity:st.sensitivity scores
      in
      R_clean (V_arr [| V_int w; V_fix g |])
    end
    else
      let winner =
        match st.plan.Plan.em_variant with
        | `Exponentiate ->
            Pr.em_exponentiate eng ~epsilon:st.epsilon ~sensitivity:st.sensitivity
              scores
        | `Sketch ->
            (* Count-min variant: fold the C scores into depth x width
               counters on shares, noise and open only the counters, and
               pick the winner from the cleartext point estimates — the
               approximate plan's whole point is that width << C. Hash
               placement is pure in (row, category), so the counters are
               identical at any worker count. *)
            let width, depth = sketch_shape_of_plan st.plan in
            let n = Array.length scores in
            let counters = Array.init (depth * width) (fun _ -> E.const eng 0) in
            for c = 0 to n - 1 do
              for row = 0 to depth - 1 do
                let b = (row * width) + Arb_util.Sketch.cms_bucket ~row ~width c in
                counters.(b) <- Fm.add eng counters.(b) scores.(c)
              done
            done;
            let scale =
              Arb_util.Fixed.of_float (2.0 *. st.sensitivity /. st.epsilon)
            in
            let noisy =
              spn st.cfg
                ~args:
                  [ ("width", Arb_util.Json.Int width);
                    ("depth", Arb_util.Json.Int depth) ]
                "sketch-noise"
                (fun () ->
                  Array.map
                    (fun s ->
                      Fx.to_float
                        (Fm.open_fixed eng (Fm.add eng s (Fm.laplace eng ~scale))))
                    counters)
            in
            let best = ref 0 and best_v = ref neg_infinity in
            for c = 0 to n - 1 do
              let est = Arb_util.Sketch.cms_estimate ~depth ~width noisy c in
              if est > !best_v then begin
                best := c;
                best_v := est
              end
            done;
            !best
        | `Gumbel | `None ->
            (* Honor the plan's committee parallelism (Fig. 5): the noise
               chunk size chosen by the planner determines how many
               parallel committees noise the scores; each runs its own
               engine whose costs are traced separately, and the noised
               values are handed (VSR-charged) to the argmax committee. *)
            let chunk = noise_chunk_of_plan st.plan in
            if chunk >= Array.length scores then
              Pr.em_gumbel eng ~epsilon:st.epsilon ~sensitivity:st.sensitivity scores
            else begin
              let scale =
                Arb_util.Fixed.of_float (2.0 *. st.sensitivity /. st.epsilon)
              in
              let n = Array.length scores in
              let noised = Array.make n scores.(0) in
              let pos = ref 0 in
              while !pos < n do
                let len = min chunk (n - !pos) in
                spn st.cfg
                  ~args:[ ("chunk", Arb_util.Json.Int len) ]
                  "noise-committee"
                  (fun () ->
                    (* A noising committee may lose its quorum before
                       starting; reassignment picks a replacement, charged
                       against the backoff budget like any other retry. *)
                    let rec fresh_committee attempt =
                      let committee = E.create ~parties:(E.parties eng) st.rng () in
                      if Fault.fires st.inj Fault.Committee_dropout then begin
                        st.trace.Trace.committees_reassigned <-
                          st.trace.Trace.committees_reassigned + 1;
                        match Fault.backoff st.inj ~attempt with
                        | None ->
                            err "noise-committee reassignment budget exhausted"
                        | Some _ ->
                            Fault.record_recovery st.inj Fault.Committee_dropout;
                            fresh_committee (attempt + 1)
                      end
                      else committee
                    in
                    let committee = fresh_committee 0 in
                    for k = !pos to !pos + len - 1 do
                      (* The committee holds the score via a VSR hand-off,
                         adds its Gumbel draw, and hands the noised value
                         onward. *)
                      let local =
                        E.reshare_in committee (E.mirror eng scores.(k))
                      in
                      let noisy =
                        Fm.add committee local (Fm.gumbel committee ~scale)
                      in
                      noised.(k) <- E.reshare_in eng (E.mirror committee noisy)
                    done;
                    Trace.record_committee st.trace Trace.Operations
                      (E.cost committee));
                pos := !pos + len
              done;
              E.open_value eng (Pr.argmax eng noised)
            end
      in
      R_clean (V_int winner)
  in
  record_ops_cost st cost_before;
  result

and sketch_shape_of_plan (plan : Plan.t) =
  List.fold_left
    (fun acc (v : Plan.vignette) ->
      match v.Plan.work with
      | Plan.W_he_sketch { width; depth; _ } -> (width, depth)
      | _ -> acc)
    (256, 3) plan.Plan.vignettes

and noise_chunk_of_plan (plan : Plan.t) =
  List.fold_left
    (fun acc (v : Plan.vignette) ->
      match v.Plan.work with
      | Plan.W_mpc_noise { count; _ } | Plan.W_mpc_decrypt_noise { count; _ } ->
          min acc count
      | _ -> acc)
    max_int plan.Plan.vignettes

and copy_cost (c : Arb_mpc.Cost.t) = Arb_mpc.Cost.add c (Arb_mpc.Cost.zero ())

and record_ops_cost st before =
  let now = E.cost st.eng_ops in
  let delta =
    {
      Arb_mpc.Cost.rounds = now.Arb_mpc.Cost.rounds - before.Arb_mpc.Cost.rounds;
      bytes_per_party =
        now.Arb_mpc.Cost.bytes_per_party - before.Arb_mpc.Cost.bytes_per_party;
      triples = now.Arb_mpc.Cost.triples - before.Arb_mpc.Cost.triples;
      mults = now.Arb_mpc.Cost.mults - before.Arb_mpc.Cost.mults;
      opens = now.Arb_mpc.Cost.opens - before.Arb_mpc.Cost.opens;
      comparisons = now.Arb_mpc.Cost.comparisons - before.Arb_mpc.Cost.comparisons;
      truncations = now.Arb_mpc.Cost.truncations - before.Arb_mpc.Cost.truncations;
      inputs = now.Arb_mpc.Cost.inputs - before.Arb_mpc.Cost.inputs;
      field_ops = now.Arb_mpc.Cost.field_ops - before.Arb_mpc.Cost.field_ops;
    }
  in
  Trace.record_committee st.trace Trace.Operations delta;
  st.trace.Trace.vignettes_executed <- st.trace.Trace.vignettes_executed + 1;
  adv st.cfg
    (Net.mpc_wall_clock st.cfg.latency ~rounds:delta.Arb_mpc.Cost.rounds
       ~compute:(0.002 *. float_of_int delta.Arb_mpc.Cost.rounds))

(* --- statements --- *)

let rec exec st (s : L.Ast.stmt) =
  match s with
  | Seq ss -> List.iter (exec st) ss
  | Assign (v, L.Ast.Call ("sampleUniform", _)) when Some v = st.sampled_var ->
      (* The secret sample lives in the input pipeline (binned uploads plus
         the committee's hidden window); the variable is just a tag that
         sum() recognizes. *)
      Hashtbl.replace st.vars v (R_clean (V_int 0))
  | Assign (v, e) -> Hashtbl.replace st.vars v (eval st e)
  | Assign_idx (v, idxs, e) -> (
      let idx_vals = List.map (fun i -> clean_int (eval st i)) idxs in
      let rhs = eval st e in
      let grow a i =
        if Array.length a > i then a
        else
          Array.init (i + 1) (fun j ->
              if j < Array.length a then a.(j) else E.const st.eng_ops 0)
      in
      match (Hashtbl.find_opt st.vars v, idx_vals, rhs) with
      | Some (R_svec a), [ i ], R_clean cv ->
          (* Public masking of a secret vector (topK). *)
          if i < 0 then err "mask index out of bounds";
          let a = grow a i in
          let raw = Fx.to_raw (Fx.of_float (L.Interp.as_float cv)) in
          a.(i) <- E.const st.eng_ops raw;
          Hashtbl.replace st.vars v (R_svec a)
      | Some (R_svec a), [ i ], R_sscalar s ->
          if i < 0 then err "index out of bounds";
          let a = grow a i in
          a.(i) <- s;
          Hashtbl.replace st.vars v (R_svec a)
      | (Some (R_clean _) | None), is, R_clean cv ->
          let current =
            match Hashtbl.find_opt st.vars v with
            | Some (R_clean (V_arr a)) -> L.Interp.V_arr a
            | _ -> V_arr [||]
          in
          let rec write value = function
            | [] -> cv
            | i :: rest ->
                let a =
                  match value with L.Interp.V_arr a -> Array.copy a | _ -> [||]
                in
                let a =
                  if Array.length a > i then a
                  else
                    Array.init (i + 1) (fun j ->
                        if j < Array.length a then a.(j) else L.Interp.V_int 0)
                in
                a.(i) <- write a.(i) rest;
                V_arr a
          in
          Hashtbl.replace st.vars v (R_clean (write current is))
      | (Some (R_clean _) | None), [ i ], R_sscalar s ->
          (* First secret write into a fresh vector: materialize it. *)
          let a = grow [||] i in
          a.(i) <- s;
          Hashtbl.replace st.vars v (R_svec a)
      | _ -> err "unsupported indexed assignment into %s" v)
  | Output e -> (
      match eval st e with
      | R_clean v -> st.outputs <- v :: st.outputs
      | _ -> err "output of a secret value")
  | For (v, lo, hi, body) ->
      let lo = clean_int (eval st lo) and hi = clean_int (eval st hi) in
      for i = lo to hi do
        Hashtbl.replace st.vars v (R_clean (V_int i));
        exec st body
      done
  | If (c, s1, s2) -> (
      match eval st c with
      | R_clean (V_bool b) -> exec st (if b then s1 else s2)
      | R_clean (V_int i) -> exec st (if i <> 0 then s1 else s2)
      | _ -> err "branch on a secret value")

(* --- the crypto pipeline up to shared sums --- *)

(* [Array.of_list] from the constant [init], filled in place: built from a
   fresh head instead, an array past 256 elements makes the runtime empty
   the minor heap first (DESIGN.md §10). *)
let array_of_list init l =
  let a = Array.make (List.length l) init in
  List.iteri (fun i x -> a.(i) <- x) l;
  a

let next_pow2 x =
  let rec go p = if p >= x then p else go (2 * p) in
  go 1

let find_sampled_binding (p : L.Ast.program) =
  L.Ast.fold_stmts
    (fun acc s ->
      match s with
      | L.Ast.Assign (v, L.Ast.Call ("sampleUniform", [ _; L.Ast.Fix_lit phi ])) ->
          Some (v, phi)
      | _ -> acc)
    None p.L.Ast.body

let execute_inner cfg ~(query : Arb_queries.Registry.query) ~(plan : Plan.t) ~src =
  let rng = Arb_util.Rng.create cfg.seed in
  let trace = Trace.create () in
  (* The fault plan draws from its own per-kind streams (same seed), so a
     clean run and a faulted run make identical session-RNG draws up to the
     first recovery action. *)
  let inj = Fault.create ~seed:cfg.seed cfg.faults in
  let n_devices = src.n_devices in
  if n_devices < 4 * cfg.committee_size then
    err "need at least %d devices for %d-member committees" (4 * cfg.committee_size)
      cfg.committee_size;
  (* Cohort structure. Full is the degenerate single materialized cohort,
     so both modes run the same input loop below. Sampled cohorts are
     spread evenly across the id space (deterministic, distinct). *)
  let cohort_size, n_cohorts, sampled_idx =
    match cfg.sharding with
    | Full -> (n_devices, 1, [| 0 |])
    | Sharded { cohort_size; sampled_cohorts } ->
        if cohort_size < 1 then err "sharding: cohort_size must be >= 1";
        if sampled_cohorts < 1 then err "sharding: sampled_cohorts must be >= 1";
        let nc = (n_devices + cohort_size - 1) / cohort_size in
        let k = min sampled_cohorts nc in
        (cohort_size, nc, Array.init k (fun j -> j * nc / k))
  in
  let is_sampled c = Array.exists (fun s -> s = c) sampled_idx in
  let cohort_population c = min cohort_size (n_devices - (c * cohort_size)) in
  trace.Trace.devices_total <- n_devices;
  trace.Trace.cohorts_total <- n_cohorts;
  trace.Trace.cohorts_sampled <- Array.length sampled_idx;
  trace.Trace.devices_materialized <-
    Array.fold_left (fun acc c -> acc + cohort_population c) 0 sampled_idx;
  let program = query.Arb_queries.Registry.program in
  let cert_report = L.Certify.certify program ~n:n_devices in
  if not cert_report.L.Certify.certified then
    err "query failed certification: %s"
      (Option.value cert_report.L.Certify.reason ~default:"?");
  let cols = query.Arb_queries.Registry.categories in
  let sampled = find_sampled_binding program in
  let bins =
    match sampled with
    | None -> 1
    | Some _ -> Option.value plan.Plan.sample_bins ~default:8
  in
  let slots_needed = cols * bins in
  (* The configured ring degree is the packing unit; wider slot layouts
     split across multiple ciphertexts per device, as the paper's large-C
     queries do. *)
  let ring_n = max 16 (next_pow2 cfg.bgv_n) in
  let ct_count = (slots_needed + ring_n - 1) / ring_n in
  let min_t = max 12289 (next_pow2 (4 * n_devices)) in
  (* The plaintext modulus grows with the population (sums up to N must
     stay exact), which shrinks the noise margin q/(2t). Past t = 16384
     the single-prime AHE modulus no longer leaves room to accumulate
     millions of fresh ciphertexts, so large populations take the wider
     two-prime basis even for addition-only plans. *)
  let params =
    match plan.Plan.crypto with
    | Plan.Ahe when min_t <= 16384 -> C.Bgv.ahe_params ~n:ring_n ~min_t ()
    | Plan.Ahe | Plan.Fhe -> C.Bgv.fhe_params ~n:ring_n ~min_t ()
  in
  (* 1. Registry + sortition: one committee per logical role. The
     population is derived, not materialized — sortition ranks registry
     blocks, and committee members may live in cohorts the input stage
     never executes (their seeds derive on demand). *)
  let pop =
    Setup.population ~seed:cfg.seed ~n:n_devices
      ~byzantine_fraction:cfg.byzantine_fraction
  in
  (* Device sampling (approximate plans): inclusion is a pure PRF of
     (population seed, id) from its own derived stream, so the sampled
     device set — and every downstream byte — is identical at any worker
     count and cohort geometry. *)
  let dphi = plan.Plan.device_sample in
  let dev_included gi = Setup.device_sampled pop ~phi:dphi gi in
  let n_committees = 4 in
  let assignment =
    spn cfg "sortition" (fun () ->
        Setup.run_sortition pop ~block:cfg.block ~query_id:cfg.query_id
          ~committees:n_committees ~size:cfg.committee_size)
  in
  (* Churn (§5.1): members may be offline when their committee's vignette
     starts. A committee that loses its honest-majority quorum hands its
     tasks to the next one (reassign_failed); the run only aborts if every
     committee is below quorum. *)
  let quorum = (cfg.committee_size / 2) + 1 in
  let assignment = ref assignment in
  let dropout_seen = ref false in
  let kg_committee =
    let rec pick attempts idx =
      if attempts >= n_committees then
        err "catastrophic churn: no committee retained a quorum"
      else
        let members = !assignment.C.Sortition.committees.(idx) in
        let survivors =
          Array.of_list
            (List.filter
               (fun _ -> Arb_util.Rng.uniform01 rng >= cfg.churn)
               (Array.to_list members))
        in
        (* Injected dropout: the whole pick loses its quorum regardless of
           churn, and the retry is charged against the backoff budget. *)
        let dropped = Fault.fires inj Fault.Committee_dropout in
        if dropped then dropout_seen := true;
        if (not dropped) && Array.length survivors >= quorum then begin
          if !dropout_seen then Fault.record_recovery inj Fault.Committee_dropout;
          survivors
        end
        else begin
          trace.Trace.committees_reassigned <-
            trace.Trace.committees_reassigned + 1;
          (if dropped then
             match Fault.backoff inj ~attempt:attempts with
             | None -> err "committee reassignment backoff budget exhausted"
             | Some _ -> ());
          assignment := C.Sortition.reassign_failed !assignment ~failed:idx;
          pick (attempts + 1) ((idx + 1) mod n_committees)
        end
    in
    spn cfg "committee-select" (fun () -> pick 0 0)
  in
  let assignment = !assignment in
  ignore assignment;
  (* 2. Key generation ceremony. *)
  let eng_keygen = E.create ~parties:cfg.committee_size rng () in
  let plan_digest = C.Sha256.digest (Format.asprintf "%a" Plan.pp plan) in
  let sk, pk, certificate =
    spn cfg "keygen" (fun () ->
        let r =
          Setup.keygen_ceremony ~workers:cfg.workers rng
            ~device_seed:(Setup.device_seed pop)
            ~committee:kg_committee ~params
            ~query_id:cfg.query_id ~plan_digest ~budget:cfg.budget
            ~cost:
              (* Privacy amplification by subsampling: a sampled plan is
                 charged the strictly smaller amplified cost (§2.1). *)
              (match dphi with
              | None -> cert_report.L.Certify.cost
              | Some phi ->
                  Arb_dp.Budget.amplify cert_report.L.Certify.cost ~phi)
            ~registry_root:assignment.C.Sortition.registry_root
            ~engine:eng_keygen
        in
        Arb_mpc.Protocols.charge_zk_setup eng_keygen
          ~constraints:(3 * slots_needed);
        Trace.record_committee trace Trace.Keygen (E.cost eng_keygen);
        adv cfg
          (Trace.committee_wall_clock trace cfg.latency Trace.Keygen
             ~compute_per_round:0.002);
        r)
  in
  let certificate_ok =
    spn cfg "certificate-check" (fun () ->
        Setup.verify_certificate ~workers:cfg.workers certificate)
  in
  Log.info (fun m ->
      m "query %d: keygen done (ring %d, t=%d, %d ct/device), certificate %s"
        cfg.query_id params.C.Bgv.n params.C.Bgv.t ct_count
        (if certificate_ok then "verified" else "INVALID"));
  (* Only participating devices fetch the public key. *)
  let key_recipients =
    match dphi with
    | None -> float_of_int n_devices
    | Some phi -> Float.round (phi *. float_of_int n_devices)
  in
  trace.Trace.agg_bytes_sent <-
    trace.Trace.agg_bytes_sent
    +. (key_recipients *. float_of_int (C.Bgv.public_key_bytes params));
  (* 3. Input: encrypt + prove; aggregator verifies and aggregates. *)
  let audit = Audit.create () in
  let statement : C.Zkp.statement =
    match (program.L.Ast.row, sampled) with
    | L.Ast.One_hot len, None -> C.Zkp.One_hot { length = len }
    | L.Ast.One_hot len, Some _ -> C.Zkp.One_hot_binned { bins; length = len }
    | L.Ast.Bounded { width; lo; hi }, _ -> C.Zkp.Range { lo; hi; count = width }
  in
  let nonce = Setup.certificate_payload certificate in
  (* Did the planner outsource the aggregation to a device sum-tree
     (§4.3)? If so, devices perform the homomorphic additions in groups
     and pass partial sums up; the aggregator only combines the roots. *)
  let sum_outsourced =
    List.exists
      (fun (v : Plan.vignette) ->
        match (v.Plan.work, v.Plan.location) with
        | Plan.W_he_sum _, Plan.Committees _ -> true
        | _ -> false)
      plan.Plan.vignettes
  in
  let pending_roots = ref [] in
  let acc_ct = ref None in
  let accepted = ref 0 and rejected = ref 0 in
  (* Devices the sampling PRF actually included (= n_devices for exact
     plans); the interpreted program's N so sampled sums pair with the
     matching population count. *)
  let included_devices = ref 0 in
  (* Uploads travel over a link whose drops and delays come from the fault
     plan; a delay is absorbed as latency, a drop costs a retry. The
     per-kind fault streams are only consulted for materialized devices —
     the sharding fidelity contract pins injected faults inside sampled
     cohorts (DESIGN.md §11). *)
  let fspec = Fault.spec inj in
  let link =
    Net.lossy cfg.latency
      ~drop:(fun () -> Fault.fires inj Fault.Message_drop)
      ~delay:(fun () ->
        if Fault.fires inj Fault.Message_delay then begin
          Fault.record_recovery inj Fault.Message_delay;
          fspec.Fault.delay_s
        end
        else 0.0)
  in
  let lost = ref 0 in
  let clean_latency = cfg.latency.Net.rtt /. 2.0 in
  let constraints = C.Zkp.statement_constraints statement in
  (* Byte accounting uses the real wire format's length — computed, not
     materialized: fresh ciphertexts are degree 1. *)
  let upload_bytes =
    C.Zkp.proof_bytes + (ct_count * C.Bgv.serialized_bytes params 1)
  in
  (* Exact honest plaintext contribution of the extrapolated cohorts,
     accumulated slot-wise and injected as one ciphertext after the input
     loop. *)
  let residual = Array.make slots_needed 0 in
  let residual_devices = ref 0 in
  (* Device sum-tree (§4.3): fold ciphertext uploads level by level in
     fanout-sized groups, each group summed by a participant device
     (attributed to device_tree_adds); the aggregator audits every vertex.
     Runs once per materialized cohort (bounding peak memory at O(cohort))
     and once more over the cohort roots. *)
  let fanout = 8 in
  let rec tree_reduce ~label level cts =
    match cts with
    | [] -> err "no valid inputs"
    | [ only ] -> only
    | _ ->
        let rec groups acc cur k = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | ct :: rest ->
              if k = fanout then groups (List.rev cur :: acc) [ ct ] 1 rest
              else groups acc (ct :: cur) (k + 1) rest
        in
        let gs = array_of_list [] (groups [] [] 0 cts) in
        (* Groups are disjoint, so their folds fan out over domains; the
           within-group fold stays sequential (the noise bookkeeping's
           log-sum-exp is float, hence order-sensitive) and the merge
           keeps canonical group order. Counters move out of the fold so
           the parallel path stays race-free — same totals. *)
        let folded = Array.make (Array.length gs) [||] in
        Arb_util.Pool.run ~workers:cfg.workers (Array.length gs) (fun ~slot:_ gi ->
            match gs.(gi) with
            | [] -> assert false
            | first :: rest ->
                folded.(gi) <-
                  List.fold_left
                    (fun acc cts -> Array.map2 C.Bgv.accumulate acc cts)
                    first rest);
        Array.iter
          (fun g ->
            trace.Trace.device_tree_adds <-
              trace.Trace.device_tree_adds + ((List.length g - 1) * ct_count))
          gs;
        let nodes = Array.to_list folded in
        Audit.record_step audit
          (Printf.sprintf "%s|%d|%d" label level (List.length nodes));
        tree_reduce ~label (level + 1) nodes
  in
  (* A device's private draws come from its own per-index stream, in the
     protocol order Byzantine-flag, bin, encryption randomness — a pure
     function of (seed, id), identical whether its cohort is materialized
     or streamed, untouched by worker count or by any other device. *)
  let device_byz drng = Arb_util.Rng.uniform01 drng < cfg.byzantine_fraction in
  let device_bin drng = if bins > 1 then Arb_util.Rng.int drng bins else 0 in
  spn cfg "inputs" (fun () ->
  for c = 0 to n_cohorts - 1 do
    let lo = c * cohort_size in
    let size = cohort_population c in
    if is_sampled c then begin
      (* Materialized cohort: the real crypto path. Pass 1 (parallel
         fan-out): each device's draws come from its own stream, so its
         draws, row, proof and encryption are a pure function of its id.
         A device outside the sample does no work at all: no stream draw,
         no row, no upload. *)
      let computed = Array.make size None in
      Arb_util.Pool.run ~workers:cfg.workers size (fun ~slot:_ k ->
          let gi = lo + k in
          if dev_included gi then begin
            let drng = Setup.device_input_rng pop gi in
            let byz = device_byz drng in
            let bin = device_bin drng in
            let row = src.row gi in
            let row = if byz then Array.map (fun _ -> 1) row else row in
            let slots = Array.make slots_needed 0 in
            Array.iteri
              (fun j v -> if j < cols then slots.((bin * cols) + j) <- v)
              row;
            let rand =
              Array.init ct_count (fun _ ->
                  C.Bgv.sample_encrypt_randomness pk drng)
            in
            (* The proof statement covers the full slot layout for one-hot
               rows (so a device cannot claim several bins); range
               statements cover the raw row. *)
            let witness =
              match statement with
              | C.Zkp.One_hot _ | C.Zkp.One_hot_binned _ | C.Zkp.Bits _ ->
                  slots
              | C.Zkp.Range _ -> row
            in
            let prover = string_of_int gi in
            let proof =
              if byz then C.Zkp.forge statement ~prover ~nonce
              else C.Zkp.prove statement ~witness ~prover ~nonce
            in
            let cts =
              Array.init ct_count (fun kk ->
                  let slo = kk * ring_n in
                  let len = min ring_n (slots_needed - slo) in
                  C.Bgv.encrypt_with_randomness pk rand.(kk)
                    (Array.sub slots slo len))
            in
            computed.(k) <- Some (proof, cts)
          end);
      (* Pass 2 (sequential, canonical order): trace accounting, the lossy
         uplink (per-kind fault streams fire in device order), verification
         and aggregation. *)
      let cohort_cts = ref [] in
      Array.iteri
        (fun k result ->
          match result with
          | None -> ()
          | Some (proof, cts) ->
          incr included_devices;
          let gi = lo + k in
          let prover = string_of_int gi in
          trace.Trace.device_encrypt_ops <-
            trace.Trace.device_encrypt_ops + ct_count;
          trace.Trace.device_proof_constraints <-
            trace.Trace.device_proof_constraints + constraints;
          trace.Trace.device_upload_bytes <-
            trace.Trace.device_upload_bytes +. float_of_int upload_bytes;
          (* The device did its work either way; the transmit decides
             whether the aggregator ever sees it. *)
          match
            Net.transmit link
              ~max_attempts:(fspec.Fault.max_retries + 1)
              ~backoff:(fun a -> Fault.backoff inj ~attempt:a)
          with
          | None ->
              incr lost;
              trace.Trace.lost_uploads <- trace.Trace.lost_uploads + 1
          | Some del ->
              if del.Net.attempts > 1 then begin
                trace.Trace.upload_retries <-
                  trace.Trace.upload_retries + (del.Net.attempts - 1);
                Fault.record_recovery inj Fault.Message_drop
              end;
              trace.Trace.upload_latency_s <-
                trace.Trace.upload_latency_s +. del.Net.latency;
              adv cfg del.Net.latency;
              (* Aggregator verifies and aggregates. *)
              trace.Trace.agg_proofs_verified <-
                trace.Trace.agg_proofs_verified + 1;
              if C.Zkp.verify statement proof ~prover ~nonce then begin
                incr accepted;
                if sum_outsourced then cohort_cts := cts :: !cohort_cts
                else
                  (acc_ct :=
                     match !acc_ct with
                     | None -> Some cts
                     | Some acc ->
                         trace.Trace.agg_he_adds <-
                           trace.Trace.agg_he_adds + ct_count;
                         (* In-place accumulation: the fold owns [acc]. *)
                         Some (Array.map2 C.Bgv.accumulate acc cts));
                if gi mod 64 = 0 then
                  Audit.record_step audit
                    (Printf.sprintf "sum-step|%d|%d" gi ct_count)
              end
              else begin
                incr rejected;
                trace.Trace.agg_proofs_rejected <-
                  trace.Trace.agg_proofs_rejected + 1
              end)
        computed;
      if sum_outsourced then
        match List.rev !cohort_cts with
        | [] -> ()
        | cts ->
            pending_roots :=
              tree_reduce ~label:(Printf.sprintf "cohort-tree|%d" c) 0 cts
              :: !pending_roots
    end
    else begin
      (* Extrapolated cohort: stream the devices without crypto. Honest
         rows fold into the exact residual slot sums (same bin layout and
         the same mod-t wrap as homomorphic accumulation); Byzantine
         devices contribute nothing, exactly as their forged proofs would
         be rejected in a materialized pass. Cost counters extrapolate
         from the same closed-form per-device costs the materialized path
         charges, so report accounting stays Full-comparable. *)
      let byz_count = ref 0 in
      let inc_count = ref 0 in
      for k = 0 to size - 1 do
        let gi = lo + k in
        if dev_included gi then begin
          incr inc_count;
          let drng = Setup.device_input_rng pop gi in
          if device_byz drng then incr byz_count
          else begin
            let bin = device_bin drng in
            let row = src.row gi in
            Array.iteri
              (fun j v ->
                if j < cols then
                  residual.((bin * cols) + j) <- residual.((bin * cols) + j) + v)
              row
          end
        end
      done;
      let streamed = !inc_count in
      included_devices := !included_devices + streamed;
      let honest = streamed - !byz_count in
      residual_devices := !residual_devices + honest;
      accepted := !accepted + honest;
      rejected := !rejected + !byz_count;
      trace.Trace.device_encrypt_ops <-
        trace.Trace.device_encrypt_ops + (streamed * ct_count);
      trace.Trace.device_proof_constraints <-
        trace.Trace.device_proof_constraints + (streamed * constraints);
      trace.Trace.device_upload_bytes <-
        trace.Trace.device_upload_bytes +. float_of_int (streamed * upload_bytes);
      trace.Trace.agg_proofs_verified <-
        trace.Trace.agg_proofs_verified + streamed;
      trace.Trace.agg_proofs_rejected <-
        trace.Trace.agg_proofs_rejected + !byz_count;
      trace.Trace.upload_latency_s <-
        trace.Trace.upload_latency_s +. (float_of_int streamed *. clean_latency);
      adv cfg (float_of_int streamed *. clean_latency);
      if sum_outsourced then
        trace.Trace.device_tree_adds <-
          trace.Trace.device_tree_adds + (max 0 (honest - 1) * ct_count)
      else
        trace.Trace.agg_he_adds <- trace.Trace.agg_he_adds + (honest * ct_count);
      Audit.record_step audit
        (Printf.sprintf "cohort-extrapolate|%d|%d|%d" c streamed !byz_count)
    end
  done;
  match cfg.tracer with
  | Some t ->
      Arb_obs.Tracer.add_args t
        [
          ("accepted", Arb_util.Json.Int !accepted);
          ("rejected", Arb_util.Json.Int !rejected);
          ("lost", Arb_util.Json.Int !lost);
        ]
  | None -> ());
  (* Fail closed rather than silently answer over a partial database: a
     lost input would change the query's true answer. *)
  if !lost > 0 then
    degraded "%d device upload%s lost despite %d retries" !lost
      (if !lost = 1 then "" else "s")
      fspec.Fault.max_retries;
  (* Residual injection: the extrapolated cohorts' exact honest sums,
     reduced mod t (matching the wrap semantics of mod-t homomorphic
     accumulation, which matters when per-slot sums exceed t) and
     encrypted once under a dedicated derived stream. After the
     homomorphic add, the aggregate decrypts to exactly what a Full run
     at the same seed produces. *)
  (if n_cohorts > Array.length sampled_idx then
     spn cfg "residual-inject" (fun () ->
         let t_plain = params.C.Bgv.t in
         let reduced =
           Array.map (fun v -> ((v mod t_plain) + t_plain) mod t_plain) residual
         in
         let rrng = Setup.residual_rng pop in
         let cts =
           Array.init ct_count (fun k ->
               let slo = k * ring_n in
               let len = min ring_n (slots_needed - slo) in
               C.Bgv.encrypt pk rrng (Array.sub reduced slo len))
         in
         trace.Trace.agg_he_adds <- trace.Trace.agg_he_adds + ct_count;
         Audit.record_step audit
           (Printf.sprintf "residual-inject|%d" !residual_devices);
         if sum_outsourced then pending_roots := cts :: !pending_roots
         else
           acc_ct :=
             (match !acc_ct with
             | None -> Some cts
             | Some acc -> Some (Array.map2 C.Bgv.accumulate acc cts))));
  (* Final combine of the per-cohort partial-sum roots (outsourced plans);
     in Full mode this is the single cohort's root passing straight
     through. *)
  if sum_outsourced then
    spn cfg "sum-tree" (fun () ->
        acc_ct :=
          Some (tree_reduce ~label:"tree-level" 0 (List.rev !pending_roots)));
  let sum_cts =
    match !acc_ct with Some cts -> cts | None -> err "no valid inputs"
  in
  Log.info (fun m ->
      m "aggregation done: %d accepted, %d rejected%s" !accepted !rejected
        (if sum_outsourced then " (device sum-tree)" else ""));
  (* One per-run tamper opportunity: the aggregator rewrites an aggregated
     ciphertext. Its audit commitment no longer matches, so the device
     spot-checks below catch it and the run fails closed. *)
  let ct_tampered = Fault.fires inj Fault.Ciphertext_tamper in
  (* Devices spot-check the sortition: recompute a few members' committee
     assignments from the public block and registry (§5.1). *)
  let checks = min 8 (Array.length kg_committee) in
  spn cfg "sortition-check" (fun () ->
      (* Each recomputation is pure, so they fan out; the counter and the
         first failure are read back in member order. *)
      let verdicts =
        Arb_util.Pool.map ~workers:cfg.workers checks (fun c ->
            Setup.verify_member pop ~block:cfg.block ~query_id:cfg.query_id
              ~committees:n_committees ~size:cfg.committee_size
              ~id:kg_committee.(c))
      in
      Array.iteri
        (fun c verdict ->
          match verdict with
          | Some _ ->
              trace.Trace.sortition_checks <- trace.Trace.sortition_checks + 1
          | None ->
              err "sortition verification failed for committee member %d"
                kg_committee.(c))
        verdicts);
  (* 4. Optional secrecy-of-the-sample masking. *)
  let eng_decrypt = E.create ~parties:cfg.committee_size rng () in
  let eng_ops = E.create ~parties:cfg.committee_size rng () in
  let phi = match sampled with Some (_, phi) -> phi | None -> 1.0 in
  let window = max 1 (int_of_float (Float.round (phi *. float_of_int bins))) in
  let window_start = if bins > 1 then Arb_util.Rng.int rng bins else 0 in
  let in_window b =
    let rel = (b - window_start + bins) mod bins in
    rel < window
  in
  let sum_cts =
    match (sampled, plan.Plan.crypto) with
    | Some _, Plan.Fhe ->
        spn cfg "mask" @@ fun () ->
        (* The committee's secret window mask is applied under encryption:
           a real ciphertext-by-ciphertext multiply plus relinearization,
           per ciphertext chunk. *)
        let rk = C.Bgv.relin_keygen params rng sk in
        let mask =
          Array.init slots_needed (fun slot -> if in_window (slot / cols) then 1 else 0)
        in
        Audit.record_step audit "fhe-mask";
        Array.mapi
          (fun k ct ->
            let lo = k * ring_n in
            let len = min ring_n (slots_needed - lo) in
            let mask_ct = C.Bgv.encrypt pk rng (Array.sub mask lo len) in
            trace.Trace.agg_he_muls <- trace.Trace.agg_he_muls + 1;
            C.Bgv.relinearize rk (C.Bgv.mul ct mask_ct))
          sum_cts
    | _ -> sum_cts
  in
  (* 5. Threshold decryption into the operations committee. *)
  let key_shares =
    C.Bgv.share_secret_key params rng sk ~parties:cfg.committee_size
  in
  (* Each ciphertext chunk is threshold-decrypted; the slot views are
     concatenated back into the full layout. *)
  let decrypted =
    spn cfg "decrypt" (fun () ->
        let decrypted =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun ct ->
                    let partials =
                      Array.to_list
                        (Array.map
                           (fun sh -> C.Bgv.partial_decrypt params rng sh ct)
                           key_shares)
                    in
                    C.Bgv.combine_partials params ct partials)
                  sum_cts))
        in
        Arb_mpc.Protocols.charge_bgv_decrypt eng_decrypt ~n:params.C.Bgv.n
          ~rns_primes:(List.length params.C.Bgv.q_primes) ~ciphertexts:ct_count;
        Trace.record_committee trace Trace.Decryption (E.cost eng_decrypt);
        adv cfg
          (Trace.committee_wall_clock trace cfg.latency Trace.Decryption
             ~compute_per_round:0.002);
        decrypted)
  in
  Audit.record_step audit "decrypt";
  (* Centered plaintext values (sums can be masked with negatives). *)
  let t_mod = params.C.Bgv.t in
  let center v = if v > t_mod / 2 then v - t_mod else v in
  (* Fold bins: per category, sum bins inside the window (for unsampled
     queries bins = 1 and this is the identity). *)
  let sums =
    Array.init cols (fun cat ->
        let acc = ref 0 in
        for b = 0 to bins - 1 do
          let v = center decrypted.((b * cols) + cat) in
          match (sampled, plan.Plan.crypto) with
          | None, _ -> acc := !acc + v
          | Some _, Plan.Fhe ->
              (* Mask already applied homomorphically. *)
              acc := !acc + v
          | Some _, Plan.Ahe ->
              (* Committee masks on shares: only window bins contribute. *)
              if in_window b then acc := !acc + v
        done;
        !acc)
  in
  (* Coarsened-scan variant: the plan grouped adjacent bins homomorphically
     before decryption, so downstream stages see group-resolution sums
     (each group's mass on its first bin, full width preserved). *)
  let sums =
    let groups =
      List.fold_left
        (fun acc (v : Plan.vignette) ->
          match v.Plan.work with
          | Plan.W_he_coarsen { groups; _ } -> Some groups
          | _ -> acc)
        None plan.Plan.vignettes
    in
    match groups with
    | None -> sums
    | Some groups ->
        Audit.record_step audit (Printf.sprintf "coarsen|%d" groups);
        Arb_util.Sketch.coarsen ~groups sums
  in
  (* Hand the sums from the decryption committee to the operations
     committee with real verifiable secret redistribution (§5.4): each
     decryption-committee member re-shares its Shamir share of the value to
     the operations committee with commitments; the receivers verify and
     recombine. The recombined value seeds the ops engine's sharing (and
     must equal the decrypted sum — checked as a protocol invariant). *)
  let vsr_field = C.Field.create 998244353 in
  let vsr_threshold = (cfg.committee_size - 1) / 2 in
  let vsr_handoff v =
    let centered = ((v mod vsr_field.C.Field.p) + vsr_field.C.Field.p) mod vsr_field.C.Field.p in
    let dec_shares =
      C.Shamir.share vsr_field rng ~secret:centered ~threshold:vsr_threshold
        ~parties:cfg.committee_size
    in
    let subs_and_commits =
      Array.map
        (fun sh ->
          C.Vsr.redistribute vsr_field rng sh ~new_threshold:vsr_threshold
            ~new_parties:cfg.committee_size)
        dec_shares
    in
    let sender_idxs =
      Array.to_list (Array.map (fun (s : C.Shamir.share) -> s.C.Shamir.idx) dec_shares)
    in
    (* A subshare may be corrupted in transit; Vsr.verify_subshare catches
       it against the sender's commitments and the honest sender re-sends
       the same subshare (no fresh randomness), bounded by the backoff
       budget. *)
    let corrupt_in_transit = ref (Fault.fires inj Fault.Share_corruption) in
    let rec receive attempt =
      match
        List.init cfg.committee_size (fun j ->
            let pairs =
              Array.to_list
                (Array.mapi
                   (fun sender (subs, commits) ->
                     let sub = subs.(j) in
                     let sub =
                       if !corrupt_in_transit && j = 0 && sender = 0 then
                         { sub with C.Vsr.value = sub.C.Vsr.value + 1 }
                       else sub
                     in
                     if not (C.Vsr.verify_subshare sub commits.(j)) then
                       err "VSR commitment verification failed";
                     (sub.C.Vsr.from_idx, sub.C.Vsr.value))
                   subs_and_commits)
            in
            C.Vsr.combine vsr_field ~sender_idxs pairs ~to_idx:(j + 1))
      with
      | shares -> shares
      | exception Execution_error _ when !corrupt_in_transit -> (
          match Fault.backoff inj ~attempt with
          | None -> err "VSR re-send backoff budget exhausted"
          | Some _ ->
              Pr.charge_vsr_retry eng_ops;
              Fault.record_recovery inj Fault.Share_corruption;
              corrupt_in_transit := false;
              receive (attempt + 1))
    in
    let ops_shares = receive 0 in
    let recombined =
      C.Field.center vsr_field (C.Shamir.reconstruct vsr_field ops_shares)
    in
    if recombined <> v then err "VSR hand-off corrupted a value";
    E.reshare_in eng_ops (v * fx_scale)
  in
  let shared_db_sums = spn cfg "vsr-handoff" (fun () -> Array.map vsr_handoff sums) in
  (* Byzantine minority inside the operations committee: before each share
     opening the saboteur corrupts [corrupt_parties] shares. Within the
     decoding radius the opening self-heals (robust Reed–Solomon);
     beyond it, Cheating_detected aborts the run. *)
  let sab_hits = ref 0 in
  E.set_saboteur eng_ops
    (Some
       (fun () ->
         if Fault.fires inj Fault.Share_corruption then begin
           incr sab_hits;
           List.init fspec.Fault.corrupt_parties (fun p -> p)
         end
         else []));
  (* 6. Interpret the rest of the program on shares. *)
  let st =
    {
      cfg;
      query;
      plan;
      rng;
      trace;
      inj;
      epsilon = program.L.Ast.epsilon;
      sensitivity = cert_report.L.Certify.sensitivity;
      eng_ops;
      vars = Hashtbl.create 16;
      outputs = [];
      shared_db_sums;
      sampled_var = Option.map fst sampled;
    }
  in
  (* A sampled plan's sums cover only the included devices; pair them with
     the matching N so ratios computed by the program stay unbiased. *)
  let n_for_program =
    match dphi with None -> n_devices | Some _ -> !included_devices
  in
  Hashtbl.replace st.vars "N" (R_clean (V_int n_for_program));
  Hashtbl.replace st.vars "C" (R_clean (V_int cols));
  (match sampled with
  | Some (v, _) -> Hashtbl.replace st.vars v (R_clean (V_int 0)) (* placeholder *)
  | None -> ());
  spn cfg "interpret" (fun () -> exec st program.L.Ast.body);
  (* Reaching here means every corrupted opening was corrected. *)
  E.set_saboteur eng_ops None;
  for _ = 1 to !sab_hits do
    Fault.record_recovery inj Fault.Share_corruption
  done;
  (* 7. Audit: seal; sampled devices challenge random steps. *)
  let audit_root = Audit.seal audit in
  if (cfg.tamper_aggregator || ct_tampered) && Audit.steps audit > 0 then
    Audit.tamper audit 0;
  let steps = Audit.steps audit in
  (* Auditing devices may be offline; the survivors recompute their
     challenge count so the detection bound p_max still holds. Only when
     every auditor is gone does the run degrade. *)
  let auditors =
    let alive = ref 0 in
    for _ = 1 to cfg.auditing_devices do
      if Fault.fires inj Fault.Audit_failure then
        trace.Trace.audit_devices_failed <- trace.Trace.audit_devices_failed + 1
      else incr alive
    done;
    !alive
  in
  if auditors = 0 then
    degraded "all %d auditing devices failed before the spot-check"
      cfg.auditing_devices;
  for _ = 1 to trace.Trace.audit_devices_failed do
    Fault.record_recovery inj Fault.Audit_failure
  done;
  let k = Audit.challenges_per_device ~steps ~devices:auditors ~p_max:cfg.audit_p_max in
  let audit_ok = ref true in
  spn cfg
    ~args:
      [
        ("auditors", Arb_util.Json.Int auditors);
        ("challenges", Arb_util.Json.Int (auditors * k));
      ]
    "audit"
    (fun () ->
      for _ = 1 to auditors * k do
        let i = Arb_util.Rng.int rng steps in
        let leaf, proof = Audit.respond audit i in
        trace.Trace.audits_performed <- trace.Trace.audits_performed + 1;
        if not (Audit.check ~root:audit_root ~leaf proof) then begin
          audit_ok := false;
          trace.Trace.audits_failed <- trace.Trace.audits_failed + 1
        end
      done);
  (* Wall-clock estimates for the committee MPCs under the configured
     network profile: rounds measured from the real share-level execution,
     per-round compute from the simulated ops (§7.5 methodology). *)
  let committee_wall_clock =
    List.map
      (fun kind ->
        ( kind,
          Trace.committee_wall_clock trace cfg.latency kind
            ~compute_per_round:0.002 ))
      [ Trace.Keygen; Trace.Decryption; Trace.Operations ]
  in
  trace.Trace.faults_injected <- Fault.injected_named inj;
  trace.Trace.fault_recoveries <- Fault.recovered_named inj;
  trace.Trace.fault_retries <- Fault.retries inj;
  trace.Trace.fault_backoff_s <- Fault.backoff_spent inj;
  trace.Trace.shares_corrected <- List.length (E.detected_cheaters eng_ops);
  if Fault.total_injected inj > 0 then
    Log.info (fun m -> m "fault plan absorbed: %a" Fault.pp inj);
  {
    outputs = List.rev st.outputs;
    trace;
    certificate;
    certificate_ok;
    audit_root;
    audit_ok = !audit_ok;
    accepted_inputs = !accepted;
    rejected_inputs = !rejected;
    budget_left = certificate.Setup.budget_left;
    committee_wall_clock;
  }

let execute_source cfg ~(query : Arb_queries.Registry.query) ~(plan : Plan.t)
    ~src =
  match cfg.tracer with
  | None -> execute_inner cfg ~query ~plan ~src
  | Some t ->
      (* with_span closes the root span even when the run fails closed, so
         aborted executions still serialize as well-nested traces. *)
      Arb_obs.Tracer.with_span t ~cat:"runtime"
        ~args:
          [
            ("query", Arb_util.Json.String query.Arb_queries.Registry.name);
            ("n", Arb_util.Json.Int src.n_devices);
            ("crypto", Arb_util.Json.String (Plan.crypto_name plan.Plan.crypto));
            ("seed", Arb_util.Json.String (Int64.to_string cfg.seed));
          ]
        "exec"
        (fun () -> execute_inner cfg ~query ~plan ~src)

let execute cfg ~query ~plan ~db =
  execute_source cfg ~query ~plan ~src:(source_of_db db)

type failure = { stage : string; reason : string }

let pp_failure fmt f = Format.fprintf fmt "[%s] %s" f.stage f.reason

let run_source cfg ~query ~plan ~src =
  match execute_source cfg ~query ~plan ~src with
  | report ->
      (* Fail closed: outputs are released only when both the budget
         certificate and the audit spot-checks verified. *)
      if not report.certificate_ok then
        Error
          { stage = "certificate"; reason = "budget certificate failed to verify" }
      else if not report.audit_ok then
        Error
          {
            stage = "audit";
            reason = "audit spot-checks failed; outputs withheld";
          }
      else Ok report
  | exception Execution_degraded m -> Error { stage = "degraded"; reason = m }
  | exception Execution_error m -> Error { stage = "execute"; reason = m }
  | exception E.Cheating_detected m -> Error { stage = "mpc"; reason = m }
  | exception Setup.Budget_exhausted ->
      Error { stage = "budget"; reason = "privacy budget exhausted" }

let run cfg ~query ~plan ~db = run_source cfg ~query ~plan ~src:(source_of_db db)

let plan_and_execute_source cfg ~query ~src =
  let n = src.n_devices in
  let result =
    Arb_planner.Search.plan ~limits:Arb_planner.Constraints.no_limits ~query ~n ()
  in
  match result.Arb_planner.Search.plan with
  | None -> err "planner found no plan"
  | Some plan -> execute_source cfg ~query ~plan ~src

let plan_and_execute cfg ~query ~db =
  plan_and_execute_source cfg ~query ~src:(source_of_db db)

(* ---------------- calibration ground truth ---------------- *)

(* Pair the cost model's per-section predictions with what this run
   actually measured, priced at the committee size that executed ([m] is
   [config.committee_size], not the plan's deployment-scale m — the
   calibration loop compares like with like). Every measured value is a
   deterministic function of the simulated run (MPC engine round/byte
   counts, closed-form upload bytes), so recording samples never perturbs
   byte-identity contracts. Sections where either side is zero carry no
   calibration signal and are dropped. *)
let cost_samples ~cm ~(plan : Plan.t) ~cols ~m (report : report) =
  let trace = report.trace in
  let devices = float_of_int (max 1 trace.Trace.devices_total) in
  let predicted =
    Arb_planner.Cost_model.section_costs cm
      ~n_devices:(max 1 trace.Trace.devices_total)
      ~m ~cols plan.Plan.vignettes
  in
  let wall kind =
    match List.assoc_opt kind report.committee_wall_clock with
    | Some s -> s
    | None -> 0.0
  in
  let measured = function
    | "keygen_time" -> wall Trace.Keygen
    | "keygen_bytes" -> float_of_int (Trace.mpc_bytes trace Trace.Keygen)
    | "decrypt_time" -> wall Trace.Decryption
    | "ops_time" -> wall Trace.Operations
    | "ops_bytes" -> float_of_int (Trace.mpc_bytes trace Trace.Operations)
    | "upload_bytes" -> trace.Trace.device_upload_bytes
    | _ -> 0.0
  in
  List.filter_map
    (fun (section, p) ->
      let p = if section = "upload_bytes" then p *. devices else p in
      let v = measured section in
      if p > 0.0 && v > 0.0 then Some (section, p, v) else None)
    predicted
