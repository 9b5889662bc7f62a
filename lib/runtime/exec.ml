module C = Arb_crypto
module L = Arb_lang
module E = Arb_mpc.Engine
module Fm = Arb_mpc.Fixpoint_mpc
module Pr = Arb_mpc.Protocols
module Fx = Arb_util.Fixed
module J = Arb_util.Json
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
  committee_wall_clock : (Trace.committee_kind * float) list;
}

type failure = { stage : string; reason : string }

let pp_failure fmt f = Format.fprintf fmt "[%s] %s" f.stage f.reason

(* A stage that fails closed raises [Failed]; [run_source] is the only
   place that catches it. *)
exception Failed of failure

let fail stage fmt = Printf.ksprintf (fun reason -> raise (Failed { stage; reason })) fmt
let err fmt = fail "execute" fmt
let degraded fmt = fail "degraded" fmt

(* What every stage shares: the configuration, the session RNG (drawn in
   protocol order), the trace the stages charge, and the fault plan, which
   draws from its own per-kind streams (same seed) so a clean run and a
   faulted run make identical session draws up to the first recovery. *)
type ctx = { cfg : config; rng : Arb_util.Rng.t; trace : Trace.t; inj : Fault.t }

(* The run's geometry, fixed before the first protocol step. *)
type shape = {
  query : Arb_queries.Registry.query;
  plan : Plan.t;
  src : source;
  cert : L.Certify.report;
  pop : Setup.population;
  sampled : (string * float) option;  (* the sampleUniform binding and its phi *)
  cols : int;
  bins : int;
  slots : int;  (* one device's plaintext layout: cols x bins *)
  ring_n : int;
  ct_count : int;  (* ciphertexts per device: the slots in ring-sized chunks *)
  params : C.Bgv.params;
  statement : C.Zkp.statement;
  cohort_size : int;
  n_cohorts : int;
  sampled_idx : int array;  (* the materialized cohorts *)
  (* Read off the plan's vignettes ([read_vignette]): *)
  sketch : int * int;  (* count-min width and depth *)
  noise_chunk : int;  (* scores per noising committee *)
  sum_outsourced : bool;  (* devices sum their uploads in a tree (§4.3) *)
  coarsen : int option;  (* bin groups of a coarsened scan *)
}

(* --- observability helpers: no-ops when no tracer is configured --- *)

let spn cfg ?args name f =
  match cfg.tracer with
  | None -> f ()
  | Some t -> Arb_obs.Tracer.with_span t ~cat:"runtime" ?args name f

(* Advance the tracer's simulated clock (no-op for other clocks), so span
   boundaries line up with the protocol's estimated wall time. *)
let adv cfg dt = match cfg.tracer with None -> () | Some t -> Arb_obs.Tracer.advance t dt

(* ---------------- the share interpreter (interpret stage) ---------------- *)

(* Values flowing through the distributed interpreter. *)
type rvalue =
  | R_clean of L.Interp.value
  | R_svec of E.sec array (* shared fixpoint vector (raw 2^16-scaled ints) *)
  | R_sscalar of E.sec

type state = {
  ctx : ctx;
  sh : shape;
  epsilon : float;
  sensitivity : float;
  eng_ops : E.t;
  vars : (string, rvalue) Hashtbl.t;
  mutable outputs : L.Interp.value list;
  shared_db_sums : E.sec array; (* result of sum(db), prepared by the pipeline *)
  sampled_var : string option; (* variable bound by sampleUniform, if any *)
}

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

let to_sscalar st = function
  | R_sscalar s -> s
  | R_clean v -> E.const st.eng_ops (Fx.to_raw (Fx.of_float (L.Interp.as_float v)))
  | R_svec _ -> err "expected a scalar, found a vector"

let is_secret = function R_clean _ -> false | _ -> true

(* A mechanism's public operand as constant shares (which cost nothing):
   its noise, and the vignette charged for it, are a secret operand's. *)
let to_secret st = function
  | R_clean (L.Interp.V_arr a) -> R_svec (Array.map (fun v -> to_sscalar st (R_clean v)) a)
  | R_clean _ as v -> R_sscalar (to_sscalar st v)
  | v -> v

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

(* A builtin with at least one secret argument. *)
let secret_builtin st f args : rvalue =
  let eng = st.eng_ops in
  match (f, args) with
  | "sum", [ R_svec a ] -> R_sscalar (Pr.sum eng a)
  | "prefixSums", [ R_svec a ] -> R_svec (Pr.prefix_sums eng a)
  | "suffixSums", [ R_svec a ] ->
      let rev a = Array.of_list (List.rev (Array.to_list a)) in
      R_svec (rev (Pr.prefix_sums eng (rev a)))
  | "max", [ R_svec a ] -> R_sscalar (Pr.max eng a)
  | "min", [ R_svec a ] -> R_sscalar (E.neg eng (Pr.max eng (Array.map (E.neg eng) a)))
  | "argmax", [ R_svec a ] -> R_sscalar (Pr.argmax eng a)
  | "len", [ R_svec a ] -> R_clean (V_int (Array.length a))
  | "abs", [ R_sscalar s ] ->
      let neg = Fm.less_than eng s (E.const eng 0) in
      R_sscalar (E.select eng neg (E.neg eng s) s)
  | "clip", [ x; lo; hi ] ->
      let s = to_sscalar st x and lo = to_sscalar st lo and hi = to_sscalar st hi in
      let s = E.select eng (Fm.less_than eng s lo) lo s in
      R_sscalar (E.select eng (Fm.less_than eng hi s) hi s)
  | "declassify", [ R_sscalar s ] -> R_clean (V_fix (Fm.open_fixed eng s))
  | "declassify", [ v ] -> v
  | ("exp" | "log"), _ -> err "%s on secret values must go through a mechanism" f
  | _ -> err "unsupported builtin %s/%d on secret values" f (List.length args)

(* --- mechanisms: each runs as one charged vignette of the operations
   committee --- *)

(* Run [f] on the operations engine and charge what it cost there to the
   trace as one executed vignette, advancing the simulated clock by its
   rounds. *)
let charged st f =
  let open Arb_mpc.Cost in
  let b = add (E.cost st.eng_ops) (zero ()) in
  let result = f () in
  let n = E.cost st.eng_ops in
  let delta =
    {
      rounds = n.rounds - b.rounds;
      bytes_per_party = n.bytes_per_party - b.bytes_per_party;
      triples = n.triples - b.triples;
      mults = n.mults - b.mults;
      opens = n.opens - b.opens;
      comparisons = n.comparisons - b.comparisons;
      truncations = n.truncations - b.truncations;
      inputs = n.inputs - b.inputs;
      field_ops = n.field_ops - b.field_ops;
    }
  in
  let trace = st.ctx.trace and cfg = st.ctx.cfg in
  Trace.record_committee trace Trace.Operations delta;
  trace.Trace.vignettes_executed <- trace.Trace.vignettes_executed + 1;
  adv cfg
    (Net.mpc_wall_clock cfg.latency ~rounds:delta.rounds
       ~compute:(0.002 *. float_of_int delta.rounds));
  result

let laplace_mechanism st v : rvalue =
  spn st.ctx.cfg "laplace" @@ fun () ->
  let eng = st.eng_ops in
  let scale = Fx.of_float (st.sensitivity /. st.epsilon) in
  let noise_one s =
    let noised = Fm.add eng s (Fm.laplace eng ~scale) in
    L.Interp.V_fix (Fm.open_fixed eng noised)
  in
  charged st (fun () ->
      match to_secret st v with
      | R_svec a -> R_clean (V_arr (Array.map noise_one a))
      | s -> R_clean (noise_one (to_sscalar st s)))

(* Count-min variant: fold the C scores into depth x width counters on
   shares, noise and open only the counters, and pick the winner from the
   cleartext point estimates — the approximate plan's whole point is that
   width << C. Hash placement is pure in (row, category), so the counters
   are identical at any worker count. *)
let em_sketch st scores =
  let eng = st.eng_ops in
  let width, depth = st.sh.sketch in
  let n = Array.length scores in
  let counters = Array.init (depth * width) (fun _ -> E.const eng 0) in
  for c = 0 to n - 1 do
    for row = 0 to depth - 1 do
      let b = (row * width) + Arb_util.Sketch.cms_bucket ~row ~width c in
      counters.(b) <- Fm.add eng counters.(b) scores.(c)
    done
  done;
  let scale = Fx.of_float (2.0 *. st.sensitivity /. st.epsilon) in
  let noisy =
    spn st.ctx.cfg
      ~args:[ ("width", J.Int width); ("depth", J.Int depth) ]
      "sketch-noise"
      (fun () ->
        Array.map
          (fun s -> Fx.to_float (Fm.open_fixed eng (Fm.add eng s (Fm.laplace eng ~scale))))
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

(* Committee parallelism (Fig. 5): the noise chunk size chosen by the
   planner determines how many parallel committees noise the scores; each
   runs its own engine whose costs are traced separately, and the noised
   values are handed (VSR-charged) to the argmax committee. *)
let em_chunked st scores ~chunk =
  let eng = st.eng_ops and ctx = st.ctx in
  let scale = Fx.of_float (2.0 *. st.sensitivity /. st.epsilon) in
  let n = Array.length scores in
  let noised = Array.make n scores.(0) in
  (* A noising committee may lose its quorum before starting; reassignment
     picks a replacement, charged against the backoff budget like any
     other retry. *)
  let rec fresh_committee attempt =
    let committee = E.create ~parties:(E.parties eng) ctx.rng () in
    if Fault.fires ctx.inj Fault.Committee_dropout then begin
      ctx.trace.Trace.committees_reassigned <- ctx.trace.Trace.committees_reassigned + 1;
      match Fault.backoff ctx.inj ~attempt with
      | None -> err "noise-committee reassignment budget exhausted"
      | Some _ ->
          Fault.record_recovery ctx.inj Fault.Committee_dropout;
          fresh_committee (attempt + 1)
    end
    else committee
  in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk (n - !pos) in
    spn ctx.cfg ~args:[ ("chunk", J.Int len) ] "noise-committee" (fun () ->
        let committee = fresh_committee 0 in
        for k = !pos to !pos + len - 1 do
          (* The committee holds the score via a VSR hand-off, adds its
             Gumbel draw, and hands the noised value onward. *)
          let local = E.reshare_in committee (E.mirror eng scores.(k)) in
          let noisy = Fm.add committee local (Fm.gumbel committee ~scale) in
          noised.(k) <- E.reshare_in eng (E.mirror committee noisy)
        done;
        Trace.record_committee ctx.trace Trace.Operations (E.cost committee));
    pos := !pos + len
  done;
  E.open_value eng (Pr.argmax eng noised)

let em_mechanism st ~gap v : rvalue =
  spn st.ctx.cfg ~args:[ ("gap", J.Bool gap) ] "em" @@ fun () ->
  let eng = st.eng_ops in
  let epsilon = st.epsilon and sensitivity = st.sensitivity in
  let scores =
    match to_secret st v with
    | R_svec a -> a
    | _ -> err "em over a scalar"
  in
  charged st (fun () ->
      if gap then
        let w, g = Pr.em_gumbel_gap eng ~epsilon ~sensitivity scores in
        R_clean (V_arr [| V_int w; V_fix g |])
      else
        R_clean
          (V_int
             (match st.sh.plan.Plan.em_variant with
             | `Exponentiate -> Pr.em_exponentiate eng ~epsilon ~sensitivity scores
             | `Sketch -> em_sketch st scores
             | `Gumbel | `None ->
                 let chunk = st.sh.noise_chunk in
                 if chunk >= Array.length scores then
                   Pr.em_gumbel eng ~epsilon ~sensitivity scores
                 else em_chunked st scores ~chunk)))

(* --- expression evaluation: an operation on public values alone is the
   reference interpreter's; the cases below are for secret operands --- *)

let rec eval st (e : L.Ast.expr) : rvalue =
  match e with
  | Int_lit i -> R_clean (V_int i)
  | Fix_lit f -> R_clean (V_fix (Fx.of_float f))
  | Bool_lit b -> R_clean (V_bool b)
  | Var v -> lookup st v
  | Index (v, idxs) -> (
      let is = List.map (fun i -> clean_int (eval st i)) idxs in
      match (lookup st v, is) with
      | R_clean a, _ -> R_clean (L.Interp.index a is)
      | R_svec a, [ i ] when i >= 0 && i < Array.length a -> R_sscalar a.(i)
      | R_svec a, [ i ] -> err "index %d out of bounds (length %d)" i (Array.length a)
      | _ -> err "cannot index %s" v)
  | Unop (op, e) -> (
      match (op, eval st e) with
      | _, R_clean v -> R_clean (L.Interp.unop op v)
      | Neg, R_sscalar s -> R_sscalar (E.neg st.eng_ops s)
      | _ -> err "operator not supported on secret values")
  | Binop (op, e1, e2) -> (
      match eval st e1 with
      | R_clean x -> (
          match L.Interp.short_circuit op x with
          | Some v -> R_clean v
          | None -> (
              match eval st e2 with
              | R_clean y -> R_clean (L.Interp.binop op x y)
              | b -> secret_binop st op (R_clean x) b))
      | a -> secret_binop st op a (eval st e2))
  | Call (f, args) -> eval_call st f args

and eval_call st f (args : L.Ast.expr list) : rvalue =
  match (f, args) with
  | "sum", [ Var src ]
    when src = "db" || Some src = st.sampled_var ->
      R_svec st.shared_db_sums
  | "laplace", [ e ] -> laplace_mechanism st (eval st e)
  | ("em" | "emGap"), [ e ] -> em_mechanism st ~gap:(f = "emGap") (eval st e)
  | "sampleUniform", _ ->
      (* Sampling is folded into the input pipeline; the variable is bound
         by the interpret stage; reaching here means the query used it
         oddly. *)
      err "sampleUniform may only be bound to a variable and summed"
  | _ ->
      let vs = List.map (eval st) args in
      if List.exists is_secret vs then secret_builtin st f vs
      else R_clean (L.Interp.builtin f (List.map as_clean vs))

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
      let is = List.map (fun i -> clean_int (eval st i)) idxs in
      let rhs = eval st e in
      match (Hashtbl.find_opt st.vars v, is, rhs) with
      | ((None | Some (R_clean _)) as cur), _, R_clean x ->
          let cur = match cur with Some (R_clean a) -> a | _ -> L.Interp.V_arr [||] in
          Hashtbl.replace st.vars v (R_clean (L.Interp.update cur is x))
      | ((None | Some (R_clean _ | R_svec _)) as cur), [ i ], _ ->
          (* A write into a secret vector (topK masks one with a public
             value), or the first secret write into a public array, whose
             public entries become constant shares. The vector is copied,
             so other variables holding it keep their entries. *)
          let a =
            match cur with
            | Some (R_svec a) -> a
            | Some (R_clean (V_arr a)) -> Array.map (fun x -> to_sscalar st (R_clean x)) a
            | _ -> [||]
          in
          let a = L.Interp.grow_for_write a i (fun () -> E.const st.eng_ops 0) in
          a.(i) <- to_sscalar st rhs;
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
      | R_clean v -> exec st (if L.Interp.truthy v then s1 else s2)
      | _ -> err "branch on a secret value")

(* ---------------- the protocol pipeline (§5) ---------------- *)

let n_committees = 4 (* sortitioned per query (§5.1) *)
let fanout = 8 (* device sum-tree group size *)
let audit_p_max = 1e-6 (* chance a bad step escapes every auditor *)
let auditing_devices = 16 (* devices that spot-check the aggregator *)

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

let read_vignette sh (v : Plan.vignette) =
  match (v.Plan.work, v.Plan.location) with
  | Plan.W_he_sketch { width; depth; _ }, _ -> { sh with sketch = (width, depth) }
  | (Plan.W_mpc_noise { count; _ } | Plan.W_mpc_decrypt_noise { count; _ }), _ ->
      { sh with noise_chunk = min sh.noise_chunk count }
  | Plan.W_he_sum _, Plan.Committees _ -> { sh with sum_outsourced = true }
  | Plan.W_he_coarsen { groups; _ }, _ -> { sh with coarsen = Some groups }
  | _ -> sh

let cohort_population sh c = min sh.cohort_size (sh.src.n_devices - (c * sh.cohort_size))

(* Chunk [k] of a slot layout: the slots one ciphertext carries. *)
let chunk sh a k =
  let lo = k * sh.ring_n in
  Array.sub a lo (min sh.ring_n (sh.slots - lo))

(* The aggregator's running sum: the first ciphertexts start it, later ones
   accumulate into it in place. *)
let accumulate sum cts =
  match sum with None -> Some cts | Some acc -> Some (Array.map2 C.Bgv.accumulate acc cts)

(* Validate the run and fix its geometry. Cohorts: Full is the degenerate
   single materialized cohort, so both modes run the same input stage;
   sampled cohorts are spread evenly across the id space. *)
let prepare ctx ~(query : Arb_queries.Registry.query) ~plan ~src =
  let cfg = ctx.cfg and n = src.n_devices in
  if n < 4 * cfg.committee_size then
    err "need at least %d devices for %d-member committees" (4 * cfg.committee_size)
      cfg.committee_size;
  let cohort_size, n_cohorts, sampled_idx =
    match cfg.sharding with
    | Full -> (n, 1, [| 0 |])
    | Sharded { cohort_size; sampled_cohorts } ->
        if cohort_size < 1 then err "sharding: cohort_size must be >= 1";
        if sampled_cohorts < 1 then err "sharding: sampled_cohorts must be >= 1";
        let nc = (n + cohort_size - 1) / cohort_size in
        let k = min sampled_cohorts nc in
        (cohort_size, nc, Array.init k (fun j -> j * nc / k))
  in
  let program = query.Arb_queries.Registry.program in
  let cert = L.Certify.certify program ~n in
  if not cert.L.Certify.certified then
    err "query failed certification: %s" (Option.value cert.L.Certify.reason ~default:"?");
  let cols = query.Arb_queries.Registry.categories in
  let sampled = find_sampled_binding program in
  let bins =
    match sampled with None -> 1 | Some _ -> Option.value plan.Plan.sample_bins ~default:8
  in
  (* The configured ring degree is the packing unit; wider slot layouts
     split across multiple ciphertexts per device, as the paper's large-C
     queries do. The plaintext modulus grows with the population (sums up
     to N must stay exact), which shrinks the noise margin q/(2t). Past
     t = 16384 the single-prime AHE modulus no longer leaves room to
     accumulate millions of fresh ciphertexts, so large populations take
     the wider two-prime basis even for addition-only plans. *)
  let ring_n = max 16 (next_pow2 cfg.bgv_n) in
  let min_t = max 12289 (next_pow2 (4 * n)) in
  let params =
    match plan.Plan.crypto with
    | Plan.Ahe when min_t <= 16384 -> C.Bgv.ahe_params ~n:ring_n ~min_t ()
    | Plan.Ahe | Plan.Fhe -> C.Bgv.fhe_params ~n:ring_n ~min_t ()
  in
  let statement : C.Zkp.statement =
    match (program.L.Ast.row, sampled) with
    | L.Ast.One_hot len, None -> C.Zkp.One_hot { length = len }
    | L.Ast.One_hot len, Some _ -> C.Zkp.One_hot_binned { bins; length = len }
    | L.Ast.Bounded { width; lo; hi }, _ -> C.Zkp.Range { lo; hi; count = width }
  in
  let sh =
    List.fold_left read_vignette
      {
        query; plan; src; cert;
        (* The population is derived, not materialized: sortition ranks
           registry blocks, and committee members may live in cohorts the
           input stage never executes (their seeds derive on demand). *)
        pop = Setup.population ~seed:cfg.seed ~n ~byzantine_fraction:cfg.byzantine_fraction;
        sampled; cols; bins; slots = cols * bins; ring_n;
        ct_count = ((cols * bins) + ring_n - 1) / ring_n;
        params; statement; cohort_size; n_cohorts; sampled_idx;
        sketch = (256, 3); noise_chunk = max_int; sum_outsourced = false; coarsen = None;
      }
      plan.Plan.vignettes
  in
  let t = ctx.trace in
  t.Trace.devices_total <- n;
  t.Trace.cohorts_total <- n_cohorts;
  t.Trace.cohorts_sampled <- Array.length sampled_idx;
  t.Trace.devices_materialized <-
    Array.fold_left (fun acc c -> acc + cohort_population sh c) 0 sampled_idx;
  sh

(* 1. Registry + sortition: one committee per logical role. *)
let sortition ctx sh =
  let cfg = ctx.cfg in
  spn cfg "sortition" (fun () ->
      Setup.run_sortition sh.pop ~block:cfg.block ~query_id:cfg.query_id
        ~committees:n_committees ~size:cfg.committee_size)

(* Churn (§5.1): members may be offline when their committee's vignette
   starts. A committee that loses its honest-majority quorum hands its
   tasks to the next one (reassign_failed); the run only aborts if every
   committee is below quorum. An injected dropout costs the pick its
   quorum regardless of churn, and the retry is charged against the
   backoff budget. *)
let select_committee ctx assignment =
  let cfg = ctx.cfg and trace = ctx.trace in
  let quorum = (cfg.committee_size / 2) + 1 in
  let rec pick assignment ~dropout_seen attempts idx =
    if attempts >= n_committees then err "catastrophic churn: no committee retained a quorum"
    else
      let members = assignment.C.Sortition.committees.(idx) in
      let survivors =
        Array.of_list
          (List.filter
             (fun _ -> Arb_util.Rng.uniform01 ctx.rng >= cfg.churn)
             (Array.to_list members))
      in
      let dropped = Fault.fires ctx.inj Fault.Committee_dropout in
      let dropout_seen = dropout_seen || dropped in
      if (not dropped) && Array.length survivors >= quorum then begin
        if dropout_seen then Fault.record_recovery ctx.inj Fault.Committee_dropout;
        survivors
      end
      else begin
        trace.Trace.committees_reassigned <- trace.Trace.committees_reassigned + 1;
        (if dropped then
           match Fault.backoff ctx.inj ~attempt:attempts with
           | None -> err "committee reassignment backoff budget exhausted"
           | Some _ -> ());
        pick
          (C.Sortition.reassign_failed assignment ~failed:idx)
          ~dropout_seen (attempts + 1)
          ((idx + 1) mod n_committees)
      end
  in
  spn cfg "committee-select" (fun () -> pick assignment ~dropout_seen:false 0 0)

(* 2. Key generation ceremony: budget check, DKG and the signed query
   certificate. A sampled plan is charged the strictly smaller amplified
   privacy cost (privacy amplification by subsampling, §2.1). *)
let keygen ctx sh ~committee ~registry_root =
  let cfg = ctx.cfg in
  let eng = E.create ~parties:cfg.committee_size ctx.rng () in
  let plan_digest = C.Sha256.digest (Format.asprintf "%a" Plan.pp sh.plan) in
  let cost = Plan.charged sh.plan sh.cert.L.Certify.cost in
  spn cfg "keygen" (fun () ->
      let r =
        Setup.keygen_ceremony ~workers:cfg.workers ctx.rng
          ~device_seed:(Setup.device_seed sh.pop) ~committee ~params:sh.params
          ~query_id:cfg.query_id ~plan_digest ~budget:cfg.budget ~cost ~registry_root
          ~engine:eng
      in
      Pr.charge_zk_setup eng ~constraints:(3 * sh.slots);
      Trace.record_committee ctx.trace Trace.Keygen (E.cost eng);
      adv cfg (Trace.committee_wall_clock ctx.trace cfg.latency Trace.Keygen ~compute_per_round:0.002);
      r)

let check_certificate ctx sh certificate =
  let ok =
    spn ctx.cfg "certificate-check" (fun () ->
        Setup.verify_certificate ~workers:ctx.cfg.workers certificate)
  in
  Log.info (fun m ->
      m "query %d: keygen done (ring %d, t=%d, %d ct/device), certificate %s"
        ctx.cfg.query_id sh.params.C.Bgv.n sh.params.C.Bgv.t sh.ct_count
        (if ok then "verified" else "INVALID"));
  ok

(* 3. Inputs: devices encrypt and prove; the aggregator verifies and sums. *)

(* What the input stage hands on, threaded through the cohorts in id order. *)
type intake = {
  sum : C.Bgv.ciphertext array option;  (* the aggregator's running sum *)
  roots : C.Bgv.ciphertext array list;  (* cohort sum-tree roots, newest first *)
  accepted : int;
  rejected : int;
  lost : int;
  included : int;  (* devices the sampling PRF included (all, for exact plans) *)
  residual : int array;  (* the streamed cohorts' exact honest slot sums *)
  residual_devices : int;  (* honest devices folded into [residual] *)
}

let included sh gi = Setup.device_sampled sh.pop ~phi:sh.plan.Plan.device_sample gi

(* A device's private draws come from its own per-index stream
   ([Setup.device_input_rng]), in the protocol order Byzantine-flag, bin,
   encryption randomness — a pure function of (seed, id), identical
   whether its cohort is materialized or streamed, untouched by worker
   count or by any other device. *)
let draw_byzantine ctx drng = Arb_util.Rng.uniform01 drng < ctx.cfg.byzantine_fraction
let draw_bin sh drng = if sh.bins > 1 then Arb_util.Rng.int drng sh.bins else 0

let add_row sh slots ~bin row =
  Array.iteri
    (fun j v -> if j < sh.cols then slots.((bin * sh.cols) + j) <- slots.((bin * sh.cols) + j) + v)
    row

(* Device-side work of [k] devices that encrypted, proved and uploaded —
   the same closed-form charges whether they ran or were extrapolated.
   Upload bytes are the wire format's length, computed rather than
   serialized: fresh ciphertexts are degree 1. *)
let charge_devices ctx sh k =
  let t = ctx.trace in
  let upload_bytes = C.Zkp.proof_bytes + (sh.ct_count * C.Bgv.serialized_bytes sh.params 1) in
  t.Trace.device_encrypt_ops <- t.Trace.device_encrypt_ops + (k * sh.ct_count);
  t.Trace.device_proof_constraints <-
    t.Trace.device_proof_constraints + (k * C.Zkp.statement_constraints sh.statement);
  t.Trace.device_upload_bytes <- t.Trace.device_upload_bytes +. float_of_int (k * upload_bytes)

(* One device's upload: its row in its bin (all ones for a Byzantine
   device, with a forged proof), encrypted in ring-sized chunks. The proof
   statement covers the full slot layout for one-hot rows (so a device
   cannot claim several bins); range statements cover the raw row. *)
let device_upload ctx sh ~pk ~nonce gi =
  let drng = Setup.device_input_rng sh.pop gi in
  let byz = draw_byzantine ctx drng in
  let bin = draw_bin sh drng in
  let row = sh.src.row gi in
  let row = if byz then Array.map (fun _ -> 1) row else row in
  let slots = Array.make sh.slots 0 in
  add_row sh slots ~bin row;
  let rand = Array.init sh.ct_count (fun _ -> C.Bgv.sample_encrypt_randomness pk drng) in
  let witness =
    match sh.statement with
    | C.Zkp.One_hot _ | C.Zkp.One_hot_binned _ | C.Zkp.Bits _ -> slots
    | C.Zkp.Range _ -> row
  in
  let prover = string_of_int gi in
  let proof =
    if byz then C.Zkp.forge sh.statement ~prover ~nonce
    else C.Zkp.prove sh.statement ~witness ~prover ~nonce
  in
  (proof, Array.init sh.ct_count (fun k -> C.Bgv.encrypt_with_randomness pk rand.(k) (chunk sh slots k)))

(* Device sum-tree (§4.3): fold ciphertext uploads level by level in
   fanout-sized groups, each group summed by a participant device
   (attributed to device_tree_adds); the aggregator audits every vertex.
   Groups are disjoint, so their folds fan out over domains; the
   within-group fold stays sequential (the noise bookkeeping's log-sum-exp
   is float, hence order-sensitive), the merge keeps canonical group
   order, and counters stay out of the fold so it is race-free. *)
let rec tree_reduce ctx sh audit ~label level cts =
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
      let folded = Array.make (Array.length gs) [||] in
      Arb_util.Pool.run ~workers:ctx.cfg.workers (Array.length gs) (fun ~slot:_ gi ->
          match gs.(gi) with
          | [] -> assert false
          | first :: rest ->
              folded.(gi) <-
                List.fold_left (fun acc cts -> Array.map2 C.Bgv.accumulate acc cts) first rest);
      Array.iter
        (fun g ->
          ctx.trace.Trace.device_tree_adds <-
            ctx.trace.Trace.device_tree_adds + ((List.length g - 1) * sh.ct_count))
        gs;
      Audit.record_step audit (Printf.sprintf "%s|%d|%d" label level (Array.length folded));
      tree_reduce ctx sh audit ~label (level + 1) (Array.to_list folded)

(* A materialized cohort runs the real crypto path. Pass 1 fans out: each
   device's draws, row, proof and encryption are a pure function of its
   id, and a device outside the sample does no work at all. Pass 2 stays
   on the calling domain in device order: the lossy uplink (per-kind fault
   streams fire in device order), verification and aggregation. *)
let materialized_cohort ctx sh ~pk ~nonce ~link audit acc ~c ~lo ~size =
  let cfg = ctx.cfg and t = ctx.trace in
  let fspec = Fault.spec ctx.inj in
  let computed = Array.make size None in
  Arb_util.Pool.run ~workers:cfg.workers size (fun ~slot:_ k ->
      if included sh (lo + k) then computed.(k) <- Some (device_upload ctx sh ~pk ~nonce (lo + k)));
  let sum = ref acc.sum and cohort_cts = ref [] in
  let accepted = ref 0 and rejected = ref 0 and lost = ref 0 and uploaded = ref 0 in
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some (proof, cts) -> (
          incr uploaded;
          let gi = lo + k in
          (* The device did its work either way; the transmit decides
             whether the aggregator ever sees it. *)
          match
            Net.transmit link
              ~max_attempts:(fspec.Fault.max_retries + 1)
              ~backoff:(fun a -> Fault.backoff ctx.inj ~attempt:a)
          with
          | None ->
              incr lost;
              t.Trace.lost_uploads <- t.Trace.lost_uploads + 1
          | Some del ->
              if del.Net.attempts > 1 then begin
                t.Trace.upload_retries <- t.Trace.upload_retries + (del.Net.attempts - 1);
                Fault.record_recovery ctx.inj Fault.Message_drop
              end;
              t.Trace.upload_latency_s <- t.Trace.upload_latency_s +. del.Net.latency;
              adv cfg del.Net.latency;
              t.Trace.agg_proofs_verified <- t.Trace.agg_proofs_verified + 1;
              if C.Zkp.verify sh.statement proof ~prover:(string_of_int gi) ~nonce then begin
                incr accepted;
                if sh.sum_outsourced then cohort_cts := cts :: !cohort_cts
                else begin
                  if Option.is_some !sum then
                    t.Trace.agg_he_adds <- t.Trace.agg_he_adds + sh.ct_count;
                  sum := accumulate !sum cts
                end;
                if gi mod 64 = 0 then
                  Audit.record_step audit (Printf.sprintf "sum-step|%d|%d" gi sh.ct_count)
              end
              else begin
                incr rejected;
                t.Trace.agg_proofs_rejected <- t.Trace.agg_proofs_rejected + 1
              end))
    computed;
  charge_devices ctx sh !uploaded;
  let roots =
    match List.rev !cohort_cts with
    | [] -> acc.roots
    | cts -> tree_reduce ctx sh audit ~label:(Printf.sprintf "cohort-tree|%d" c) 0 cts :: acc.roots
  in
  {
    acc with
    sum = !sum;
    roots;
    accepted = acc.accepted + !accepted;
    rejected = acc.rejected + !rejected;
    lost = acc.lost + !lost;
    included = acc.included + !uploaded;
  }

(* An extrapolated cohort streams its devices without crypto. Honest rows
   fold into the exact residual slot sums (same bin layout and the same
   mod-t wrap as homomorphic accumulation); Byzantine devices contribute
   nothing, exactly as their forged proofs would be rejected in a
   materialized pass. Cost counters extrapolate from the same closed-form
   per-device costs the materialized path charges. *)
let streamed_cohort ctx sh audit acc ~c ~lo ~size =
  let t = ctx.trace in
  let byz = ref 0 and streamed = ref 0 in
  for gi = lo to lo + size - 1 do
    if included sh gi then begin
      incr streamed;
      let drng = Setup.device_input_rng sh.pop gi in
      if draw_byzantine ctx drng then incr byz
      else add_row sh acc.residual ~bin:(draw_bin sh drng) (sh.src.row gi)
    end
  done;
  let streamed = !streamed and byz = !byz in
  let honest = streamed - byz in
  let latency = float_of_int streamed *. (ctx.cfg.latency.Net.rtt /. 2.0) in
  charge_devices ctx sh streamed;
  t.Trace.agg_proofs_verified <- t.Trace.agg_proofs_verified + streamed;
  t.Trace.agg_proofs_rejected <- t.Trace.agg_proofs_rejected + byz;
  t.Trace.upload_latency_s <- t.Trace.upload_latency_s +. latency;
  adv ctx.cfg latency;
  if sh.sum_outsourced then
    t.Trace.device_tree_adds <- t.Trace.device_tree_adds + (max 0 (honest - 1) * sh.ct_count)
  else t.Trace.agg_he_adds <- t.Trace.agg_he_adds + (honest * sh.ct_count);
  Audit.record_step audit (Printf.sprintf "cohort-extrapolate|%d|%d|%d" c streamed byz);
  {
    acc with
    accepted = acc.accepted + honest;
    rejected = acc.rejected + byz;
    included = acc.included + streamed;
    residual_devices = acc.residual_devices + honest;
  }

(* Uploads travel over a link whose drops and delays come from the fault
   plan; a delay is absorbed as latency, a drop costs a retry. The fault
   streams are only consulted for materialized devices — the sharding
   fidelity contract pins injected faults inside sampled cohorts
   (DESIGN.md §11). *)
let inputs ctx sh ~pk ~certificate audit =
  let cfg = ctx.cfg and inj = ctx.inj in
  (* Only participating devices fetch the public key. *)
  let key_recipients =
    match sh.plan.Plan.device_sample with
    | None -> float_of_int sh.src.n_devices
    | Some phi -> Float.round (phi *. float_of_int sh.src.n_devices)
  in
  ctx.trace.Trace.agg_bytes_sent <-
    ctx.trace.Trace.agg_bytes_sent
    +. (key_recipients *. float_of_int (C.Bgv.public_key_bytes sh.params));
  let nonce = Setup.certificate_payload certificate in
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
  let empty =
    {
      sum = None; roots = []; accepted = 0; rejected = 0; lost = 0; included = 0;
      residual = Array.make sh.slots 0; residual_devices = 0;
    }
  in
  let intake =
    spn cfg "inputs" (fun () ->
        let acc = ref empty in
        for c = 0 to sh.n_cohorts - 1 do
          let lo = c * sh.cohort_size and size = cohort_population sh c in
          acc :=
            if Array.mem c sh.sampled_idx then
              materialized_cohort ctx sh ~pk ~nonce ~link audit !acc ~c ~lo ~size
            else streamed_cohort ctx sh audit !acc ~c ~lo ~size
        done;
        Option.iter
          (fun t ->
            Arb_obs.Tracer.add_args t
              [ ("accepted", J.Int !acc.accepted); ("rejected", J.Int !acc.rejected);
                ("lost", J.Int !acc.lost) ])
          cfg.tracer;
        !acc)
  in
  (* Fail closed rather than silently answer over a partial database: a
     lost input would change the query's true answer. *)
  if intake.lost > 0 then
    degraded "%d device upload%s lost despite %d retries" intake.lost
      (if intake.lost = 1 then "" else "s")
      fspec.Fault.max_retries;
  intake

(* Residual injection, for sharded runs with extrapolated cohorts: their
   exact honest sums, reduced mod t (matching the wrap semantics of mod-t
   homomorphic accumulation, which matters when per-slot sums exceed t)
   and encrypted once under a dedicated derived stream. After the
   homomorphic add, the aggregate decrypts to exactly what a Full run at
   the same seed produces. *)
let inject_residual ctx sh ~pk audit intake =
  if sh.n_cohorts = Array.length sh.sampled_idx then intake
  else
    spn ctx.cfg "residual-inject" (fun () ->
        let t_plain = sh.params.C.Bgv.t in
        let reduced = Array.map (fun v -> ((v mod t_plain) + t_plain) mod t_plain) intake.residual in
        let rrng = Setup.residual_rng sh.pop in
        let cts = Array.init sh.ct_count (fun k -> C.Bgv.encrypt pk rrng (chunk sh reduced k)) in
        ctx.trace.Trace.agg_he_adds <- ctx.trace.Trace.agg_he_adds + sh.ct_count;
        Audit.record_step audit (Printf.sprintf "residual-inject|%d" intake.residual_devices);
        if sh.sum_outsourced then { intake with roots = cts :: intake.roots }
        else { intake with sum = accumulate intake.sum cts })

(* The aggregate ciphertexts. Outsourced plans combine the per-cohort
   sum-tree roots; in Full mode this is the single cohort's root passing
   straight through. *)
let sum_tree ctx sh audit intake =
  let sum =
    if sh.sum_outsourced then
      spn ctx.cfg "sum-tree" (fun () ->
          Some (tree_reduce ctx sh audit ~label:"tree-level" 0 (List.rev intake.roots)))
    else intake.sum
  in
  let cts = match sum with Some cts -> cts | None -> err "no valid inputs" in
  Log.info (fun m ->
      m "aggregation done: %d accepted, %d rejected%s" intake.accepted intake.rejected
        (if sh.sum_outsourced then " (device sum-tree)" else ""));
  cts

(* Devices spot-check the sortition: recompute a few members' committee
   assignments from the public block and registry (§5.1), with one ranking
   of their shared blocks. The check does not reuse the ranking behind
   [committee]; the counter and the first failure are read in member
   order. *)
let check_sortition ctx sh committee =
  let cfg = ctx.cfg in
  let checks = min 8 (Array.length committee) in
  spn cfg "sortition-check" (fun () ->
      let verdicts =
        Setup.verify_members sh.pop ~block:cfg.block ~query_id:cfg.query_id
          ~committees:n_committees ~size:cfg.committee_size (Array.sub committee 0 checks)
      in
      Array.iteri
        (fun c -> function
          | Some _ ->
              ctx.trace.Trace.sortition_checks <- ctx.trace.Trace.sortition_checks + 1
          | None -> err "sortition verification failed for committee member %d" committee.(c))
        verdicts)

(* 4. Secrecy of the sample: the committee's hidden window of
   phi * bins consecutive bins, drawn from the session RNG. *)
let sample_window ctx sh =
  let phi = match sh.sampled with Some (_, phi) -> phi | None -> 1.0 in
  let window = max 1 (int_of_float (Float.round (phi *. float_of_int sh.bins))) in
  let start = if sh.bins > 1 then Arb_util.Rng.int ctx.rng sh.bins else 0 in
  fun b -> (b - start + sh.bins) mod sh.bins < window

(* Under FHE the window mask is applied to the aggregate under encryption:
   a real ciphertext-by-ciphertext multiply plus relinearization, per
   ciphertext chunk. AHE plans mask on shares after decryption. *)
let mask ctx sh ~sk ~pk ~in_window audit sum_cts =
  match (sh.sampled, sh.plan.Plan.crypto) with
  | Some _, Plan.Fhe ->
      spn ctx.cfg "mask" @@ fun () ->
      let rk = C.Bgv.relin_keygen sh.params ctx.rng sk in
      let mask = Array.init sh.slots (fun slot -> if in_window (slot / sh.cols) then 1 else 0) in
      Audit.record_step audit "fhe-mask";
      Array.mapi
        (fun k ct ->
          let mask_ct = C.Bgv.encrypt pk ctx.rng (chunk sh mask k) in
          ctx.trace.Trace.agg_he_muls <- ctx.trace.Trace.agg_he_muls + 1;
          C.Bgv.relinearize rk (C.Bgv.mul ct mask_ct))
        sum_cts
  | _ -> sum_cts

(* 5. Threshold decryption into the operations committee: each ciphertext
   chunk is threshold-decrypted (real partial decryptions combined) and
   the slot views are concatenated back into the full layout. *)
let decrypt ctx sh ~sk sum_cts =
  let cfg = ctx.cfg in
  let key_shares = C.Bgv.share_secret_key sh.params ctx.rng sk ~parties:cfg.committee_size in
  let eng = E.create ~parties:cfg.committee_size ctx.rng () in
  spn cfg "decrypt" (fun () ->
      let decrypted =
        Array.concat
          (Array.to_list
             (Array.map
                (fun ct ->
                  C.Bgv.combine_partials sh.params ct
                    (Array.to_list
                       (Array.map (fun s -> C.Bgv.partial_decrypt sh.params ctx.rng s ct) key_shares)))
                sum_cts))
      in
      Pr.charge_bgv_decrypt eng ~n:sh.params.C.Bgv.n
        ~rns_primes:(List.length sh.params.C.Bgv.q_primes) ~ciphertexts:sh.ct_count;
      Trace.record_committee ctx.trace Trace.Decryption (E.cost eng);
      adv cfg (Trace.committee_wall_clock ctx.trace cfg.latency Trace.Decryption ~compute_per_round:0.002);
      decrypted)

(* Per-category sums from the decrypted slots, centered (sums can be
   masked with negatives). Bins fold per category — only the window's
   bins when an AHE plan masks on shares; for unsampled queries bins = 1
   and this is the identity. A coarsened scan grouped adjacent bins
   homomorphically, so downstream stages see group-resolution sums (each
   group's mass on its first bin, full width preserved). *)
let category_sums sh ~in_window audit decrypted =
  Audit.record_step audit "decrypt";
  let t_mod = sh.params.C.Bgv.t in
  let center v = if v > t_mod / 2 then v - t_mod else v in
  let counted b =
    match (sh.sampled, sh.plan.Plan.crypto) with Some _, Plan.Ahe -> in_window b | _ -> true
  in
  let sums =
    Array.init sh.cols (fun cat ->
        let acc = ref 0 in
        for b = 0 to sh.bins - 1 do
          if counted b then acc := !acc + center decrypted.((b * sh.cols) + cat)
        done;
        !acc)
  in
  match sh.coarsen with
  | None -> sums
  | Some groups ->
      Audit.record_step audit (Printf.sprintf "coarsen|%d" groups);
      Arb_util.Sketch.coarsen ~groups sums

(* Hand the sums from the decryption committee to the operations committee
   with real verifiable secret redistribution (§5.4): each decryption-
   committee member re-shares its Shamir share of the value with
   commitments; the receivers verify and recombine. The recombined value
   seeds the operations engine's sharing and must equal the decrypted sum,
   a protocol invariant. *)
let vsr_handoff ctx eng_ops sums =
  let m = ctx.cfg.committee_size in
  let field = C.Field.create 998244353 in
  let p = field.C.Field.p and threshold = (m - 1) / 2 in
  let handoff v =
    let dec_shares =
      C.Shamir.share field ctx.rng ~secret:(((v mod p) + p) mod p) ~threshold ~parties:m
    in
    let sent =
      Array.map
        (fun sh -> C.Vsr.redistribute field ctx.rng sh ~new_threshold:threshold ~new_parties:m)
        dec_shares
    in
    let sender_idxs = Array.to_list (Array.map (fun (s : C.Shamir.share) -> s.C.Shamir.idx) dec_shares) in
    (* The first sender's subshare to the first receiver may be corrupted
       in transit; the receiver's commitment check catches it, and the
       honest sender re-sends the same subshare (no fresh randomness),
       bounded by the backoff budget. *)
    let received ~corrupt j sender =
      let sub = (fst sent.(sender)).(j) in
      if corrupt && j = 0 && sender = 0 then { sub with C.Vsr.value = sub.C.Vsr.value + 1 } else sub
    in
    let verified ~corrupt =
      List.for_all
        (fun j ->
          Array.for_all Fun.id
            (Array.mapi (fun s (_, commits) -> C.Vsr.verify_subshare (received ~corrupt j s) commits.(j)) sent))
        (List.init m Fun.id)
    in
    let rec receive attempt ~corrupt =
      if verified ~corrupt then
        List.init m (fun j ->
            let pairs =
              List.init (Array.length sent) (fun s ->
                  let sub = received ~corrupt j s in
                  (sub.C.Vsr.from_idx, sub.C.Vsr.value))
            in
            C.Vsr.combine field ~sender_idxs pairs ~to_idx:(j + 1))
      else if not corrupt then err "VSR commitment verification failed"
      else
        match Fault.backoff ctx.inj ~attempt with
        | None -> err "VSR re-send backoff budget exhausted"
        | Some _ ->
            Pr.charge_vsr_retry eng_ops;
            Fault.record_recovery ctx.inj Fault.Share_corruption;
            receive (attempt + 1) ~corrupt:false
    in
    let shares = receive 0 ~corrupt:(Fault.fires ctx.inj Fault.Share_corruption) in
    if C.Field.center field (C.Shamir.reconstruct field shares) <> v then
      err "VSR hand-off corrupted a value";
    E.reshare_in eng_ops (v * fx_scale)
  in
  spn ctx.cfg "vsr-handoff" (fun () -> Array.map handoff sums)

(* 6. Interpret the rest of the program on shares. A Byzantine minority
   inside the operations committee corrupts [corrupt_parties] shares
   before each opening the fault plan picks: within the decoding radius
   the opening self-heals (robust Reed–Solomon); beyond it,
   Cheating_detected aborts the run. *)
let interpret ctx sh eng_ops ~included shared_db_sums =
  let corrupt_parties = (Fault.spec ctx.inj).Fault.corrupt_parties in
  let sab_hits = ref 0 in
  E.set_saboteur eng_ops
    (Some
       (fun () ->
         if Fault.fires ctx.inj Fault.Share_corruption then begin
           incr sab_hits;
           List.init corrupt_parties Fun.id
         end
         else []));
  let program = sh.query.Arb_queries.Registry.program in
  let st =
    {
      ctx; sh; eng_ops; shared_db_sums;
      epsilon = program.L.Ast.epsilon;
      sensitivity = sh.cert.L.Certify.sensitivity;
      vars = Hashtbl.create 16;
      outputs = [];
      sampled_var = Option.map fst sh.sampled;
    }
  in
  (* A sampled plan's sums cover only the included devices; pair them with
     the matching N so ratios computed by the program stay unbiased. *)
  let n = match sh.plan.Plan.device_sample with None -> sh.src.n_devices | Some _ -> included in
  Hashtbl.replace st.vars "N" (R_clean (V_int n));
  Hashtbl.replace st.vars "C" (R_clean (V_int sh.cols));
  Option.iter (fun v -> Hashtbl.replace st.vars v (R_clean (V_int 0))) st.sampled_var;
  spn ctx.cfg "interpret" (fun () -> exec st program.L.Ast.body);
  (* Reaching here means every corrupted opening was corrected. *)
  E.set_saboteur eng_ops None;
  for _ = 1 to !sab_hits do
    Fault.record_recovery ctx.inj Fault.Share_corruption
  done;
  List.rev st.outputs

(* 7. Audit (§5.3): the aggregator seals its log and auditing devices
   challenge random steps. The run's one tamper opportunity: a Byzantine
   aggregator rewrites a committed step, so the spot-checks fail. Offline
   auditors hand their load to the survivors, which recompute their
   challenge count so the detection bound p_max still holds; only when
   every auditor is gone does the run degrade. *)
let run_audit ctx audit =
  let t = ctx.trace in
  let root = Audit.seal audit in
  if Fault.fires ctx.inj Fault.Ciphertext_tamper && Audit.steps audit > 0 then Audit.tamper audit 0;
  let steps = Audit.steps audit in
  let auditors = ref 0 in
  for _ = 1 to auditing_devices do
    if Fault.fires ctx.inj Fault.Audit_failure then
      t.Trace.audit_devices_failed <- t.Trace.audit_devices_failed + 1
    else incr auditors
  done;
  let auditors = !auditors in
  if auditors = 0 then
    degraded "all %d auditing devices failed before the spot-check" auditing_devices;
  for _ = 1 to t.Trace.audit_devices_failed do
    Fault.record_recovery ctx.inj Fault.Audit_failure
  done;
  let challenges =
    auditors * Audit.challenges_per_device ~steps ~devices:auditors ~p_max:audit_p_max
  in
  spn ctx.cfg
    ~args:[ ("auditors", J.Int auditors); ("challenges", J.Int challenges) ]
    "audit"
    (fun () ->
      (* A step's outcome is a pure function of its index once the log is
         sealed (and tampered, if it is): each step drawn is proven and
         checked once, and a repeat draw counts that outcome again. *)
      let outcome = Array.make steps None in
      for _ = 1 to challenges do
        let i = Arb_util.Rng.int ctx.rng steps in
        let ok =
          match outcome.(i) with
          | Some ok -> ok
          | None ->
              let leaf, proof = Audit.respond audit i in
              let ok = Audit.check ~root ~leaf proof in
              outcome.(i) <- Some ok;
              ok
        in
        t.Trace.audits_performed <- t.Trace.audits_performed + 1;
        if not ok then t.Trace.audits_failed <- t.Trace.audits_failed + 1
      done);
  (root, t.Trace.audits_failed = 0)

let execute cfg ~query ~plan ~src =
  let ctx =
    {
      cfg;
      rng = Arb_util.Rng.create cfg.seed;
      trace = Trace.create ();
      inj = Fault.create ~seed:cfg.seed cfg.faults;
    }
  in
  let trace = ctx.trace and inj = ctx.inj in
  let sh = prepare ctx ~query ~plan ~src in
  let assignment = sortition ctx sh in
  let committee = select_committee ctx assignment in
  let sk, pk, certificate =
    keygen ctx sh ~committee ~registry_root:assignment.C.Sortition.registry_root
  in
  let certificate_ok = check_certificate ctx sh certificate in
  let audit = Audit.create () in
  let intake = inject_residual ctx sh ~pk audit (inputs ctx sh ~pk ~certificate audit) in
  let sum_cts = sum_tree ctx sh audit intake in
  check_sortition ctx sh committee;
  let in_window = sample_window ctx sh in
  let sum_cts = mask ctx sh ~sk ~pk ~in_window audit sum_cts in
  let sums = category_sums sh ~in_window audit (decrypt ctx sh ~sk sum_cts) in
  let eng_ops = E.create ~parties:cfg.committee_size ctx.rng () in
  let shared_db_sums = vsr_handoff ctx eng_ops sums in
  let outputs = interpret ctx sh eng_ops ~included:intake.included shared_db_sums in
  let audit_root, audit_ok = run_audit ctx audit in
  (* Wall-clock estimates for the committee MPCs under the configured
     network profile: rounds measured from the real share-level execution,
     per-round compute from the simulated ops (§7.5 methodology). *)
  let committee_wall_clock =
    List.map
      (fun kind ->
        (kind, Trace.committee_wall_clock trace cfg.latency kind ~compute_per_round:0.002))
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
    outputs;
    trace;
    certificate;
    certificate_ok;
    audit_root;
    audit_ok;
    accepted_inputs = intake.accepted;
    rejected_inputs = intake.rejected;
    committee_wall_clock;
  }

let run_source cfg ~(query : Arb_queries.Registry.query) ~(plan : Plan.t) ~src =
  let args =
    [
      ("query", J.String query.Arb_queries.Registry.name);
      ("n", J.Int src.n_devices);
      ("crypto", J.String (Plan.crypto_name plan.Plan.crypto));
      ("seed", J.String (Int64.to_string cfg.seed));
    ]
  in
  (* The root span closes even when the run fails closed, so aborted
     executions still serialize as well-nested traces. Outputs are
     released only when both the budget certificate and the audit
     spot-checks verified. *)
  match spn cfg ~args "exec" (fun () -> execute cfg ~query ~plan ~src) with
  | r when not r.certificate_ok ->
      Error { stage = "certificate"; reason = "budget certificate failed to verify" }
  | r when not r.audit_ok ->
      Error
        {
          stage = "audit";
          reason =
            Printf.sprintf "%d of %d audit spot-checks failed; outputs withheld"
              r.trace.Trace.audits_failed r.trace.Trace.audits_performed;
        }
  | r -> Ok r
  | exception Failed f -> Error f
  | exception L.Interp.Runtime_error reason -> Error { stage = "execute"; reason }
  | exception E.Cheating_detected reason -> Error { stage = "mpc"; reason }
  | exception Setup.Budget_exhausted ->
      Error { stage = "budget"; reason = "privacy budget exhausted" }

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
