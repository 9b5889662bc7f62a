module I = Arb_util.Interval

type report = {
  certified : bool;
  reason : string option;
  cost : Arb_dp.Budget.t;
  sensitivity : float;
  mechanism_calls : int;
}

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

(* Abstract value: is it derived from db, and if so how much can one
   participant's row move it (per-coordinate, worst case)? [hist] marks
   one-hot histogram vectors, whose partial sums stay low-sensitivity. *)
type absval = {
  tainted : bool;
  sens : float; (* infinity = not usable by a mechanism *)
  hist : bool;
  rows : bool; (* database-shaped: per-participant rows (db or a sample) *)
  sampled : float option; (* phi, if derived from a secret sample *)
}

let clean =
  { tainted = false; sens = 0.0; hist = false; rows = false; sampled = None }

let join_abs a b =
  {
    tainted = a.tainted || b.tainted;
    sens = Float.max a.sens b.sens;
    hist = a.hist && b.hist;
    rows = a.rows || b.rows;
    sampled =
      (match (a.sampled, b.sampled) with
      | None, None -> None
      | Some p, None | None, Some p -> Some p
      | Some p, Some q -> Some (Float.max p q));
  }

let combine_linear a b =
  {
    tainted = a.tainted || b.tainted;
    sens = a.sens +. b.sens;
    hist = false;
    rows = false;
    sampled = (join_abs a b).sampled;
  }

type state = {
  vars : (string, absval) Hashtbl.t;
  tenv : Types.env;
  epsilon : float;
  row_sens : float;
  mutable cost : Arb_dp.Budget.t;
  mutable max_sens : float;
  mutable calls : int;
  (* Multiplier applied to mechanism costs from enclosing loops. *)
  mutable loop_factor : float;
  (* True when inside a branch whose condition is tainted. *)
  mutable tainted_context : bool;
}

let lookup st v =
  match Hashtbl.find_opt st.vars v with Some a -> a | None -> clean

(* Per-mechanism delta from the finite-range / windowed implementations
   (§6: tails of Laplace/Gumbel cut to the representable range; 16-bit
   window in the exponentiation em). *)
let delta_per_mechanism = 1e-9

let magnitude_of st e =
  match Types.range_of st.tenv e with
  | Some r ->
      (* Ranges of fix-typed expressions are in raw 2^16 units; we cannot
         tell which here, so take the larger (raw) interpretation —
         conservative for sensitivity growth. *)
      float_of_int (I.magnitude r)
  | None -> infinity

let rec abs_expr st (e : Ast.expr) : absval =
  match e with
  | Int_lit _ | Fix_lit _ | Bool_lit _ -> clean
  | Var "db" ->
      { tainted = true; sens = infinity; hist = false; rows = true; sampled = None }
  | Var v -> lookup st v
  | Index (v, idxs) ->
      List.iter (fun i -> ignore (abs_expr st i)) idxs;
      let a = lookup st v in
      if v = "db" then
        { tainted = true; sens = infinity; hist = false; rows = false; sampled = None }
      else { a with rows = false }
  | Unop (Not, e) | Unop (Neg, e) -> abs_expr st e
  | Binop ((Add | Sub), e1, e2) -> combine_linear (abs_expr st e1) (abs_expr st e2)
  | Binop (Mul, e1, e2) -> (
      let a1 = abs_expr st e1 and a2 = abs_expr st e2 in
      match (a1.tainted, a2.tainted) with
      | false, false -> clean
      | true, true ->
          { (join_abs a1 a2) with sens = infinity; hist = false }
      | true, false ->
          { a1 with sens = a1.sens *. magnitude_of st e2; hist = false }
      | false, true ->
          { a2 with sens = a2.sens *. magnitude_of st e1; hist = false })
  | Binop (Div, e1, e2) -> (
      let a1 = abs_expr st e1 and a2 = abs_expr st e2 in
      if a2.tainted then { (join_abs a1 a2) with sens = infinity; hist = false }
      else
        match Types.range_of st.tenv e2 with
        | Some r when r.I.lo > 0 ->
            { a1 with sens = a1.sens /. float_of_int r.I.lo; hist = false }
        | Some r when r.I.hi < 0 ->
            { a1 with sens = a1.sens /. float_of_int (-r.I.hi); hist = false }
        | _ -> { a1 with sens = infinity; hist = false })
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), e1, e2) ->
      let a = join_abs (abs_expr st e1) (abs_expr st e2) in
      (* Thresholding is non-linear: a tainted comparison result can flip on
         a single row change. *)
      if a.tainted then { a with sens = infinity; hist = false } else clean
  | Call (f, args) -> abs_call st f args

and abs_call st f args =
  let arg_abs = List.map (abs_expr st) args in
  let charge_mechanism input =
    if input.tainted && input.sens = infinity then
      reject "mechanism applied to a value with unbounded sensitivity";
    let eff_eps =
      match input.sampled with
      | None -> st.epsilon
      | Some phi -> Arb_dp.Budget.amplified_epsilon ~epsilon:st.epsilon ~phi
    in
    st.cost <-
      Arb_dp.Budget.spend_all st.cost
        (Arb_dp.Budget.scale
           (Arb_dp.Budget.create ~epsilon:eff_eps ~delta:delta_per_mechanism)
           st.loop_factor);
    st.calls <- st.calls + int_of_float st.loop_factor;
    if input.tainted then st.max_sens <- Float.max st.max_sens input.sens
  in
  match (f, args, arg_abs) with
  | "sum", [ _ ], [ a ] ->
      if a.rows then
        (* Column sums over participant rows: per-coordinate sensitivity is
           the row element bound; one-hot rows give a histogram. *)
        { tainted = true; sens = st.row_sens; hist = true; rows = false;
          sampled = a.sampled }
      else if not a.tainted then clean
      else if a.hist then
        (* Summing a sub-range of a one-hot histogram: one row moves at
           most one unit in and one out. *)
        { a with sens = 2.0 *. a.sens; hist = false }
      else { a with sens = infinity; hist = false }
  | ("prefixSums" | "suffixSums"), _, [ a ] ->
      if not a.tainted then clean
      else if a.hist then
        (* Running sums of a one-hot histogram: a row change moves one unit
           across a boundary, shifting any partial sum by at most 1; keep
           the conservative factor 2. *)
        { a with sens = 2.0 *. a.sens; hist = false }
      else { a with sens = infinity; hist = false }
  | ("max" | "min" | "argmax"), _, [ a ] ->
      if a.tainted then { a with sens = infinity; hist = false } else clean
  | "len", _, _ -> clean
  | "abs", _, [ a ] -> { a with hist = false }
  | "clip", _, [ a; _; _ ] -> a
  | ("exp" | "log"), _, [ a ] ->
      if a.tainted then { a with sens = infinity; hist = false } else clean
  | "laplace", _, [ a ] ->
      charge_mechanism a;
      clean
  | "em", _, [ a ] ->
      charge_mechanism a;
      clean
  | "emGap", _, [ a ] ->
      (* Free-gap mechanism: winner and gap for one epsilon (Ding et al.). *)
      charge_mechanism a;
      clean
  | "sampleUniform", [ _; phi_expr ], [ a; _ ] -> (
      match phi_expr with
      | Ast.Fix_lit phi when phi > 0.0 && phi <= 1.0 ->
          { a with tainted = true; sens = st.row_sens; rows = true;
            sampled = Some phi }
      | _ -> reject "sampleUniform requires a literal phi in (0, 1]")
  | "declassify", _, [ a ] ->
      (* Analyst-level declassify of raw data is exactly what certification
         must prevent; mechanism results are already clean. *)
      if a.tainted then reject "declassify applied to raw sensitive data";
      a
  | _ -> reject "unknown or mis-applied builtin %s" f

let taint_assigned st stmt =
  (* Implicit flows: everything assigned under a tainted branch becomes
     unusable by mechanisms. *)
  Ast.fold_stmts
    (fun () s ->
      match s with
      | Ast.Assign (v, _) | Ast.Assign_idx (v, _, _) ->
          Hashtbl.replace st.vars v
            { tainted = true; sens = infinity; hist = false; rows = false;
              sampled = None }
      | _ -> ())
    () stmt

let rec abs_stmt st (s : Ast.stmt) =
  match s with
  | Seq ss -> List.iter (abs_stmt st) ss
  | Assign (v, e) ->
      let a = abs_expr st e in
      let a =
        if st.tainted_context then { a with tainted = true; sens = infinity }
        else a
      in
      Hashtbl.replace st.vars v
        (match Hashtbl.find_opt st.vars v with
        | Some old -> join_abs old a
        | None -> a)
  | Assign_idx (v, idxs, e) ->
      List.iter (fun i -> ignore (abs_expr st i)) idxs;
      let a = abs_expr st e in
      let a =
        if st.tainted_context then { a with tainted = true; sens = infinity }
        else a
      in
      Hashtbl.replace st.vars v
        (match Hashtbl.find_opt st.vars v with
        | Some old -> join_abs old a
        | None -> a)
  | Output e ->
      let a = abs_expr st e in
      if a.tainted then reject "output of a value not protected by a mechanism";
      if st.tainted_context then
        reject "output inside a branch on sensitive data (implicit flow)"
  | If (c, s1, s2) ->
      let ca = abs_expr st c in
      if ca.tainted then begin
        let saved = st.tainted_context in
        st.tainted_context <- true;
        taint_assigned st s1;
        taint_assigned st s2;
        abs_stmt st s1;
        abs_stmt st s2;
        st.tainted_context <- saved
      end
      else begin
        abs_stmt st s1;
        abs_stmt st s2
      end
  | For (v, lo, hi, body) ->
      let lo_v = Types.static_eval_expr st.tenv lo
      and hi_v = Types.static_eval_expr st.tenv hi in
      let trip =
        match (lo_v, hi_v) with
        | Some l, Some h -> max 0 (h - l + 1)
        | _ -> reject "loop bounds must be statically evaluable for certification"
      in
      Hashtbl.replace st.vars v clean;
      let saved = st.loop_factor in
      st.loop_factor <- st.loop_factor *. float_of_int trip;
      (* Taint state is monotone under join: iterate to a fixpoint, but the
         mechanism cost of the body is charged [trip] times via
         loop_factor, so run the body abstract semantics once for cost and
         again (cost-free) until taints stabilize. *)
      abs_stmt st body;
      st.loop_factor <- saved;
      let rec stabilize n =
        let snapshot = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.vars [] in
        let cost_before = st.cost and calls_before = st.calls in
        st.loop_factor <- 0.0;
        abs_stmt st body;
        st.loop_factor <- saved;
        st.cost <- cost_before;
        st.calls <- calls_before;
        let stable =
          List.for_all
            (fun (k, v) -> Hashtbl.find_opt st.vars k = Some v)
            snapshot
          && Hashtbl.length st.vars = List.length snapshot
        in
        if not stable && n > 0 then stabilize (n - 1)
        else if not stable then reject "taint analysis did not converge"
      in
      stabilize 16

let certify (p : Ast.program) ~n =
  let refuse reason =
    {
      certified = false;
      reason = Some reason;
      cost = Arb_dp.Budget.zero;
      sensitivity = 0.0;
      mechanism_calls = 0;
    }
  in
  let width = match p.row with Ast.One_hot c -> c | Ast.Bounded { width; _ } -> width in
  (* The analysis scales ranges by N and C, which only a non-empty
     population of non-empty rows makes meaningful. *)
  if n < 1 || width < 1 then
    refuse
      (Printf.sprintf
         "a query needs N >= 1 participants and rows of C >= 1 columns, not N = %d, C = %d"
         n width)
  else
    match Types.infer p ~n with
    | exception Types.Type_error m -> refuse ("type error: " ^ m)
    | tenv -> (
        let row_s =
          match p.row with
          | Ast.One_hot _ -> 1.0
          | Ast.Bounded { lo; hi; _ } -> float_of_int (hi - lo)
        in
        let st =
          {
            vars = Hashtbl.create 16;
            tenv;
            epsilon = p.epsilon;
            row_sens = row_s;
            cost = Arb_dp.Budget.zero;
            max_sens = 0.0;
            calls = 0;
            loop_factor = 1.0;
            tainted_context = false;
          }
        in
        match abs_stmt st p.body with
        | () ->
            {
              certified = true;
              reason = None;
              cost = st.cost;
              sensitivity = (if st.max_sens = 0.0 then row_s else st.max_sens);
              mechanism_calls = st.calls;
            }
        | exception Reject m -> refuse m)

let check p ~n =
  let r = certify p ~n in
  if r.certified then Ok r
  else Error (Option.value r.reason ~default:"not certified")
