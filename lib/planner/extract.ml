type aop =
  | A_sum of { cols : int; sampled_phi : float option }
  | A_scan of { cols : int }
  | A_affine of { cols : int }
  | A_nonlinear of { cols : int }
  | A_laplace of { count : int }
  | A_em of { cols : int; gap : bool; rounds : int }
  | A_mask of { cols : int }
  | A_post of { flops : int; outputs : int }

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let describe = function
  | A_sum { cols; sampled_phi = None } -> Printf.sprintf "sum[%d]" cols
  | A_sum { cols; sampled_phi = Some phi } ->
      Printf.sprintf "sampledSum[%d, phi=%.2f]" cols phi
  | A_scan { cols } -> Printf.sprintf "scan[%d]" cols
  | A_affine { cols } -> Printf.sprintf "affine[%d]" cols
  | A_nonlinear { cols } -> Printf.sprintf "nonlinear[%d]" cols
  | A_laplace { count } -> Printf.sprintf "laplace[%d]" count
  | A_em { cols; gap; rounds } ->
      Printf.sprintf "em%s[%d]%s" (if gap then "Gap" else "") cols
        (if rounds > 1 then Printf.sprintf " x%d" rounds else "")
  | A_mask { cols } -> Printf.sprintf "mask[%d]" cols
  | A_post { flops; outputs } -> Printf.sprintf "post[%d flops, %d outputs]" flops outputs

(* Confidentiality kind of each variable. *)
type vkind = K_clean | K_enc | K_rows of float option

type ctx = {
  kinds : (string, vkind) Hashtbl.t;
  tenv : Arb_lang.Types.env;
  mutable acc : aop list; (* reversed *)
}

let kind_of ctx v =
  if v = "db" then K_rows None
  else match Hashtbl.find_opt ctx.kinds v with Some k -> k | None -> K_clean

let dims_of ctx v =
  match Arb_lang.Types.lookup ctx.tenv v with
  | Some ty -> ty.Arb_lang.Types.dims
  | None -> []

let cols_of_var ctx v =
  match dims_of ctx v with
  | [ k ] -> k
  | [] -> 1
  | _ -> fail "expected a vector or scalar in %s" v

(* Expression classification: how does evaluating it mix confidential and
   public data? *)
let rec classify ctx (e : Arb_lang.Ast.expr) : [ `Clean | `Affine | `Nonlinear ] =
  match e with
  | Int_lit _ | Fix_lit _ | Bool_lit _ -> `Clean
  | Var v | Index (v, _) -> (
      match kind_of ctx v with
      | K_clean -> `Clean
      | K_enc -> `Affine
      | K_rows _ -> `Affine)
  | Unop (Neg, e) -> classify ctx e
  | Unop (Not, e) -> ( match classify ctx e with `Clean -> `Clean | _ -> `Nonlinear)
  | Binop ((Add | Sub), e1, e2) -> max_kind (classify ctx e1) (classify ctx e2)
  | Binop (Mul, e1, e2) | Binop (Div, e1, e2) -> (
      match (classify ctx e1, classify ctx e2) with
      | `Clean, `Clean -> `Clean
      | `Affine, `Clean | `Clean, `Affine -> `Affine
      | _ -> `Nonlinear)
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), e1, e2) -> (
      match max_kind (classify ctx e1) (classify ctx e2) with
      | `Clean -> `Clean
      | _ -> `Nonlinear)
  | Call ("abs", [ e ]) | Call ("exp", [ e ]) | Call ("log", [ e ])
  | Call (("max" | "min" | "argmax"), [ e ]) -> (
      (* Aggregations over confidential vectors need comparisons. *)
      match classify ctx e with `Clean -> `Clean | _ -> `Nonlinear)
  | Call (("clip" | "declassify"), e :: _) -> classify ctx e
  | Call (("len"), _) -> `Clean
  | Call (f, _) -> fail "builtin %s not allowed inside expressions here" f

and max_kind a b =
  match (a, b) with
  | `Nonlinear, _ | _, `Nonlinear -> `Nonlinear
  | `Affine, _ | _, `Affine -> `Affine
  | `Clean, `Clean -> `Clean

let emit ctx op = ctx.acc <- op :: ctx.acc

(* Merge adjacent compatible operators to keep plans small. *)
let merge ops =
  let rec go = function
    | A_affine { cols = a } :: A_affine { cols = b } :: rest ->
        go (A_affine { cols = a + b } :: rest)
    | A_nonlinear { cols = a } :: A_nonlinear { cols = b } :: rest ->
        go (A_nonlinear { cols = a + b } :: rest)
    | A_affine { cols = a } :: A_nonlinear { cols = b } :: rest
    | A_nonlinear { cols = b } :: A_affine { cols = a } :: rest ->
        (* A mixed transform segment is priced at its dearest kind. *)
        go (A_nonlinear { cols = a + b } :: rest)
    | A_laplace { count = a } :: A_laplace { count = b } :: rest ->
        go (A_laplace { count = a + b } :: rest)
    | A_mask { cols = a } :: A_mask { cols = b } :: rest ->
        go (A_mask { cols = max a b } :: rest)
    (* Public postprocessing commutes with re-masking the encrypted
       vector; normalizing the order lets repeated em rounds fold. *)
    | A_mask m :: A_post p :: rest -> go (A_post p :: A_mask m :: rest)
    | A_post { flops = f1; outputs = o1 } :: A_post { flops = f2; outputs = o2 } :: rest ->
        go (A_post { flops = f1 + f2; outputs = o1 + o2 } :: rest)
    (* Identical em rounds separated by a public re-mask (topK) share one
       instantiation: fold them into a single repeated operator. This is a
       §4.4-style space reduction; the runtime unrolls it again. *)
    | A_em { cols = c1; gap = g1; rounds = r1 }
      :: A_post { flops; outputs }
      :: A_mask { cols = mc }
      :: A_em { cols = c2; gap = g2; rounds = r2 }
      :: rest
      when c1 = c2 && g1 = g2 ->
        go
          (A_em { cols = c1; gap = g1; rounds = r1 + r2 }
          :: A_post { flops = 2 * flops; outputs = 2 * outputs }
          :: A_mask { cols = mc }
          :: rest)
    | x :: rest -> x :: go rest
    | [] -> []
  in
  (* Iterate to a fixpoint; the mixed rule can enable further merges. *)
  let rec fix ops =
    let ops' = go ops in
    if ops' = ops then ops else fix ops'
  in
  fix ops

let trip ctx lo hi =
  match
    (Arb_lang.Types.static_eval_expr ctx.tenv lo, Arb_lang.Types.static_eval_expr ctx.tenv hi)
  with
  | Some l, Some h -> max 0 (h - l + 1)
  | _ -> fail "loop bounds must be static"

(* Whether [s] calls any of the builtins [names] outside a branch
   condition. *)
let rec stmt_calls names (s : Arb_lang.Ast.stmt) =
  let expr_calls e =
    Arb_lang.Ast.fold_exprs
      (fun acc e ->
        acc
        || match e with Arb_lang.Ast.Call (f, _) -> List.mem f names | _ -> false)
      false e
  in
  match s with
  | Seq ss -> List.exists (stmt_calls names) ss
  | For (_, _, _, body) -> stmt_calls names body
  | If (_, s1, s2) -> stmt_calls names s1 || stmt_calls names s2
  | Assign (_, e) | Output e -> expr_calls e
  | Assign_idx (_, idxs, e) -> List.exists expr_calls (idxs @ [ e ])

let cols_of_expr ctx (e : Arb_lang.Ast.expr) =
  match e with
  | Var v -> cols_of_var ctx v
  | _ -> 1

let rec walk ctx ~mult (s : Arb_lang.Ast.stmt) =
  match s with
  | Seq ss -> List.iter (walk ctx ~mult) ss
  | Output (Call (("em" | "emGap" | "laplace"), _) as e) ->
      (* output(mechanism(...)) without an intermediate binding: desugar to
         a temporary assignment so the mechanism operator is extracted. *)
      walk_assign ctx ~mult "__mech_out" e;
      emit ctx (A_post { flops = mult; outputs = mult })
  | Output e -> (
      match classify ctx e with
      | `Clean -> emit ctx (A_post { flops = mult; outputs = mult })
      | _ -> fail "output of confidential data (should have been rejected)")
  | If (c, s1, s2) -> (
      match classify ctx c with
      | `Clean ->
          walk ctx ~mult s1;
          walk ctx ~mult s2
      | _ -> fail "branch on confidential data")
  | For (v, lo, hi, body) ->
      let k = trip ctx lo hi in
      Hashtbl.replace ctx.kinds v K_clean;
      if k = 0 then ()
      else if not (stmt_calls [ "laplace"; "em"; "emGap" ] body) then begin
        (* Pure transform loop: one aggregate operator for the whole loop.
           Kinds must be propagated through the body first so temporaries
           like median's [d] are known confidential when classified. *)
        infer_kinds ctx body;
        let kind = classify_body ctx body in
        let writes = count_enc_writes body in
        let outputs = mult * k * count_outputs body in
        match kind with
        | `Clean -> emit ctx (A_post { flops = mult * k * writes; outputs })
        | `Affine ->
            emit ctx (A_affine { cols = mult * k * writes });
            if outputs > 0 then emit ctx (A_post { flops = 0; outputs })
        | `Nonlinear ->
            emit ctx (A_nonlinear { cols = mult * k * writes });
            if outputs > 0 then emit ctx (A_post { flops = 0; outputs })
      end
      else if stmt_calls [ "em"; "emGap" ] body then begin
        if k > 64 then fail "em loop with more than 64 iterations";
        for _ = 1 to k do
          walk ctx ~mult body
        done
      end
      else
        (* Laplace-bearing loop: aggregate rather than unroll. *)
        walk ctx ~mult:(mult * k) body
  | Assign (v, e) -> walk_assign ctx ~mult v e
  | Assign_idx (v, _idxs, e) -> (
      (* Element write: what does it do to the target's kind? *)
      match (kind_of ctx v, classify ctx e) with
      | K_enc, `Clean ->
          (* Public masking of an encrypted vector (topK). *)
          emit ctx (A_mask { cols = cols_of_var ctx v });
          Hashtbl.replace ctx.kinds v K_enc
      | _, `Clean -> Hashtbl.replace ctx.kinds v (kind_of ctx v)
      | _, `Affine ->
          emit ctx (A_affine { cols = mult });
          Hashtbl.replace ctx.kinds v K_enc
      | _, `Nonlinear ->
          emit ctx (A_nonlinear { cols = mult });
          Hashtbl.replace ctx.kinds v K_enc)

and infer_kinds ctx (s : Arb_lang.Ast.stmt) =
  (* Two passes are enough for straight-line bodies with forward flow. *)
  let pass () =
    Arb_lang.Ast.fold_stmts
      (fun () st ->
        match st with
        | Arb_lang.Ast.Assign (v, e) | Arb_lang.Ast.Assign_idx (v, _, e) -> (
            match classify ctx e with
            | `Clean -> ()
            | `Affine | `Nonlinear -> Hashtbl.replace ctx.kinds v K_enc)
        | _ -> ())
      () s
  in
  pass ();
  pass ()

and count_outputs (s : Arb_lang.Ast.stmt) =
  Arb_lang.Ast.fold_stmts
    (fun acc st -> match st with Arb_lang.Ast.Output _ -> acc + 1 | _ -> acc)
    0 s

and classify_body ctx (s : Arb_lang.Ast.stmt) : [ `Clean | `Affine | `Nonlinear ] =
  match s with
  | Seq ss -> List.fold_left (fun acc s -> max_kind acc (classify_body ctx s)) `Clean ss
  | Assign (_, e) | Assign_idx (_, _, e) -> classify ctx e
  | Output _ -> `Clean
  | If (c, s1, s2) ->
      max_kind (classify ctx c) (max_kind (classify_body ctx s1) (classify_body ctx s2))
  | For (_, _, _, body) -> classify_body ctx body

(* Every write counts, whatever its kind: the caller's [classify_body]
   has already classified (and vetted) each written expression. *)
and count_enc_writes (s : Arb_lang.Ast.stmt) =
  match s with
  | Seq ss -> List.fold_left (fun acc s -> acc + count_enc_writes s) 0 ss
  | Assign _ | Assign_idx _ -> 1
  | Output _ -> 0
  | If (_, s1, s2) -> max (count_enc_writes s1) (count_enc_writes s2)
  | For (_, _, _, body) -> count_enc_writes body

and walk_assign ctx ~mult v (e : Arb_lang.Ast.expr) =
  match e with
  | Call ("sum", [ arg ]) -> (
      match arg with
      | Var src -> (
          match kind_of ctx src with
          | K_rows phi ->
              emit ctx (A_sum { cols = cols_of_var ctx v; sampled_phi = phi });
              Hashtbl.replace ctx.kinds v K_enc
          | K_enc ->
              emit ctx (A_scan { cols = cols_of_var ctx src });
              Hashtbl.replace ctx.kinds v K_enc
          | K_clean -> Hashtbl.replace ctx.kinds v K_clean)
      | _ -> fail "sum over a non-variable")
  | Call (("prefixSums" | "suffixSums"), [ Var src ]) -> (
      match kind_of ctx src with
      | K_enc | K_rows _ ->
          emit ctx (A_scan { cols = cols_of_var ctx src });
          Hashtbl.replace ctx.kinds v K_enc
      | K_clean -> Hashtbl.replace ctx.kinds v K_clean)
  | Call ("sampleUniform", [ Var "db"; Fix_lit phi ]) ->
      Hashtbl.replace ctx.kinds v (K_rows (Some phi))
  | Call ("laplace", [ arg ]) ->
      let count =
        match arg with Var src -> cols_of_var ctx src | _ -> 1
      in
      (match classify ctx arg with
      | `Nonlinear -> fail "laplace over a nonlinear expression"
      | _ -> ());
      emit ctx (A_laplace { count = mult * count });
      Hashtbl.replace ctx.kinds v K_clean
  | Call (("em" | "emGap") as f, [ arg ]) ->
      let cols = cols_of_expr ctx arg in
      emit ctx (A_em { cols = mult * cols / max 1 mult; gap = f = "emGap"; rounds = 1 });
      if mult > 1 then fail "em inside a non-unrolled loop";
      Hashtbl.replace ctx.kinds v K_clean
  | _ -> (
      match classify ctx e with
      | `Clean -> Hashtbl.replace ctx.kinds v K_clean
      | `Affine ->
          emit ctx (A_affine { cols = mult });
          Hashtbl.replace ctx.kinds v K_enc
      | `Nonlinear ->
          emit ctx (A_nonlinear { cols = mult });
          Hashtbl.replace ctx.kinds v K_enc)

let ops (p : Arb_lang.Ast.program) ~n =
  let tenv =
    try Arb_lang.Types.infer p ~n
    with Arb_lang.Types.Type_error m -> fail "type error: %s" m
  in
  let ctx = { kinds = Hashtbl.create 16; tenv; acc = [] } in
  walk ctx ~mult:1 p.body;
  merge (List.rev ctx.acc)
