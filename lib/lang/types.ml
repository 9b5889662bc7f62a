module I = Arb_util.Interval

type base = Ty_int | Ty_fix | Ty_bool

type ty = { base : base; range : I.t; dims : int list }

exception Type_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

type env = {
  vars : (string, ty) Hashtbl.t;
  n : int;
  width : int;
  mutable max_bits : int;
  mutable max_cats : int;
}

let lookup env v = Hashtbl.find_opt env.vars v

let scalar base range = { base; range; dims = [] }

let note env ty =
  if ty.base = Ty_int || ty.base = Ty_fix then
    env.max_bits <- max env.max_bits (I.bits_needed ty.range);
  (match ty.dims with
  | [ k ] | [ _; k ] -> env.max_cats <- max env.max_cats k
  | _ -> ())

let join_ty a b =
  if a.base <> b.base || a.dims <> b.dims then
    (* Joining int with fix promotes; anything else is an error. *)
    match (a.base, b.base) with
    | (Ty_int | Ty_fix), (Ty_int | Ty_fix) when a.dims = b.dims ->
        { base = Ty_fix; range = I.join a.range b.range; dims = a.dims }
    | _ -> err "incompatible types at control-flow join"
  else { a with range = I.join a.range b.range }

(* Static evaluation of loop-bound expressions: literals, N, C, and
   arithmetic over already-constant variables. *)
let rec static_eval env (e : Ast.expr) : int option =
  match e with
  | Int_lit i -> Some i
  | Var "N" -> Some env.n
  | Var "C" -> Some env.width
  | Var v -> (
      match lookup env v with
      | Some { range; dims = []; _ } when range.I.lo = range.I.hi -> Some range.I.lo
      | _ -> None)
  | Binop (Add, a, b) -> Option.bind (static_eval env a) (fun x -> Option.map (( + ) x) (static_eval env b))
  | Binop (Sub, a, b) -> Option.bind (static_eval env a) (fun x -> Option.map (fun y -> x - y) (static_eval env b))
  | Binop (Mul, a, b) -> Option.bind (static_eval env a) (fun x -> Option.map (( * ) x) (static_eval env b))
  | Binop (Div, a, b) -> (
      match (static_eval env a, static_eval env b) with
      | Some x, Some y when y <> 0 -> Some (x / y)
      | _ -> None)
  | Unop (Neg, a) -> Option.map (fun x -> -x) (static_eval env a)
  | _ -> None

let promote a b =
  match (a, b) with
  | Ty_int, Ty_int -> Ty_int
  | (Ty_int | Ty_fix), (Ty_int | Ty_fix) -> Ty_fix
  | _ -> err "arithmetic on booleans"

let fix_range_of_float f =
  let r = Arb_util.Fixed.to_raw (Arb_util.Fixed.of_float f) in
  I.point r

(* Ranges for fix values are tracked in raw 2^16-scaled units so bit-width
   accounting is uniform. *)
let fix_scale = 1 lsl Arb_util.Fixed.frac_bits

(* All ranges saturate at +-2^55: runtime values live in the 30.16 fixpoint
   format (or plaintext moduli below 2^47), so nothing representable exceeds
   this, and saturation makes loop-range inference reach a fixpoint for
   accumulator patterns like [total = total + x]. *)
let range_bound = 1 lsl 55

let clamp_range (r : I.t) =
  if r.I.lo >= -range_bound && r.I.hi <= range_bound then r
  else I.make (max r.I.lo (-range_bound)) (min r.I.hi range_bound)

let rec infer_expr env (e : Ast.expr) : ty =
  let ty = infer_expr' env e in
  let ty = { ty with range = clamp_range ty.range } in
  note env ty;
  ty

and infer_expr' env (e : Ast.expr) : ty =
  match e with
  | Int_lit i -> scalar Ty_int (I.point i)
  | Fix_lit f -> scalar Ty_fix (fix_range_of_float f)
  | Bool_lit _ -> scalar Ty_bool I.bool_range
  | Var v -> (
      match lookup env v with
      | Some ty -> ty
      | None -> err "unbound variable %s" v)
  | Index (v, idxs) -> (
      match lookup env v with
      | None -> err "unbound variable %s" v
      | Some ty ->
          let depth = List.length idxs in
          if depth > List.length ty.dims then err "over-indexing %s" v;
          List.iter
            (fun i ->
              let it = infer_expr env i in
              if it.base <> Ty_int || it.dims <> [] then
                err "non-integer index into %s" v)
            idxs;
          let rec drop k dims = if k = 0 then dims else drop (k - 1) (List.tl dims) in
          { ty with dims = drop depth ty.dims })
  | Unop (Not, e) ->
      let t = infer_expr env e in
      if t.base <> Ty_bool then err "! applied to a non-boolean";
      t
  | Unop (Neg, e) ->
      let t = infer_expr env e in
      if t.base = Ty_bool then err "negating a boolean";
      { t with range = I.neg t.range }
  | Binop (op, e1, e2) -> infer_binop env op e1 e2
  | Call (f, args) -> infer_call env f (List.map (infer_expr env) args)

and infer_binop env op e1 e2 =
  let t1 = infer_expr env e1 and t2 = infer_expr env e2 in
  match op with
  | And | Or ->
      if t1.base <> Ty_bool || t2.base <> Ty_bool then err "&&/|| on non-booleans";
      scalar Ty_bool I.bool_range
  | Lt | Le | Gt | Ge | Eq | Ne ->
      if t1.dims <> [] || t2.dims <> [] then err "comparing arrays";
      scalar Ty_bool I.bool_range
  | Add | Sub | Mul | Div ->
      if t1.dims <> [] || t2.dims <> [] then err "arithmetic on whole arrays";
      let base = promote t1.base t2.base in
      (* Put both ranges on a common scale when promoting to fix. *)
      let r1 = if base = Ty_fix && t1.base = Ty_int then I.scale t1.range fix_scale else t1.range in
      let r2 = if base = Ty_fix && t2.base = Ty_int then I.scale t2.range fix_scale else t2.range in
      let range =
        match (op, base) with
        | Add, _ -> I.add r1 r2
        | Sub, _ -> I.sub r1 r2
        | Mul, Ty_int -> I.mul r1 r2
        | Div, Ty_int -> I.div r1 r2
        | Mul, _ ->
            (* fix multiply rescales by 2^-16. *)
            let wide = I.mul r1 r2 in
            I.make (wide.I.lo / fix_scale) (wide.I.hi / fix_scale)
        | Div, _ ->
            let scaled = I.scale r1 fix_scale in
            I.div scaled r2
        | (And | Or | Lt | Le | Gt | Ge | Eq | Ne), _ -> assert false
      in
      scalar base range

and infer_call _env f (args : ty list) : ty =
  match (f, args) with
  | "sum", [ { dims = [ n; k ]; base; range } ] ->
      { base; range = I.scale range n; dims = [ k ] }
  | "sum", [ { dims = [ k ]; base; range } ] ->
      { base; range = I.scale range k; dims = [] }
  | ("max" | "min"), [ ({ dims = [ _ ]; _ } as t) ] -> { t with dims = [] }
  | ("prefixSums" | "suffixSums"), [ ({ dims = [ k ]; range; _ } as t) ] ->
      { t with range = I.scale range k }
  | "argmax", [ { dims = [ k ]; _ } ] -> scalar Ty_int (I.make 0 (max 0 (k - 1)))
  | "len", [ { dims = d :: _; _ } ] -> scalar Ty_int (I.point d)
  | "abs", [ ({ dims = []; _ } as t) ] ->
      { t with range = I.make 0 (I.magnitude t.range) }
  | "clip", [ t; lo; hi ] ->
      if lo.dims <> [] || hi.dims <> [] then err "clip bounds must be scalars";
      let lo_v = lo.range.I.lo and hi_v = hi.range.I.hi in
      if lo_v > hi_v then err "clip: lo > hi";
      { t with range = I.clip t.range ~lo:lo_v ~hi:hi_v }
  | "exp", [ { dims = []; _ } ] ->
      (* e^x saturates at the fixpoint format bound. *)
      scalar Ty_fix (I.make 0 ((1 lsl 45) - 1))
  | "log", [ { dims = []; _ } ] -> scalar Ty_fix (I.make (-30 * fix_scale) (45 * fix_scale))
  | "laplace", [ ({ dims = [ _ ]; _ } as t) ] ->
      (* Noise is unbounded in theory; the runtime clips to the fixpoint
         range, which is what the range reflects (finite-range delta, §6). *)
      { t with base = Ty_fix; range = I.make (-(1 lsl 45)) (1 lsl 45) }
  | "laplace", [ { dims = []; _ } ] -> scalar Ty_fix (I.make (-(1 lsl 45)) (1 lsl 45))
  | "em", [ { dims = [ k ]; _ } ] -> scalar Ty_int (I.make 0 (max 0 (k - 1)))
  | "emGap", [ { dims = [ k ]; _ } ] ->
      { base = Ty_fix; range = I.make (-(1 lsl 45)) (max (1 lsl 45) k); dims = [ 2 ] }
  | "sampleUniform", [ ({ dims = [ n; _ ]; _ } as t); { dims = []; _ } ] ->
      ignore n;
      t
  | "declassify", [ t ] -> t
  | _ ->
      err "builtin %s applied to invalid arguments (%d)" f (List.length args)

let assign env v ty =
  note env ty;
  match Hashtbl.find_opt env.vars v with
  | None -> Hashtbl.replace env.vars v ty
  | Some old ->
      (* Joining keeps inference monotone so loops reach a fixpoint. *)
      Hashtbl.replace env.vars v (join_ty old ty)

let rec infer_stmt env (s : Ast.stmt) =
  match s with
  | Seq ss -> List.iter (infer_stmt env) ss
  | Assign (v, e) -> assign env v (infer_expr env e)
  | Assign_idx (v, idxs, e) ->
      let elem = infer_expr env e in
      if elem.dims <> [] then err "assigning an array into an element of %s" v;
      List.iter
        (fun i ->
          let it = infer_expr env i in
          if it.base <> Ty_int then err "non-integer index writing %s" v)
        idxs;
      (* The array's length is bounded by the index range's upper bound. *)
      let dim_of i =
        let it = infer_expr env i in
        max 1 (it.range.I.hi + 1)
      in
      let dims = List.map dim_of idxs in
      let ty = { elem with dims } in
      (match Hashtbl.find_opt env.vars v with
      | None -> Hashtbl.replace env.vars v ty
      | Some old when List.length old.dims = List.length dims ->
          let merged_dims = List.map2 max old.dims dims in
          let merged = join_ty { old with dims } { ty with dims } in
          Hashtbl.replace env.vars v { merged with dims = merged_dims }
      | Some _ -> err "array %s written with inconsistent dimensions" v);
      note env ty
  | Output e -> ignore (infer_expr env e)
  | If (c, s1, s2) ->
      let ct = infer_expr env c in
      if ct.base <> Ty_bool then err "if condition must be boolean";
      infer_stmt env s1;
      infer_stmt env s2
  | For (v, lo, hi, body) ->
      let lo_v =
        match static_eval env lo with
        | Some x -> x
        | None -> err "loop lower bound must be statically evaluable"
      in
      let hi_v =
        match static_eval env hi with
        | Some x -> x
        | None -> err "loop upper bound must be statically evaluable"
      in
      if hi_v < lo_v then ()
      else begin
        Hashtbl.replace env.vars v (scalar Ty_int (I.make lo_v hi_v));
        (* Iterate the abstract body to a fixpoint. Accumulator patterns
           (total = total + x) grow by a constant per pass, so after a few
           descents any still-moving bound is widened to the saturation
           bound — the classic widening-to-top step — after which joins are
           stationary. *)
        let snapshot () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.vars [] in
        let widen_moving before =
          List.iter
            (fun (k, (v : ty)) ->
              match Hashtbl.find_opt env.vars k with
              | Some v' when v'.range <> v.range ->
                  let lo =
                    if v'.range.I.lo < v.range.I.lo then -range_bound
                    else v'.range.I.lo
                  and hi =
                    if v'.range.I.hi > v.range.I.hi then range_bound
                    else v'.range.I.hi
                  in
                  Hashtbl.replace env.vars k { v' with range = I.make lo hi }
              | _ -> ())
            before
        in
        let rec iterate n =
          let before = snapshot () in
          infer_stmt env body;
          let after = snapshot () in
          let stable =
            List.length before = List.length after
            && List.for_all
                 (fun (k, v) ->
                   match List.assoc_opt k after with
                   | Some v' -> v = v'
                   | None -> false)
                 before
          in
          if stable then ()
          else begin
            if n <= 60 then widen_moving before;
            if n = 0 then err "loop range inference did not converge"
            else iterate (n - 1)
          end
        in
        iterate 64
      end

let infer (p : Ast.program) ~n =
  let width =
    match p.row with
    | Ast.One_hot k -> k
    | Ast.Bounded { width; _ } -> width
  in
  let env = { vars = Hashtbl.create 16; n; width; max_bits = 1; max_cats = 1 } in
  let row_range =
    match p.row with
    | Ast.One_hot _ -> I.bool_range
    | Ast.Bounded { lo; hi; _ } -> I.make lo hi
  in
  Hashtbl.replace env.vars "db" { base = Ty_int; range = row_range; dims = [ n; width ] };
  Hashtbl.replace env.vars "N" (scalar Ty_int (I.point n));
  Hashtbl.replace env.vars "C" (scalar Ty_int (I.point width));
  infer_stmt env p.body;
  env

let range_of env e =
  match infer_expr env e with
  | { dims = []; range; _ } -> Some range
  | _ -> None
  | exception Type_error _ -> None

let static_eval_expr = static_eval

let plaintext_bits_needed env = env.max_bits
let max_category_count env = env.max_cats
