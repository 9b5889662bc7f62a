open Ast

(* Precedence levels, matching the parser: 1 ||, 2 &&, 3 cmp, 4 +-, 5 */,
   6 unary, 7 atoms. *)
let prec_of = function
  | Or -> 1
  | And -> 2
  | Lt | Le | Gt | Ge | Eq | Ne -> 3
  | Add | Sub -> 4
  | Mul | Div -> 5

let rec expr_prec e =
  match e with
  | Int_lit _ | Bool_lit _ | Var _ | Index _ | Call _ -> 7
  | Fix_lit f -> if f < 0.0 then 6 else 7
  | Unop _ -> 6
  | Binop (op, _, _) -> prec_of op

and expr_at level e =
  let s = expr_raw e in
  if expr_prec e < level then "(" ^ s ^ ")" else s

and expr_raw = function
  | Int_lit i -> if i < 0 then Printf.sprintf "(%d)" i else string_of_int i
  | Fix_lit f ->
      let s = Printf.sprintf "%g" f in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Bool_lit b -> string_of_bool b
  | Var v -> v
  | Index (v, idxs) ->
      v ^ String.concat "" (List.map (fun e -> "[" ^ expr_raw e ^ "]") idxs)
  | Call (f, args) -> f ^ "(" ^ String.concat ", " (List.map expr_raw args) ^ ")"
  | Unop (op, e) -> unop_name op ^ expr_at 6 e
  | Binop (op, e1, e2) ->
      let p = prec_of op in
      (* Left-associative: the right operand needs strictly higher
         precedence except for the right-nested || and && chains the parser
         produces. *)
      let right_level = match op with Or | And -> p | _ -> p + 1 in
      expr_at p e1 ^ " " ^ binop_name op ^ " " ^ expr_at right_level e2

let expr = expr_raw

let rec stmt_lines indent s =
  let pad = String.make (2 * indent) ' ' in
  match s with
  | Seq ss -> List.concat_map (stmt_lines indent) ss
  | Assign (v, e) -> [ pad ^ v ^ " = " ^ expr e ^ ";" ]
  | Assign_idx (v, idxs, e) ->
      [
        pad ^ v
        ^ String.concat "" (List.map (fun i -> "[" ^ expr i ^ "]") idxs)
        ^ " = " ^ expr e ^ ";";
      ]
  | Output e -> [ pad ^ "output(" ^ expr e ^ ");" ]
  | For (v, lo, hi, body) ->
      [ pad ^ "for " ^ v ^ " = " ^ expr lo ^ " to " ^ expr hi ^ " do" ]
      @ stmt_lines (indent + 1) body
      @ [ pad ^ "endfor" ]
  | If (c, s1, Seq []) ->
      [ pad ^ "if " ^ expr c ^ " then" ]
      @ stmt_lines (indent + 1) s1
      @ [ pad ^ "endif" ]
  | If (c, s1, s2) ->
      [ pad ^ "if " ^ expr c ^ " then" ]
      @ stmt_lines (indent + 1) s1
      @ [ pad ^ "else" ]
      @ stmt_lines (indent + 1) s2
      @ [ pad ^ "endif" ]

let stmt s = String.concat "\n" (stmt_lines 0 s) ^ "\n"
