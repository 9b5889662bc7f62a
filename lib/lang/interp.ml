module Fx = Arb_util.Fixed

type value =
  | V_int of int
  | V_fix of Fx.t
  | V_bool of bool
  | V_arr of value array

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let rec value_to_string = function
  | V_int i -> string_of_int i
  | V_fix f -> Fx.to_string f
  | V_bool b -> string_of_bool b
  | V_arr a ->
      "["
      ^ String.concat "; " (Array.to_list (Array.map value_to_string a))
      ^ "]"

let as_int = function
  | V_int i -> i
  | V_fix f -> Fx.to_int f
  | V_bool b -> if b then 1 else 0
  | V_arr _ -> err "expected a scalar, got an array"

let as_float = function
  | V_int i -> float_of_int i
  | V_fix f -> Fx.to_float f
  | V_bool b -> if b then 1.0 else 0.0
  | V_arr _ -> err "expected a scalar, got an array"

(* --- the public-value primitives [eval] and [exec] are built from --- *)

let truthy = function
  | V_bool b -> b
  | V_int i -> i <> 0
  | v -> err "expected a boolean, got %s" (value_to_string v)

(* Arithmetic with int->fix promotion. *)
let arith op_int op_fix a b =
  match (a, b) with
  | V_int x, V_int y -> V_int (op_int x y)
  | _ ->
      let fx v = match v with V_fix f -> f | _ -> Fx.of_float (as_float v) in
      V_fix (op_fix (fx a) (fx b))

let compare_vals a b = Float.compare (as_float a) (as_float b)

let unop (op : Ast.unop) v =
  match (op, v) with
  | Not, v -> V_bool (not (truthy v))
  | Neg, V_int i -> V_int (-i)
  | Neg, V_fix f -> V_fix (Fx.neg f)
  | Neg, v -> err "negating %s" (value_to_string v)

let binop (op : Ast.binop) a b =
  match op with
  | And -> V_bool (truthy a && truthy b)
  | Or -> V_bool (truthy a || truthy b)
  | Lt -> V_bool (compare_vals a b < 0)
  | Le -> V_bool (compare_vals a b <= 0)
  | Gt -> V_bool (compare_vals a b > 0)
  | Ge -> V_bool (compare_vals a b >= 0)
  | Eq -> V_bool (compare_vals a b = 0)
  | Ne -> V_bool (compare_vals a b <> 0)
  | Add -> arith ( + ) Fx.add a b
  | Sub -> arith ( - ) Fx.sub a b
  | Mul -> arith ( * ) Fx.mul a b
  | Div ->
      if as_float b = 0.0 then err "division by zero";
      arith ( / ) Fx.div a b

let short_circuit (op : Ast.binop) a =
  match op with
  | And when not (truthy a) -> Some (V_bool false)
  | Or when truthy a -> Some (V_bool true)
  | _ -> None

let index v is =
  List.fold_left
    (fun v i ->
      match v with
      | V_arr a when i >= 0 && i < Array.length a -> a.(i)
      | V_arr a -> err "index %d out of bounds (length %d)" i (Array.length a)
      | v -> err "indexing a non-array %s" (value_to_string v))
    v is

(* Far above the 2^15 categories of the widest paper instance, and small
   enough that a stray index fails at once instead of exhausting memory. *)
let write_bound = 1 lsl 20

let grow_for_write a i zero =
  if i < 0 then err "negative index %d in an indexed write" i;
  if i >= write_bound then
    err "index %d in an indexed write is not below %d" i write_bound;
  let n = Array.length a in
  Array.init (max n (i + 1)) (fun j -> if j < n then a.(j) else zero ())

let rec update v is x =
  match is with
  | [] -> x
  | i :: rest ->
      let a = grow_for_write (match v with V_arr a -> a | _ -> [||]) i (fun () -> V_int 0) in
      a.(i) <- update a.(i) rest x;
      V_arr a

let builtin f args =
  match (f, args) with
  | "sum", [ V_arr rows ] when Array.length rows > 0 && (match rows.(0) with V_arr _ -> true | _ -> false) ->
      (* Column sums over the participant axis. *)
      let width =
        match rows.(0) with V_arr r -> Array.length r | _ -> assert false
      in
      let sums = Array.make width 0 in
      Array.iter
        (function
          | V_arr r ->
              Array.iteri (fun j v -> sums.(j) <- sums.(j) + as_int v) r
          | v -> err "ragged database row %s" (value_to_string v))
        rows;
      V_arr (Array.map (fun s -> V_int s) sums)
  | "sum", [ V_arr a ] ->
      if Array.exists (function V_fix _ -> true | _ -> false) a then
        V_fix
          (Array.fold_left (fun acc v -> Fx.add acc (Fx.of_float (as_float v))) Fx.zero a)
      else V_int (Array.fold_left (fun acc v -> acc + as_int v) 0 a)
  | "max", [ V_arr a ] when Array.length a > 0 ->
      Array.fold_left (fun acc v -> if compare_vals v acc > 0 then v else acc) a.(0) a
  | "min", [ V_arr a ] when Array.length a > 0 ->
      Array.fold_left (fun acc v -> if compare_vals v acc < 0 then v else acc) a.(0) a
  | "argmax", [ V_arr a ] when Array.length a > 0 ->
      let best = ref 0 in
      Array.iteri (fun i v -> if compare_vals v a.(!best) > 0 then best := i) a;
      V_int !best
  | "len", [ V_arr a ] -> V_int (Array.length a)
  | "prefixSums", [ V_arr a ] ->
      let acc = ref 0 in
      V_arr (Array.map (fun v -> acc := !acc + as_int v; V_int !acc) a)
  | "suffixSums", [ V_arr a ] ->
      let n = Array.length a in
      let out = Array.make n (V_int 0) in
      let acc = ref 0 in
      for i = n - 1 downto 0 do
        acc := !acc + as_int a.(i);
        out.(i) <- V_int !acc
      done;
      V_arr out
  | "abs", [ V_int i ] -> V_int (abs i)
  | "abs", [ V_fix f ] -> V_fix (Fx.abs f)
  | "clip", [ v; lo; hi ] ->
      let x = as_float v and l = as_float lo and h = as_float hi in
      if l > h then err "clip: lo > hi";
      let c = Float.min h (Float.max l x) in
      (match v with V_int _ -> V_int (int_of_float c) | _ -> V_fix (Fx.of_float c))
  | "exp", [ v ] -> V_fix (Fx.of_float (exp (as_float v)))
  | "log", [ v ] ->
      let x = as_float v in
      if x <= 0.0 then err "log of non-positive value";
      V_fix (Fx.of_float (log x))
  | "declassify", [ v ] -> v
  | _ ->
      err "unknown builtin %s/%d" f (List.length args)

(* --- the reference interpreter --- *)

type env = {
  vars : (string, value) Hashtbl.t;
  rng : Arb_util.Rng.t;
  mutable outputs : value list;
  epsilon : float;
  sensitivity : float;
}

let lookup env v =
  match Hashtbl.find_opt env.vars v with
  | Some x -> x
  | None -> err "unbound variable %s" v

let float_array = function
  | V_arr a -> Array.map as_float a
  | v -> err "expected an array, got %s" (value_to_string v)

(* The mechanisms draw from the run's RNG; every other builtin is
   [builtin]. *)
let call env f args =
  match (f, args) with
  | "laplace", [ V_arr a ] ->
      V_arr
        (Array.map
           (fun v ->
             V_fix
               (Fx.of_float
                  (Arb_dp.Mechanisms.laplace env.rng ~epsilon:env.epsilon
                     ~sensitivity:env.sensitivity (as_float v))))
           a)
  | "laplace", [ v ] ->
      V_fix
        (Fx.of_float
           (Arb_dp.Mechanisms.laplace env.rng ~epsilon:env.epsilon
              ~sensitivity:env.sensitivity (as_float v)))
  | "em", [ arr ] ->
      let scores = float_array arr in
      V_int
        (Arb_dp.Mechanisms.exponential_gumbel env.rng ~epsilon:env.epsilon
           ~sensitivity:env.sensitivity scores)
  | "emGap", [ arr ] ->
      let scores = float_array arr in
      let w, gap =
        Arb_dp.Mechanisms.noisy_max_gap env.rng ~epsilon:env.epsilon
          ~sensitivity:env.sensitivity scores
      in
      V_arr [| V_int w; V_fix (Fx.of_float gap) |]
  | "sampleUniform", [ V_arr rows; phi ] ->
      let phi = as_float phi in
      if phi <= 0.0 || phi > 1.0 then err "sampleUniform: phi out of (0,1]";
      let kept =
        Array.to_list rows
        |> List.filter (fun _ -> Arb_util.Rng.uniform01 env.rng < phi)
      in
      (* Keep the shape non-degenerate for downstream sums. *)
      let kept = if kept = [] then [ rows.(0) ] else kept in
      V_arr (Array.of_list kept)
  | _ -> builtin f args

let rec eval env (e : Ast.expr) : value =
  match e with
  | Int_lit i -> V_int i
  | Fix_lit f -> V_fix (Fx.of_float f)
  | Bool_lit b -> V_bool b
  | Var v -> lookup env v
  | Index (v, idxs) -> index (lookup env v) (List.map (fun i -> as_int (eval env i)) idxs)
  | Unop (op, e) -> unop op (eval env e)
  | Binop (op, e1, e2) -> (
      let a = eval env e1 in
      match short_circuit op a with Some v -> v | None -> binop op a (eval env e2))
  | Call (f, args) -> call env f (List.map (eval env) args)

let rec exec env (s : Ast.stmt) =
  match s with
  | Seq ss -> List.iter (exec env) ss
  | Assign (v, e) -> Hashtbl.replace env.vars v (eval env e)
  | Assign_idx (v, idxs, e) ->
      let is = List.map (fun i -> as_int (eval env i)) idxs in
      let current = Option.value (Hashtbl.find_opt env.vars v) ~default:(V_arr [||]) in
      Hashtbl.replace env.vars v (update current is (eval env e))
  | Output e -> env.outputs <- eval env e :: env.outputs
  | For (v, lo, hi, body) ->
      let lo = as_int (eval env lo) and hi = as_int (eval env hi) in
      for i = lo to hi do
        Hashtbl.replace env.vars v (V_int i);
        exec env body
      done
  | If (c, s1, s2) -> exec env (if truthy (eval env c) then s1 else s2)

let default_sensitivity (p : Ast.program) =
  match p.row with
  | Ast.One_hot _ -> 1.0
  | Ast.Bounded { lo; hi; _ } -> float_of_int (max (abs lo) (abs hi))

let run (p : Ast.program) ~db ?sensitivity rng =
  let sensitivity =
    match sensitivity with Some s -> s | None -> default_sensitivity p
  in
  let env =
    {
      vars = Hashtbl.create 16;
      rng;
      outputs = [];
      epsilon = p.epsilon;
      sensitivity;
    }
  in
  let n = Array.length db in
  let width = if n = 0 then 0 else Array.length db.(0) in
  Hashtbl.replace env.vars "db"
    (V_arr (Array.map (fun row -> V_arr (Array.map (fun x -> V_int x) row)) db));
  Hashtbl.replace env.vars "N" (V_int n);
  Hashtbl.replace env.vars "C" (V_int width);
  exec env p.body;
  List.rev env.outputs
