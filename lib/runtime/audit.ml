type t = {
  mutable entries : string list; (* reversed until sealed *)
  mutable tree : Arb_crypto.Merkle.t option;
  mutable sealed_leaves : string array;
}

let create () = { entries = []; tree = None; sealed_leaves = [||] }

let record_step t s =
  if t.tree <> None then invalid_arg "Audit.record_step: already sealed";
  t.entries <- s :: t.entries

let seal t =
  (* Filled from a constant, newest entry last: [Array.of_list] of fresh
     strings past 256 elements makes the runtime empty the minor heap. *)
  let n = List.length t.entries in
  let leaves = Array.make (max 1 n) "empty" in
  List.iteri (fun i s -> leaves.(n - 1 - i) <- s) t.entries;
  let tree = Arb_crypto.Merkle.build leaves in
  t.tree <- Some tree;
  t.sealed_leaves <- leaves;
  Arb_crypto.Merkle.root tree

let steps t =
  match t.tree with
  | Some _ -> Array.length t.sealed_leaves
  | None -> List.length t.entries

let challenges_per_device ~steps ~devices ~p_max =
  if steps <= 1 || devices <= 0 then 1
  else if p_max <= 0.0 || p_max >= 1.0 then invalid_arg "Audit.challenges_per_device"
  else
    (* Miss probability for one bad leaf: (1 - 1/steps)^(devices * k). *)
    let per_auditor_miss = 1.0 -. (1.0 /. float_of_int steps) in
    let k =
      Float.log p_max /. (float_of_int devices *. Float.log per_auditor_miss)
    in
    max 1 (int_of_float (Float.ceil k))

let respond t i =
  match t.tree with
  | None -> invalid_arg "Audit.respond: not sealed"
  | Some tree ->
      if i < 0 || i >= Array.length t.sealed_leaves then
        invalid_arg "Audit.respond: bad index";
      (t.sealed_leaves.(i), Arb_crypto.Merkle.prove tree i)

let check ~root ~leaf proof = Arb_crypto.Merkle.verify ~root ~leaf proof

let tamper t i =
  if i < 0 || i >= Array.length t.sealed_leaves then
    invalid_arg "Audit.tamper: bad index";
  t.sealed_leaves.(i) <- t.sealed_leaves.(i) ^ "|tampered"
