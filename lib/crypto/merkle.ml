type t = {
  levels : Sha256.digest array array;
  (* levels.(0) = leaf hashes; last level has length 1 (the root). *)
  nleaves : int;
}

type proof = { index : int; path : Sha256.digest list }

let leaf_hash payload = Sha256.digest ("\x00" ^ payload)
let node_hash l r = Sha256.digest ("\x01" ^ l ^ r)

let build leaves =
  let n = Array.length leaves in
  if n = 0 then invalid_arg "Merkle.build: no leaves";
  (* Levels start from a constant and are filled in place: [Array.init] of
     fresh digests past 256 elements makes the runtime empty the minor heap
     first. *)
  let level0 = Array.make n "" in
  Array.iteri (fun i leaf -> level0.(i) <- leaf_hash leaf) leaves;
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else
      let len = Array.length level in
      let next = Array.make ((len + 1) / 2) "" in
      for i = 0 to Array.length next - 1 do
        let l = level.(2 * i) in
        (* An odd node is paired with itself, as in Certificate
           Transparency-style trees. *)
        let r = if (2 * i) + 1 < len then level.((2 * i) + 1) else l in
        next.(i) <- node_hash l r
      done;
      up (level :: acc) next
  in
  { levels = Array.of_list (up [] level0); nleaves = n }

let root t = t.levels.(Array.length t.levels - 1).(0)
let size t = t.nleaves

let prove t i =
  if i < 0 || i >= t.nleaves then invalid_arg "Merkle.prove: index out of range";
  let path = ref [] in
  let idx = ref i in
  for lvl = 0 to Array.length t.levels - 2 do
    let level = t.levels.(lvl) in
    let sibling =
      let j = !idx lxor 1 in
      if j < Array.length level then level.(j) else level.(!idx)
    in
    path := sibling :: !path;
    idx := !idx / 2
  done;
  { index = i; path = List.rev !path }

let verify ~root ~leaf proof =
  let h = ref (leaf_hash leaf) in
  let idx = ref proof.index in
  List.iter
    (fun sibling ->
      h := if !idx land 1 = 0 then node_hash !h sibling else node_hash sibling !h;
      idx := !idx / 2)
    proof.path;
  String.equal !h root
