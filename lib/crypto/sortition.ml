type assignment = {
  committees : int array array;
  registry_root : Sha256.digest;
}

let message ~block ~query_id = Printf.sprintf "%s|%d|0" block query_id

(* Deterministic signature, then hash. A keyed MAC stands in for the full
   Lamport signature (same determinism, same unpredictability before the
   block is revealed) so ranking a billion simulated devices stays cheap;
   the runtime still produces and checks real Lamport signatures where
   integrity matters (the query authorization certificate). *)
let seed_ticket seed msg = Sha256.digest (Sha256.hmac ~key:seed msg)

(* (ticket, id) pairs sorted by ticket, ties by id. The array starts from
   a constant and is filled in place: mapping straight to fresh tuples
   past 256 elements makes the runtime empty the minor heap first. *)
let sort_tickets n ticket_of =
  let tickets = Array.make n ("", 0) in
  for i = 0 to n - 1 do
    tickets.(i) <- ticket_of i
  done;
  Array.sort
    (fun (h1, id1) (h2, id2) ->
      let c = Sha256.compare_le h1 h2 in
      if c <> 0 then c else compare id1 id2)
    tickets;
  tickets

(* --- hierarchical registry (billion-device sortition) ---

   Ranking every registered device is O(N) hashing, hopeless at the
   paper's 10^8-10^9 devices. [Registry] derives the whole population
   from a seed and runs sortition in two levels: registry blocks of a
   fixed canonical size are ranked first (one PRF evaluation per block),
   then only the winning blocks expand their members. The
   committee assignment and the Merkle root are functions of (seed, N,
   block, query) alone — independent of how the runtime chooses to shard
   cohorts — so a sharded execution produces byte-identical certificates
   to a fully materialized one. *)

module Registry = struct
  type t = {
    n : int;
    block_seeds : string array; (* keyed PRF seed per registry block *)
    root : Sha256.digest;
  }

  (* Canonical block size: a protocol constant, NOT a runtime tuning knob.
     Certificates commit to the block-level tree, so this value changing
     would change every registry root. *)
  let block_size = 4096

  let create ~seed ~n =
    if n <= 0 then invalid_arg "Sortition.Registry.create: n <= 0";
    let n_blocks = (n + block_size - 1) / block_size in
    let master = Sha256.hmac_key (Printf.sprintf "reg|%Ld|%d" seed n) in
    let block_seeds = Array.make n_blocks "" in
    (* Leaf = (block index, population, commitment to the block seed):
       enough for any third party holding the block seeds to recompute the
       root, without the tree ever being O(N). *)
    let leaves = Array.make n_blocks "" in
    for b = 0 to n_blocks - 1 do
      block_seeds.(b) <- Sha256.hmac_keyed master (Printf.sprintf "blk|%d" b);
      let size = min block_size (n - (b * block_size)) in
      leaves.(b) <-
        Printf.sprintf "%d|%d|%s" b size
          (Sha256.to_hex (Sha256.digest block_seeds.(b)))
    done;
    { n; block_seeds; root = Merkle.root (Merkle.build leaves) }

  let n_blocks t = Array.length t.block_seeds
  let root t = t.root

  let device_seed t id =
    if id < 0 || id >= t.n then invalid_arg "Sortition.Registry.device_seed";
    Sha256.hmac ~key:t.block_seeds.(id / block_size)
      (string_of_int (id mod block_size))

  let block_population t b = min block_size (t.n - (b * block_size))

  let block_ticket t b ~block ~query_id =
    Sha256.digest
      (Sha256.hmac ~key:t.block_seeds.(b) (message ~block ~query_id ^ "|blk"))

  let ranked_blocks t ~block ~query_id =
    sort_tickets (n_blocks t) (fun b -> (block_ticket t b ~block ~query_id, b))

  (* Members of block [b] in their within-block ticket order. Every member
     seed is an HMAC under the block seed, so the block's key is prepared
     once; each seed is then the same bytes {!device_seed} derives. *)
  let ranked_in_block t b ~block ~query_id =
    let lo = b * block_size in
    let key = Sha256.hmac_key t.block_seeds.(b) and msg = message ~block ~query_id in
    Array.map snd
      (sort_tickets (block_population t b) (fun j ->
           (seed_ticket (Sha256.hmac_keyed key (string_of_int j)) msg, lo + j)))

  let select t ~block ~query_id ~committees ~size =
    if committees <= 0 || size <= 0 then invalid_arg "Sortition.select: bad shape";
    let seats = committees * size in
    if seats > t.n then invalid_arg "Sortition.select: not enough devices";
    let rb = ranked_blocks t ~block ~query_id in
    let winners = Array.make seats (-1) in
    let filled = ref 0 and bi = ref 0 in
    while !filled < seats do
      let _, b = rb.(!bi) in
      incr bi;
      Array.iter
        (fun id ->
          if !filled < seats then begin
            winners.(!filled) <- id;
            incr filled
          end)
        (ranked_in_block t b ~block ~query_id)
    done;
    let cs =
      Array.init committees (fun c ->
          Array.init size (fun j -> winners.((c * size) + j)))
    in
    { committees = cs; registry_root = t.root }

  (* Agrees with [select] because select consumes whole blocks in ranked
     order and truncates: the device's global rank is the population of
     every block ranked before its own plus its within-block rank. *)
  let verify_member t ~block ~query_id ~committees ~size ~id =
    if id < 0 || id >= t.n then None
    else begin
      let seats = committees * size in
      let my_block = id / block_size in
      let rb = ranked_blocks t ~block ~query_id in
      let consumed = ref 0 and start = ref None in
      (try
         Array.iter
           (fun (_, b) ->
             if b = my_block then begin
               start := Some !consumed;
               raise Exit
             end
             else consumed := !consumed + block_population t b)
           rb
       with Exit -> ());
      match !start with
      | Some s when s < seats -> (
          let members = ranked_in_block t my_block ~block ~query_id in
          let pos = ref None in
          Array.iteri (fun j id' -> if id' = id then pos := Some j) members;
          match !pos with
          | Some p when s + p < seats -> Some ((s + p) / size)
          | _ -> None)
      | _ -> None
    end

  (* [verify_member] for many ids at once: the block list is ranked once,
     and each distinct block among the ids once. [start.(b)] is the global
     rank of block [b]'s first member, for the blocks select reaches before
     the seats are filled; every other block starts at [max_int]. *)
  let verify_members t ~block ~query_id ~committees ~size ids =
    let seats = committees * size in
    let start = Array.make (n_blocks t) max_int in
    let rb = ranked_blocks t ~block ~query_id in
    let consumed = ref 0 and bi = ref 0 in
    while !consumed < seats && !bi < Array.length rb do
      let _, b = rb.(!bi) in
      start.(b) <- !consumed;
      consumed := !consumed + block_population t b;
      incr bi
    done;
    (* Within-block rank of each member, per block ranked so far. *)
    let ranks = Hashtbl.create 1 in
    let rank_in b =
      match Hashtbl.find_opt ranks b with
      | Some r -> r
      | None ->
          let r = Array.make (block_population t b) 0 in
          Array.iteri (fun j id -> r.(id - (b * block_size)) <- j)
            (ranked_in_block t b ~block ~query_id);
          Hashtbl.add ranks b r;
          r
    in
    Array.map
      (fun id ->
        if id < 0 || id >= t.n || start.(id / block_size) >= seats then None
        else
          let b = id / block_size in
          let r = start.(b) + (rank_in b).(id - (b * block_size)) in
          if r < seats then Some (r / size) else None)
      ids
end

let reassign_failed asg ~failed =
  let c = Array.length asg.committees in
  if failed < 0 || failed >= c then invalid_arg "Sortition.reassign_failed";
  let target = (failed + 1) mod c in
  let committees =
    Array.mapi
      (fun i members ->
        if i = failed then [||]
        else if i = target then Array.append members asg.committees.(failed)
        else members)
      asg.committees
  in
  { asg with committees }
