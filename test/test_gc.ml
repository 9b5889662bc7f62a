(* Forced minor collections on the query path.

   OCaml's [caml_make_vect], the runtime call behind [Array.make], [init],
   [map] and [of_list], empties the minor heap before it allocates an array
   of more than 256 words whose first element is a young block. In a
   multi-domain process every minor collection stops every domain, so the
   query path builds such arrays from a constant and fills them in place
   (DESIGN.md §10). This gate runs query-path work under an 8M-word minor
   heap and fails when it takes more minor collections than its allocation
   needs, plus one. *)

module R = Arb_runtime
module C = Arb_crypto
module Q = Arb_queries.Registry

let minor_heap = 8 * 1024 * 1024

(* Set before anything else runs: pool helpers adopt the minor heap of the
   domain that spawns them and keep it. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap }

(* Spawn the helper the workers-2 cases use and wait until it has joined a
   job, so its one-time heap resize (itself a collection) lands here and
   not inside a measurement. *)
let () =
  let joined = Atomic.make false in
  Arb_util.Pool.run ~workers:2 2 (fun ~slot:_ i ->
      if i = 0 then
        while not (Atomic.get joined) do
          Domain.cpu_relax ()
        done
      else Atomic.set joined true)

(* Minor collections [f] takes, and the number its allocation needs: one
   per full minor heap of words allocated, plus one per major cycle it
   completes (each cycle ends with an all-domain minor collection). The
   closing [Gc.minor] samples every domain's allocation counters, which
   [Gc.quick_stat] otherwise reports only as of each domain's last
   collection. *)
let collections f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  f ();
  let s1 = Gc.quick_stat () in
  Gc.minor ();
  let s2 = Gc.quick_stat () in
  let words = s2.Gc.minor_words -. s0.Gc.minor_words in
  let needed =
    int_of_float (words /. float_of_int minor_heap)
    + (s1.Gc.major_collections - s0.Gc.major_collections)
  in
  (s1.Gc.minor_collections - s0.Gc.minor_collections, needed)

let gate name f () =
  let taken, needed = collections f in
  Printf.printf "%s: %d minor collections, allocation needs %d\n" name taken needed;
  if taken > needed + 1 then
    Alcotest.failf "%s: %d minor collections, its allocation needs %d (bound %d)"
      name taken needed (needed + 1)

let keygen_x20 () =
  for i = 1 to 20 do
    ignore (Sys.opaque_identity (C.Sig_scheme.keygen ~seed:(Printf.sprintf "gate-%d" i)))
  done

let sortition_4097 =
  let pop = R.Setup.population ~seed:3L ~n:4097 ~byzantine_fraction:0.0 in
  fun () ->
    let a = R.Setup.run_sortition pop ~block:"gate" ~query_id:1 ~committees:4 ~size:5 in
    Array.iter
      (fun id ->
        match
          R.Setup.verify_member pop ~block:"gate" ~query_id:1 ~committees:4 ~size:5 ~id
        with
        | Some 0 -> ()
        | _ -> Alcotest.failf "member %d failed verification" id)
      a.C.Sortition.committees.(0);
    Array.iter
      (function Some 0 -> () | _ -> Alcotest.fail "verify_members rejected a member")
      (R.Setup.verify_members pop ~block:"gate" ~query_id:1 ~committees:4 ~size:5
         a.C.Sortition.committees.(0))

let top1 ~devices ~workers =
  let q = Q.test_instance "top1" in
  let db = Q.random_database (Arb_util.Rng.create 99L) q ~n:devices () in
  let plan =
    match
      (Arb_planner.Search.plan ~limits:Arb_planner.Constraints.no_limits ~query:q
         ~n:devices ())
        .Arb_planner.Search.plan
    with
    | Some p -> p
    | None -> Alcotest.failf "no plan for top1 at %d devices" devices
  in
  fun () ->
    let src = R.Exec.source_of_db db in
    match R.Exec.run_source { R.Exec.default_config with workers } ~query:q ~plan ~src with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "top1 failed: %a" R.Exec.pp_failure f

let () =
  let case name f = Alcotest.test_case name `Quick (gate name f) in
  Alcotest.run "arb_gc"
    [
      ( "forced collections",
        [
          case "lamport keygen x20" keygen_x20;
          case "sortition and 5 verify_member at N=4097" sortition_4097;
        ]
        @ List.concat_map
            (fun devices ->
              List.map
                (fun workers ->
                  case
                    (Printf.sprintf "top1 run at %d devices, %d workers" devices workers)
                    (top1 ~devices ~workers))
                [ 1; 2 ])
            [ 64; 512 ] );
    ]
