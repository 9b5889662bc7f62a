(* Quantiles: the paper notes that the Böhler–Kerschbaum median query "can
   be easily extended to support quantiles" (§7). Arboretum's language makes
   that a one-line change — the rank target moves from N/2 to p*N — so one
   program template yields median, quartiles, or any percentile, each
   planned and executed like any other query.

   Each device one-hot encodes its value into one of C buckets; the query
   scores each bucket by how close its prefix count is to the target rank
   and selects with the exponential mechanism.

   Run with:  dune exec examples/quantiles.exe *)

let buckets = 32

(* rank_divisor = k selects the (1/k)-quantile: 2 = median, 4 = lower
   quartile; for the upper quartile we use 3N/4 via a numerator. *)
let quantile_src ~num ~den =
  Printf.sprintf
    {|
      hist = sum(db);
      pre = prefixSums(hist);
      target = %d * N / %d;
      for i = 0 to C - 1 do
        d = pre[i] - target;
        scores[i] = 0 - abs(d);
      endfor
      choice = em(scores);
      output(choice);
    |}
    num den

(* A run either releases its outputs or fails closed at a named stage. *)
let released = function
  | Ok report -> report
  | Error f -> failwith (Format.asprintf "run failed closed: %a" Arb_runtime.Exec.pp_failure f)

let () =
  let n = 256 in
  (* A right-skewed population over the buckets. *)
  let rng = Arb_util.Rng.create 31L in
  let db =
    Array.init n (fun _ ->
        let row = Array.make buckets 0 in
        let v =
          let u = Arb_util.Rng.uniform01 rng in
          min (buckets - 1) (int_of_float (u *. u *. float_of_int buckets))
        in
        row.(v) <- 1;
        row)
  in
  let counts = Array.make buckets 0 in
  Array.iter (fun row -> Array.iteri (fun j v -> counts.(j) <- counts.(j) + v) row) db;
  let true_quantile p =
    let target = int_of_float (p *. float_of_int n) in
    let acc = ref 0 and res = ref 0 and found = ref false in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if (not !found) && !acc >= target then begin
          res := i;
          found := true
        end)
      counts;
    !res
  in
  let config =
    {
      Arb_runtime.Exec.default_config with
      Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:10_000.0 ~delta:0.1;
    }
  in
  List.iter
    (fun (label, num, den, p) ->
      let q =
        Arboretum.query_of_source
          ~name:(Printf.sprintf "quantile-%s" label)
          ~source:(quantile_src ~num ~den) ~row:(Arboretum.one_hot buckets)
          ~epsilon:500.0 ()
      in
      let planned = Arboretum.plan ~limits:Arb_planner.Constraints.no_limits ~n q in
      let report = released (Arboretum.run ~config ~db planned) in
      Printf.printf "%-14s -> bucket %-3s (true: %d)\n" label
        (String.concat ";" (Arboretum.outputs_to_strings report))
        (true_quantile p))
    [ ("lower quartile", 1, 4, 0.25); ("median", 1, 2, 0.5);
      ("upper quartile", 3, 4, 0.75); ("90th percentile", 9, 10, 0.9) ]
