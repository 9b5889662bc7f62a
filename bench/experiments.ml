(* Reproduction harness: one section per table/figure of the paper's
   evaluation (§7). Absolute numbers come from our calibrated cost model and
   simulated substrate (DESIGN.md §1); the claims under reproduction are the
   *shapes* — who wins, by what factor, where crossovers fall — recorded in
   EXPERIMENTS.md. *)

module Q = Arb_queries.Registry
module P = Arb_planner
module Cm = P.Cost_model
module U = Arb_util.Units
module T = Arb_util.Table

let smoke = ref false
(* --smoke (wired to the [bench-smoke] dune alias) shrinks every experiment
   to seconds so `dune runtest` executes the bench code end to end; the
   full-size tables are unchanged without the flag. *)

let paper_n () = if !smoke then 1_000_000 else 1_000_000_000

let section title =
  Printf.printf "\n==================== %s ====================\n" title

(* Plan every paper-scale query once and share across figures. *)
let plans : (string, P.Plan.t * Cm.metrics * P.Search.stats) Hashtbl.t =
  Hashtbl.create 16

let plan_of name =
  match Hashtbl.find_opt plans name with
  | Some p -> p
  | None ->
      let q = Q.paper_instance name in
      let r = P.Search.plan ~query:q ~n:(paper_n ()) () in
      let v =
        match (r.P.Search.plan, r.P.Search.metrics) with
        | Some p, Some m -> (p, m, r.P.Search.stats)
        | _ -> failwith ("no plan for " ^ name)
      in
      Hashtbl.replace plans name v;
      v

let contributions_of (plan : P.Plan.t) =
  let q = Q.paper_instance plan.P.Plan.query in
  List.map
    (fun v ->
      Cm.price Cm.default ~n_devices:(paper_n ()) ~m:plan.P.Plan.committee_size
        ~cols:q.Q.categories v)
    plan.P.Plan.vignettes

(* Split a plan's expected participant cost into the paper's Fig. 6 series:
   local encryption+verification work vs expected committee (MPC) work. *)
let participant_split contributions =
  List.fold_left
    (fun (bt, bb, mt, mb) (c : Cm.contribution) ->
      let seats = float_of_int (c.Cm.c_instances * c.Cm.c_members) in
      let nf = float_of_int (paper_n ()) in
      ( bt +. c.Cm.c_all_time,
        bb +. c.Cm.c_all_bytes,
        mt +. (seats /. nf *. c.Cm.c_member_time),
        mb +. (seats /. nf *. c.Cm.c_member_bytes) ))
    (0.0, 0.0, 0.0, 0.0) contributions

(* The report of a released run; an experiment whose run fails closed
   fails with the stage. *)
let released = function
  | Ok report -> report
  | Error f -> failwith (Format.asprintf "run failed closed: %a" Arb_runtime.Exec.pp_failure f)

let execute config ~query ~plan ~src =
  released (Arb_runtime.Exec.run_source config ~query ~plan ~src)

(* Plan at the database's scale (no cost limits), then execute. *)
let plan_and_execute config ~query ~db =
  released (Arboretum.run ~config ~db (Arboretum.plan ~n:(Array.length db) query))

(* ------------------------------------------------------------------ *)
(* Table 1: strawman comparison on the zip-code query (§3.2).          *)

let table1 () =
  section "Table 1: approaches at 10^8 participants (zip-code query)";
  let n = if !smoke then 1_000_000 else 100_000_000
  and cols = if !smoke then 4_096 else 41_683 in
  let fhe = Arb_baselines.Baselines.fhe_only ~n ~cols in
  let mpc = Arb_baselines.Baselines.all_to_all_mpc ~n in
  let boehler =
    Arb_baselines.Baselines.boehler_median ~n:1_300_000_000 ~m:40
  in
  let orch = Arb_baselines.Baselines.orchard_metrics ~n ~cols:64 ~noise_count:64 ~cm:Cm.default in
  let q = Q.make ~name:"top1" ~c:cols () in
  let arb =
    match (P.Search.plan ~query:q ~n ()).P.Search.plan with
    | Some p ->
        Cm.combine ~n_devices:n
          (List.map
             (fun v -> Cm.price Cm.default ~n_devices:n ~m:p.P.Plan.committee_size ~cols v)
             p.P.Plan.vignettes)
    | None -> failwith "no arboretum plan for table 1"
  in
  T.print
    ~header:
      [ ""; "FHE"; "All-to-all MPC"; "Boehler [14]"; "Orchard [54]"; "Arboretum" ]
    [
      [ "Aggregator computation";
        Printf.sprintf "O(N) -> %s" (U.seconds_to_string fhe.Arb_baselines.Baselines.agg_compute_seconds);
        "N/A"; "N/A";
        U.seconds_to_string orch.Cm.agg_time;
        U.seconds_to_string arb.Cm.agg_time ];
      [ "Participant bandwidth (typical)";
        U.bytes_to_string fhe.Arb_baselines.Baselines.participant_bytes_typical;
        Printf.sprintf "O(N) -> %s" (U.bytes_to_string mpc.Arb_baselines.Baselines.participant_bytes_typical);
        "KBs";
        U.bytes_to_string orch.Cm.part_exp_bytes;
        U.bytes_to_string arb.Cm.part_exp_bytes ];
      [ "Participant bandwidth (worst-case)";
        U.bytes_to_string fhe.Arb_baselines.Baselines.participant_bytes_worst;
        Printf.sprintf "O(N) -> %s" (U.bytes_to_string mpc.Arb_baselines.Baselines.participant_bytes_worst);
        Printf.sprintf "O(N) -> %s" (U.bytes_to_string boehler.Arb_baselines.Baselines.committee_bytes);
        U.bytes_to_string orch.Cm.part_max_bytes;
        U.bytes_to_string arb.Cm.part_max_bytes ];
      [ "Numerical queries"; "Yes"; "Yes"; "Yes"; "Yes"; "Yes" ];
      [ "Categorical queries"; "Yes"; "Yes"; "Yes"; "Limited"; "Yes" ];
      [ "Participants can contribute"; "No"; "Yes"; "1 committee"; "1 committee"; "Yes" ];
      [ "Optimization"; "No"; "No"; "No"; "No"; "Automatic" ];
    ]

(* ------------------------------------------------------------------ *)
(* Table 2: supported queries.                                         *)

let table2 () =
  section "Table 2: supported queries";
  T.print
    ~header:[ "Query"; "Action"; "From"; "Lines" ]
    (List.map
       (fun name ->
         let q = Q.paper_instance name in
         [ name; q.Q.action; q.Q.source;
           string_of_int (Arb_lang.Ast.count_lines q.Q.program) ])
       Q.names)

(* ------------------------------------------------------------------ *)
(* Fig. 6: expected per-participant bandwidth and computation.         *)

let fig6 () =
  section "Fig 6: expected per-participant cost (N = 10^9)";
  let rows =
    List.concat_map
      (fun name ->
        let plan, _, _ = plan_of name in
        let bt, bb, mt, mb = participant_split (contributions_of plan) in
        let row label bb bt mb mt =
          [ label;
            U.bytes_to_string bb; U.bytes_to_string mb; U.bytes_to_string (bb +. mb);
            U.seconds_to_string bt; U.seconds_to_string mt;
            U.seconds_to_string (bt +. mt) ]
        in
        let base = [ row name bb bt mb mt ] in
        let baseline =
          match name with
          | "cms" ->
              let q = Q.paper_instance "cms" in
              let p =
                Arb_baselines.Baselines.orchard_plan ~crypto:P.Plan.Ahe ~n:(paper_n ())
                  ~cols:q.Q.categories ~noise_count:q.Q.categories ~cm:Cm.default
              in
              let cs =
                List.map
                  (fun v ->
                    Cm.price Cm.default ~n_devices:(paper_n ())
                      ~m:p.P.Plan.committee_size ~cols:q.Q.categories v)
                  p.P.Plan.vignettes
              in
              let bt, bb, mt, mb = participant_split cs in
              [ row "cms (Honeycrisp)" bb bt mb mt ]
          | "bayes" | "kmedians" ->
              let q = Q.paper_instance name in
              let p =
                Arb_baselines.Baselines.orchard_plan ~crypto:P.Plan.Ahe ~n:(paper_n ())
                  ~cols:q.Q.categories ~noise_count:q.Q.categories ~cm:Cm.default
              in
              let cs =
                List.map
                  (fun v ->
                    Cm.price Cm.default ~n_devices:(paper_n ())
                      ~m:p.P.Plan.committee_size ~cols:q.Q.categories v)
                  p.P.Plan.vignettes
              in
              let bt, bb, mt, mb = participant_split cs in
              [ row (name ^ " (Orchard)") bb bt mb mt ]
          | _ -> []
        in
        base @ baseline)
      Q.names
  in
  T.print
    ~header:
      [ "Query"; "enc+verif B"; "MPC B"; "total B"; "enc+verif t"; "MPC t"; "total t" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 7: committee-member costs by committee type.                   *)

let fig7 () =
  section "Fig 7: committee-member cost by committee type (N = 10^9)";
  let kind_name = function
    | `Keygen -> "KeyGen"
    | `Decryption -> "Decryption"
    | `Operations -> "Operations"
    | `Base -> "Replicated"
  in
  let rows =
    List.concat_map
      (fun name ->
        let plan, _, _ = plan_of name in
        let q = Q.paper_instance name in
        let by_kind =
          Cm.member_cost_by_kind Cm.default ~n_devices:(paper_n ())
            ~m:plan.P.Plan.committee_size ~cols:q.Q.categories plan.P.Plan.vignettes
        in
        (* max per kind *)
        let tbl = Hashtbl.create 4 in
        List.iter
          (fun (k, t, b) ->
            let t0, b0 =
              Option.value (Hashtbl.find_opt tbl k) ~default:(0.0, 0.0)
            in
            Hashtbl.replace tbl k (Float.max t t0, Float.max b b0))
          by_kind;
        let frac =
          float_of_int (plan.P.Plan.committee_count * plan.P.Plan.committee_size)
          /. float_of_int (paper_n ()) *. 100.0
        in
        Hashtbl.fold
          (fun k (t, b) acc ->
            [ name; kind_name k; U.bytes_to_string b; U.seconds_to_string t;
              Printf.sprintf "%.5f%%" frac ]
            :: acc)
          tbl []
        |> List.sort compare)
      Q.names
  in
  T.print ~header:[ "Query"; "Committee"; "Max bytes"; "Max time"; "% on committees" ] rows

(* ------------------------------------------------------------------ *)
(* Fig. 8: aggregator cost.                                            *)

let fig8 () =
  section "Fig 8: aggregator cost (N = 10^9, 1000 cores for time)";
  let rows =
    List.map
      (fun name ->
        let plan, m, _ = plan_of name in
        let cs = contributions_of plan in
        let verify_time =
          List.fold_left2
            (fun acc (v : P.Plan.vignette) (c : Cm.contribution) ->
              match v.P.Plan.work with
              | P.Plan.W_verify_inputs _ -> acc +. c.Cm.c_agg_time
              | _ -> acc)
            0.0 plan.P.Plan.vignettes cs
        in
        let ops_time = m.Cm.agg_time -. verify_time in
        [ name;
          Printf.sprintf "%.0f TB" (m.Cm.agg_bytes /. 1.0e12);
          Printf.sprintf "%.1f h" (m.Cm.agg_time /. 3600.0 /. 1000.0);
          Printf.sprintf "%.1f h" (verify_time /. 3600.0 /. 1000.0);
          Printf.sprintf "%.1f h" (ops_time /. 3600.0 /. 1000.0) ])
      Q.names
  in
  T.print
    ~header:[ "Query"; "Traffic sent"; "Compute@1000c"; "(verification)"; "(operations)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 9 + §7.3: planner runtime and branch-and-bound ablation.       *)

let fig9 () =
  section "Fig 9: query-planner runtime";
  let rows =
    List.map
      (fun name ->
        let _, _, stats = plan_of name in
        [ name;
          Printf.sprintf "%.3f s" stats.P.Search.elapsed;
          string_of_int stats.P.Search.prefixes;
          string_of_int stats.P.Search.full_plans ])
      Q.names
  in
  T.print ~header:[ "Query"; "Planner time"; "Plan prefixes"; "Full candidates" ] rows;
  print_endline "\n  §7.3 ablation: branch-and-bound heuristics disabled";
  let rows =
    List.map
      (fun name ->
        let q = Q.paper_instance name in
        let t0 = Unix.gettimeofday () in
        let r =
          P.Search.plan ~heuristics:false
            ~max_prefixes:(if !smoke then 20_000 else 400_000)
            ~query:q ~n:(paper_n ()) ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        [ name;
          Printf.sprintf "%.3f s" dt;
          string_of_int r.P.Search.stats.P.Search.prefixes;
          (if r.P.Search.stats.P.Search.aborted then "exhausted (cap hit)" else "finished") ])
      (if !smoke then [ "top1" ] else [ "top1"; "hypotest"; "cms"; "median" ])
  in
  T.print ~header:[ "Query"; "Time"; "Prefixes"; "Outcome" ] rows

(* ------------------------------------------------------------------ *)
(* Fig. 10: scalability of top1 under aggregator limits.               *)

let fig10 () =
  section "Fig 10: top1 scalability, N = 2^17 .. 2^30";
  let q = Q.paper_instance "top1" in
  let limits_of = function
    | Some h -> P.Constraints.with_agg_core_hours P.Constraints.evaluation_limits h
    | None -> { P.Constraints.evaluation_limits with P.Constraints.max_agg_time = None }
  in
  let settings = [ ("A=1000", Some 1000.0); ("A=5000", Some 5000.0); ("no limit", None) ] in
  let rows =
    List.map
      (fun e ->
        let n = 1 lsl e in
        Printf.sprintf "2^%d" e
        :: List.concat_map
             (fun (_, h) ->
               match (P.Search.plan ~limits:(limits_of h) ~query:q ~n ()).P.Search.plan with
               | None -> [ "-"; "-"; "-" ]
               | Some p ->
                   let m =
                     Cm.combine ~n_devices:n
                       (List.map
                          (fun v ->
                            Cm.price Cm.default ~n_devices:n
                              ~m:p.P.Plan.committee_size ~cols:q.Q.categories v)
                          p.P.Plan.vignettes)
                   in
                   [ Printf.sprintf "%.0f" (m.Cm.agg_time /. 3600.0);
                     Printf.sprintf "%.2f" m.Cm.part_exp_time;
                     Printf.sprintf "%.1f" (m.Cm.part_max_time /. 60.0) ])
             settings)
      (if !smoke then [ 17; 20 ]
       else [ 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28; 29; 30 ])
  in
  T.print
    ~header:
      [ "N"; "agg core-h (1k)"; "exp s (1k)"; "max min (1k)";
        "agg core-h (5k)"; "exp s (5k)"; "max min (5k)";
        "agg core-h (inf)"; "exp s (inf)"; "max min (inf)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 11: power consumption on a Pi-4-class device.                  *)

let fig11 () =
  section "Fig 11: power use of the worst-case committee MPC (mAh, Pi-4 class)";
  (* Effective extra draw of the MPC above idle: ~0.9 W at 3.85 V nominal
     battery voltage — committee MPCs are communication-bound, so the CPU
     sits well below full load (the paper measures overall draw minus the
     idle baseline, §7.4). *)
  let mah_of_seconds s = s /. 3600.0 *. (0.9 /. 3.85) *. 1000.0 in
  let iphone_5pct = 0.05 *. 1624.0 in
  let base_mah = 6.0 (* encryption + ZK proof (§7.4) *) in
  let rows =
    List.map
      (fun name ->
        let plan, _, _ = plan_of name in
        let q = Q.paper_instance name in
        let by_kind =
          Cm.member_cost_by_kind Cm.default ~n_devices:(paper_n ())
            ~m:plan.P.Plan.committee_size ~cols:q.Q.categories plan.P.Plan.vignettes
        in
        let worst =
          List.fold_left (fun acc (_, t, _) -> Float.max acc t) 0.0 by_kind
        in
        let mah = mah_of_seconds worst in
        [ name;
          Printf.sprintf "%.1f" mah;
          Printf.sprintf "%.1f" base_mah;
          (if mah <= iphone_5pct then "<= 5% battery" else "EXCEEDS 5%") ])
      Q.names
  in
  Printf.printf "  (5%% of a 2022 iPhone SE battery = %.1f mAh)\n" iphone_5pct;
  T.print ~header:[ "Query"; "Worst MPC mAh"; "Base mAh"; "vs 5% line" ] rows

(* ------------------------------------------------------------------ *)
(* §7.5: heterogeneity — geo-distribution and slow devices.            *)

let fig12 () =
  let parties = if !smoke then 7 else 42 in
  section
    (Printf.sprintf
       "§7.5: heterogeneity effects on the Gumbel-noise MPC (%d parties)"
       parties);
  (* Run the real Gumbel MPC to count its communication rounds, then apply
     the network profiles. The 73.8 s LAN compute anchor is the paper's
     measured 42-party run. *)
  let rng = Arb_util.Rng.create 5L in
  let iters = if !smoke then 4 else 40 in
  let eng = Arb_mpc.Engine.create ~parties rng () in
  let scale = Arb_util.Fixed.of_float 20.0 in
  for _ = 1 to iters do
    ignore (Arb_mpc.Fixpoint_mpc.gumbel eng ~scale)
  done;
  let rounds = (Arb_mpc.Engine.cost eng).Arb_mpc.Cost.rounds in
  let lan_compute = 73.8 in
  let lan = Arb_runtime.Net.mpc_wall_clock Arb_runtime.Net.lan ~rounds ~compute:lan_compute in
  let geo = Arb_runtime.Net.mpc_wall_clock Arb_runtime.Net.geo_distributed ~rounds ~compute:lan_compute in
  let slow =
    Arb_runtime.Net.mpc_wall_clock (Arb_runtime.Net.with_slow_devices Arb_runtime.Net.lan ~factor:1.51) ~rounds
      ~compute:lan_compute
  in
  T.print
    ~header:[ "Setting"; "Wall clock"; "vs LAN" ]
    [
      [ "LAN cluster"; Printf.sprintf "%.1f s" lan; "--" ];
      [ "Mumbai/NY/Paris/Sydney"; Printf.sprintf "%.1f s" geo;
        Printf.sprintf "+%.0f%%" ((geo /. lan -. 1.0) *. 100.0) ];
      [ "38 servers + 4 Pi-class"; Printf.sprintf "%.1f s" slow;
        Printf.sprintf "+%.0f%%" ((slow /. lan -. 1.0) *. 100.0) ];
    ];
  Printf.printf "  (%d MPC rounds measured in the real share-level execution)\n" rounds

(* ------------------------------------------------------------------ *)
(* End-to-end validation runs at simulation scale.                     *)

let e2e () =
  let devices = if !smoke then 48 else 96 in
  section
    (Printf.sprintf "End-to-end simulated runs (%d devices, real cryptography)"
       devices);
  let rng = Arb_util.Rng.create 17L in
  let names = if !smoke then [ "top1"; "median"; "cms" ] else Q.names in
  let rows =
    List.map
      (fun name ->
        let q = Q.test_instance ~epsilon:2.0 name in
        let db = Q.random_database rng q ~n:devices () in
        let config =
          {
            Arb_runtime.Exec.default_config with
            Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:100.0 ~delta:1e-3;
          }
        in
        match plan_and_execute config ~query:q ~db with
        | rep ->
            [ name;
              String.concat "; "
                (List.map Arb_lang.Interp.value_to_string rep.Arb_runtime.Exec.outputs)
              |> (fun s -> if String.length s > 44 then String.sub s 0 41 ^ "..." else s);
              string_of_bool rep.Arb_runtime.Exec.certificate_ok;
              string_of_bool rep.Arb_runtime.Exec.audit_ok ]
        | exception e -> [ name; "FAILED: " ^ Printexc.to_string e; "-"; "-" ])
      names
  in
  T.print ~header:[ "Query"; "Outputs"; "Cert ok"; "Audit ok" ] rows

let chaos () =
  section "Chaos runs: fault plan vs outcome (64 devices, top1)";
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let db = Q.random_database (Arb_util.Rng.create 99L) q ~n:64 ~skew:2.0 () in
  let plan =
    let r =
      P.Search.plan ~limits:P.Constraints.no_limits ~query:q
        ~n:(Array.length db) ()
    in
    match r.P.Search.plan with
    | Some p -> p
    | None -> failwith "no plan for top1"
  in
  let module F = Arb_runtime.Fault in
  let specs =
    [ ("clean", F.no_faults);
      ("dropout p=.5", { F.no_faults with F.dropout_p = 0.5 });
      ("corrupt 1 party", { F.no_faults with F.share_corrupt_p = 0.15 });
      ("corrupt 2 parties",
       { F.no_faults with F.share_corrupt_p = 1.0; corrupt_parties = 2 });
      ("drop p=.2", { F.no_faults with F.message_drop_p = 0.2 });
      ("tamper", { F.no_faults with F.tamper_p = 1.0 });
      ("auditors down", { F.no_faults with F.audit_fail_p = 1.0 });
      ("chaos", F.chaos) ]
  in
  let rows =
    List.concat_map
      (fun (name, spec) ->
        List.map
          (fun seed ->
            let config =
              {
                Arb_runtime.Exec.default_config with
                Arb_runtime.Exec.seed;
                budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.5;
                faults = spec;
              }
            in
            match
              Arb_runtime.Exec.run_source config ~query:q ~plan
                ~src:(Arb_runtime.Exec.source_of_db db)
            with
            | Ok rep ->
                let tr = rep.Arb_runtime.Exec.trace in
                [ name; Printf.sprintf "%Ld" seed; "ok";
                  string_of_int (Arb_runtime.Trace.faults_total tr);
                  string_of_int tr.Arb_runtime.Trace.fault_retries;
                  string_of_int tr.Arb_runtime.Trace.committees_reassigned ]
            | Error f ->
                [ name; Printf.sprintf "%Ld" seed;
                  "fail-closed: " ^ f.Arb_runtime.Exec.stage; "-"; "-"; "-" ])
          (if !smoke then [ 1L ] else [ 1L; 2L ]))
      specs
  in
  T.print
    ~header:[ "Fault plan"; "Seed"; "Outcome"; "Injected"; "Retries"; "Reassigned" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations of the design decisions DESIGN.md §4 calls out.           *)

let ablations () =
  section "Ablation: sum-tree fanout (expected vs max participant cost)";
  (* §4.3: larger fanouts amortize committee startup (lower expected cost);
     smaller fanouts cap each node's work (lower max cost). *)
  let n = (paper_n ()) and cols = 32768 in
  let ring = Cm.ring_for Cm.default P.Plan.Ahe ~cols in
  ignore ring;
  let m = P.Search.committee_size_for 1024 in
  let rows =
    List.map
      (fun fanout ->
        (* Build the tree's vignettes by hand, price them. *)
        let rec levels nodes acc =
          if nodes <= 1 then List.rev acc
          else
            let next = (nodes + fanout - 1) / fanout in
            levels next (next :: acc)
        in
        let vs =
          List.map
            (fun nodes ->
              { P.Plan.location = P.Plan.Committees nodes;
                work = P.Plan.W_he_sum { crypto = P.Plan.Ahe; cts = 1; inputs = fanout } })
            (levels n [])
        in
        let metrics =
          Cm.combine ~n_devices:n
            (List.map (fun v -> Cm.price Cm.default ~n_devices:n ~m ~cols v) vs)
        in
        [ string_of_int fanout;
          U.seconds_to_string metrics.Cm.part_exp_time;
          U.seconds_to_string metrics.Cm.part_max_time;
          U.bytes_to_string metrics.Cm.part_max_bytes ])
      [ 16; 64; 256; 1024; 4096 ]
  in
  T.print ~header:[ "Fanout"; "Exp participant t"; "Max participant t"; "Max bytes" ] rows;

  section "Ablation: em instantiation crossover vs category count";
  (* §4.3: the Gumbel and exponentiation variants trade differently with C;
     force each variant by filtering the search's choices via the variant
     the winner reports. *)
  let rows =
    List.map
      (fun c ->
        let q = Q.make ~name:"top1" ~c () in
        let r = P.Search.plan ~query:q ~n:(paper_n ()) () in
        match (r.P.Search.plan, r.P.Search.metrics) with
        | Some p, Some mt ->
            [ string_of_int c;
              (match p.P.Plan.em_variant with
              | `Gumbel -> "gumbel"
              | `Exponentiate -> "exponentiate"
              | `Sketch -> "sketch"
              | `None -> "-");
              U.seconds_to_string mt.Cm.part_exp_time;
              string_of_int p.P.Plan.committee_count ]
        | _ -> [ string_of_int c; "no plan"; "-"; "-" ])
      [ 4; 64; 1024; 32768 ]
  in
  T.print ~header:[ "C"; "Chosen variant"; "Exp participant t"; "Committees" ] rows;

  section "Ablation: committee chunk size (noising 2^15 categories)";
  (* §4.4: fine chunks parallelize (low max) but multiply committees
     (higher expected + sizing pressure); coarse chunks concentrate work. *)
  let rows =
    List.filter_map
      (fun chunk ->
        let committees = (cols + chunk - 1) / chunk in
        let m = P.Search.committee_size_for committees in
        let v =
          { P.Plan.location = P.Plan.Committees committees;
            work = P.Plan.W_mpc_noise { kind = `Gumbel; count = chunk } }
        in
        let c = Cm.price Cm.default ~n_devices:(paper_n ()) ~m ~cols v in
        let metrics = Cm.combine ~n_devices:(paper_n ()) [ c ] in
        Some
          [ string_of_int chunk; string_of_int committees; string_of_int m;
            U.seconds_to_string metrics.Cm.part_exp_time;
            U.seconds_to_string metrics.Cm.part_max_time ])
      [ 1; 16; 256; 1024; 4096 ]
  in
  T.print
    ~header:[ "Chunk"; "Committees"; "m"; "Exp participant t"; "Max participant t" ]
    rows;

  section "Ablation: AHE vs FHE profile (ciphertext and upload cost)";
  let rows =
    List.map
      (fun cols ->
        let a = Cm.ring_for Cm.default P.Plan.Ahe ~cols in
        let f = Cm.ring_for Cm.default P.Plan.Fhe ~cols in
        [ string_of_int cols; string_of_int a.Cm.ring_n;
          U.bytes_to_string a.Cm.ct_bytes; U.bytes_to_string f.Cm.ct_bytes;
          Printf.sprintf "%.1fx" (f.Cm.ct_bytes /. a.Cm.ct_bytes) ])
      [ 1; 1024; 32768; 100000 ]
  in
  T.print ~header:[ "C"; "Ring n"; "AHE ct"; "FHE ct"; "FHE/AHE" ] rows

(* ------------------------------------------------------------------ *)
(* Extension: utility vs privacy. Not a paper figure — the accuracy side
   of the Accuracy goal (§3): how often does the DP answer match the
   cleartext one as epsilon varies? Uses the reference interpreter so the
   sweep stays fast. *)

let accuracy () =
  let n = if !smoke then 400 else 2000 and trials = if !smoke then 10 else 60 in
  section
    (Printf.sprintf
       "Extension: utility vs epsilon (reference semantics, N = %d, C = 64)" n);
  let top1 = Q.make ~name:"top1" ~c:64 () in
  let median = Q.make ~name:"median" ~c:64 () in
  let db = Q.random_database (Arb_util.Rng.create 123L) top1 ~n ~skew:1.2 () in
  let counts = Array.make 64 0 in
  Array.iter (fun row -> Array.iteri (fun j v -> counts.(j) <- counts.(j) + v) row) db;
  let true_mode =
    let best = ref 0 in
    Array.iteri (fun j c -> if c > counts.(!best) then best := j) counts;
    !best
  in
  let true_median =
    let acc = ref 0 and res = ref 0 and found = ref false in
    Array.iteri
      (fun i c ->
        acc := !acc + c;
        if (not !found) && 2 * !acc >= n then begin res := i; found := true end)
      counts;
    !res
  in
  let rows =
    List.map
      (fun eps ->
        let q_top = { top1 with Q.program = { top1.Q.program with Arb_lang.Ast.epsilon = eps } } in
        let q_med = { median with Q.program = { median.Q.program with Arb_lang.Ast.epsilon = eps } } in
        let hits = ref 0 and med_err = ref 0.0 in
        for t = 1 to trials do
          let rng = Arb_util.Rng.create (Int64.of_int (1000 + t)) in
          (match Arb_lang.Interp.run q_top.Q.program ~db rng with
          | [ Arb_lang.Interp.V_int w ] -> if w = true_mode then incr hits
          | _ -> ());
          match Arb_lang.Interp.run q_med.Q.program ~db rng with
          | [ Arb_lang.Interp.V_int b ] ->
              med_err := !med_err +. float_of_int (abs (b - true_median))
          | _ -> ()
        done;
        [ Printf.sprintf "%.2f" eps;
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int !hits /. float_of_int trials);
          Printf.sprintf "%.1f buckets" (!med_err /. float_of_int trials) ])
      [ 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 ]
  in
  T.print ~header:[ "epsilon"; "top1 = true mode"; "median |error|" ] rows

(* ------------------------------------------------------------------ *)
(* Cost-model validation (the paper's [44 §C]): does the model's ordering
   agree with what the executed runtime actually does? Compared as ratios
   between queries, since the model is calibrated at deployment scale and
   the runtime at simulation scale. *)

let validation () =
  section "Cost-model validation: predicted vs executed committee work";
  (* Model and runtime compared at the same (test) scale so category counts
     match; the model still prices with its deployment constants — only the
     relative ordering is under test. *)
  let model_ops name =
    let q = Q.test_instance name in
    match (P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n:96 ()).P.Search.plan with
    | None -> 0.0
    | Some plan ->
        Cm.member_cost_by_kind Cm.default ~n_devices:96
          ~m:plan.P.Plan.committee_size ~cols:q.Q.categories plan.P.Plan.vignettes
        |> List.fold_left
             (fun acc (k, _, b) -> if k = `Operations then acc +. b else acc)
             0.0
  in
  let trace_ops name =
    let q = Q.test_instance ~epsilon:2.0 name in
    let db = Q.random_database (Arb_util.Rng.create 55L) q ~n:96 () in
    let cfg =
      {
        Arb_runtime.Exec.default_config with
        Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:1000.0 ~delta:0.5;
      }
    in
    let report = plan_and_execute cfg ~query:q ~db in
    float_of_int
      (Arb_runtime.Trace.mpc_bytes report.Arb_runtime.Exec.trace
         Arb_runtime.Trace.Operations)
  in
  let base_model = model_ops "bayes" and base_trace = trace_ops "bayes" in
  let rows =
    List.map
      (fun name ->
        let m_ratio = model_ops name /. base_model in
        let t_ratio = trace_ops name /. base_trace in
        [ name;
          Printf.sprintf "%.1fx" m_ratio;
          Printf.sprintf "%.1fx" t_ratio;
          (if (m_ratio > 1.0) = (t_ratio > 1.0) then "agree" else "DISAGREE") ])
      (if !smoke then [ "top1"; "bayes" ]
       else [ "top1"; "median"; "hypotest"; "cms"; "bayes" ])
  in
  Printf.printf
    "  (operations-committee bytes relative to bayes; the model orders plans,\n   so agreement in direction is the requirement, §4.6)\n";
  T.print ~header:[ "Query"; "Model (vs bayes)"; "Executed (vs bayes)"; "Direction" ] rows

(* ------------------------------------------------------------------ *)
(* Planner scaling: the seed's full-repricing sequential search vs the
   incremental-pricing search vs the multicore fan-out. All three must
   return the same winning plan (the incremental bound and the shared
   incumbent are exact and admissible); the interesting output is the
   wall-clock ratio and the per-variant explored/pruned counters. *)

let planner_scaling () =
  section "Planner scaling: naive vs incremental vs parallel";
  let ns =
    if !smoke then [ 1_000_000 ]
    else [ 1_000_000; 100_000_000; 1_000_000_000 ]
  in
  let queries = if !smoke then [ "top1"; "median" ] else Q.names in
  let workers = max 2 (Domain.recommended_domain_count ()) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let winner (r : P.Search.result) =
    match r.P.Search.plan with
    | Some p -> P.Plan_io.plan_to_string p
    | None -> "none"
  in
  let counters (r : P.Search.result) =
    Printf.sprintf "%d/%d" r.P.Search.stats.P.Search.prefixes
      r.P.Search.stats.P.Search.pruned
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun name ->
            let q = Q.paper_instance name in
            let naive, t_naive =
              time (fun () -> P.Search.plan ~incremental:false ~query:q ~n ())
            in
            let inc, t_inc = time (fun () -> P.Search.plan ~query:q ~n ()) in
            let par, t_par =
              time (fun () -> P.Search.plan ~domains:workers ~query:q ~n ())
            in
            if winner naive <> winner inc || winner inc <> winner par then
              failwith
                (Printf.sprintf
                   "planner_scaling: search variants disagree on the winner \
                    for %s at N=%d"
                   name n);
            [ name;
              Printf.sprintf "%.0e" (float_of_int n);
              Printf.sprintf "%.4f s" t_naive;
              Printf.sprintf "%.4f s" t_inc;
              Printf.sprintf "%.4f s" t_par;
              Printf.sprintf "%.1fx" (t_naive /. Float.max 1e-9 t_inc);
              Printf.sprintf "%.1fx" (t_naive /. Float.max 1e-9 t_par);
              counters naive; counters inc; counters par ])
          queries)
      ns
  in
  Printf.printf "  (parallel = %d domains; prefixes/pruned per variant)\n" workers;
  T.print
    ~header:
      [ "Query"; "N"; "naive"; "incremental"; "parallel"; "inc speedup";
        "par speedup"; "naive p/p"; "inc p/p"; "par p/p" ]
    rows

(* ------------------------------------------------------------------ *)
(* service_throughput: the multi-tenant service layer — plan-cache      *)
(* speedup and worker-pool determinism (beyond the paper: the PAPAYA-   *)
(* style deployment model, a stream of queries against one budget).     *)

let service_throughput () =
  let module S = Arb_service in
  section "service_throughput: plan cache + multicore planning service";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Part A: per-submission planning latency, cold search vs cache hit,
     at paper scale (what a long-lived service skips on a repeat
     submission). *)
  let n = paper_n () in
  let cache_queries = if !smoke then [ "top1"; "hypotest" ] else
      [ "top1"; "gap"; "hypotest"; "median"; "auction" ]
  in
  let goal = P.Constraints.Min_part_exp_time in
  let cache = S.Cache.create () in
  let best_speedup = ref 0.0 in
  let rows =
    List.map
      (fun name ->
        let q = Q.paper_instance name in
        let r, t_cold = time (fun () -> P.Search.plan ~query:q ~n ()) in
        (match (r.P.Search.plan, r.P.Search.metrics) with
        | Some plan, Some metrics ->
            S.Cache.add cache
              (S.Cache.key ~goal ~query:q ~n ())
              ~query_name:name
              { S.Cache.plan; metrics; cols = q.Q.categories }
        | _ -> failwith ("service_throughput: no plan for " ^ name));
        (* A hit submission still canonicalizes its key; average the
           key+lookup over many repetitions for a stable figure. *)
        let reps = 100 in
        let (), t_hits =
          time (fun () ->
              for _ = 1 to reps do
                if S.Cache.find cache (S.Cache.key ~goal ~query:q ~n ()) = None
                then failwith "service_throughput: cache lost an entry"
              done)
        in
        let t_hit = t_hits /. float_of_int reps in
        let speedup = t_cold /. Float.max 1e-9 t_hit in
        best_speedup := Float.max !best_speedup speedup;
        [ name; U.seconds_to_string t_cold; U.seconds_to_string t_hit;
          Printf.sprintf "%.0fx" speedup ])
      cache_queries
  in
  if !best_speedup < 10.0 then
    failwith
      (Printf.sprintf
         "service_throughput: cache hits are only %.1fx faster than cold plans"
         !best_speedup);
  Printf.printf "  (cold = full search at N=%s; hit = key + cache lookup)\n"
    (U.si (float_of_int n));
  T.print ~header:[ "Query"; "cold plan"; "cache hit"; "speedup" ] rows;
  (* Part B: the service end to end — one workload, increasing worker
     counts. The canonical lifecycle records must be byte-identical to the
     single-worker run; only the planning stage parallelizes (execution is
     serialized on the certificate chain). *)
  let devices = if !smoke then 24 else 64 in
  let exec_queries =
    if !smoke then [ "top1"; "hypotest" ]
    else [ "top1"; "gap"; "hypotest"; "median"; "auction" ]
  in
  let workload =
    List.concat_map
      (fun name ->
        [
          {
            S.Workload.query = name;
            epsilon = 0.5;
            categories = None;
            goal;
            repeat = 2;
            every = None;
            window = None;
            tolerance = None;
          };
        ])
      exec_queries
  in
  let run_at workers =
    let t =
      S.Service.create
        ~budget:(Arb_dp.Budget.create ~epsilon:1.0e6 ~delta:0.5)
        ~devices ~seed:11 ()
    in
    List.iter (fun s -> ignore (S.Service.submit t s)) workload;
    let records, wall = time (fun () -> S.Service.drain ~workers t) in
    let c = S.Service.counters t in
    if not (S.Service.chain_verifies t) then
      failwith "service_throughput: certificate chain broke";
    (S.Lifecycle.records_to_string records, wall, c)
  in
  let base_records, _, _ = run_at 1 in
  let worker_counts =
    [ 1; 2; max 2 (Domain.recommended_domain_count ()) ]
    |> List.sort_uniq compare
  in
  let rows =
    List.map
      (fun workers ->
        let records, wall, c = run_at workers in
        if not (String.equal records base_records) then
          failwith
            (Printf.sprintf
               "service_throughput: %d-worker lifecycle records differ from \
                the single-worker run"
               workers);
        [
          string_of_int workers;
          string_of_int c.S.Lifecycle.submitted;
          string_of_int c.S.Lifecycle.planned;
          string_of_int c.S.Lifecycle.cache_hits;
          U.seconds_to_string c.S.Lifecycle.plan_seconds;
          U.seconds_to_string c.S.Lifecycle.exec_seconds;
          U.seconds_to_string wall;
          "identical";
        ])
      worker_counts
  in
  Printf.printf
    "  (%d submissions over %d devices; execution serialized on the chain)\n"
    (List.length workload * 2) devices;
  T.print
    ~header:
      [ "workers"; "submitted"; "planned"; "hits"; "plan s"; "exec s";
        "drain wall"; "records vs 1 worker" ]
    rows

(* ------------------------------------------------------------------ *)
(* Profiling: the observability layer (lib/obs) end to end — spans,    *)
(* metrics, trace validity, deterministic byte-identity, top-k table.  *)

(* Structural validator for Chrome trace_event JSON: every event carries
   the required fields, and per (pid, tid) the complete events form a
   well-nested span tree. Returns the event count. *)
let validate_trace_json s =
  let module J = Arb_util.Json in
  let events =
    match J.of_string s with
    | J.List evs -> evs
    | _ -> failwith "profiling: trace is not a JSON array"
    | exception J.Parse_error m -> failwith ("profiling: trace JSON: " ^ m)
  in
  let field name ev =
    match ev with
    | J.Obj kvs -> (
        match List.assoc_opt name kvs with
        | Some v -> v
        | None -> failwith ("profiling: event missing \"" ^ name ^ "\""))
    | _ -> failwith "profiling: trace event is not an object"
  in
  let spans = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      (match field "name" ev with
      | J.String "" -> failwith "profiling: empty event name"
      | J.String _ -> ()
      | _ -> failwith "profiling: event name is not a string");
      ignore (J.to_str (field "cat" ev));
      let ts = J.to_int (field "ts" ev) in
      let pid = J.to_int (field "pid" ev) in
      let tid = J.to_int (field "tid" ev) in
      match J.to_str (field "ph" ev) with
      | "X" ->
          let dur = J.to_int (field "dur" ev) in
          if ts < 0 || dur < 0 then failwith "profiling: negative ts/dur";
          let key = (pid, tid) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt spans key) in
          Hashtbl.replace spans key ((ts, ts + dur) :: prev)
      | "i" -> ignore (J.to_str (field "s" ev))
      | ph -> failwith ("profiling: unexpected phase " ^ ph))
    events;
  Hashtbl.iter
    (fun (_pid, tid) sps ->
      (* Sorted by (start asc, end desc) — i.e. parents before children —
         any two spans must be disjoint or contained. *)
      let sps =
        List.sort
          (fun (s1, e1) (s2, e2) -> compare (s1, -e1) (s2, -e2))
          sps
      in
      let stack = ref [] in
      List.iter
        (fun (s, e) ->
          let rec pop () =
            match !stack with
            | (_, pe) :: rest when pe <= s ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (ps, pe) :: _ when not (ps <= s && e <= pe) ->
              failwith
                (Printf.sprintf
                   "profiling: spans overlap without nesting on tid %d \
                    ([%d,%d] vs [%d,%d])"
                   tid ps pe s e)
          | _ -> ());
          stack := (s, e) :: !stack)
        sps)
    spans;
  List.length events

let profiling () =
  section "Profiling: span tracer + metrics registry (lib/obs)";
  let module Obs = Arb_obs in
  let n = if !smoke then 1_000_000 else 1_000_000_000 in
  let devices = if !smoke then 32 else 64 in
  (* A: profiled planner search (wall clock) — validate the trace and
     print the top-k hottest phases. *)
  let tracer = Obs.Tracer.create () in
  let reg = Obs.Metrics.create () in
  let q = Q.paper_instance "top1" in
  ignore (P.Search.plan ~tracer ~metrics:reg ~query:q ~n ());
  let events = validate_trace_json (Obs.Tracer.to_string tracer) in
  Printf.printf "  planner trace: %d events, well-nested; top phases:\n"
    events;
  let top =
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    take 5 (Obs.Tracer.totals tracer)
  in
  T.print
    ~header:[ "span"; "count"; "total" ]
    (List.map
       (fun (name, count, secs) ->
         [ name; string_of_int count; U.seconds_to_string secs ])
       top);
  (* B: profiled runtime execution on the simulated protocol clock. *)
  let sim = Obs.Clock.sim () in
  let rt_tracer = Obs.Tracer.create ~clock:(Obs.Clock.Simulated sim) () in
  let qx = Q.test_instance ~epsilon:2.0 "top1" in
  let db = Q.random_database (Arb_util.Rng.create 17L) qx ~n:devices () in
  let config =
    { Arb_runtime.Exec.default_config with
      Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:100.0 ~delta:1e-3;
      tracer = Some rt_tracer }
  in
  let rep = plan_and_execute config ~query:qx ~db in
  ignore (validate_trace_json (Obs.Tracer.to_string rt_tracer));
  Printf.printf
    "  runtime trace: %d events on the simulated clock (%.3f protocol s); \
     cert ok: %b\n"
    (Obs.Tracer.event_count rt_tracer)
    sim.Obs.Clock.sim_now rep.Arb_runtime.Exec.certificate_ok;
  (* C: deterministic mode — trace and metrics bytes must be identical
     across runs and across worker counts. *)
  let module S = Arb_service in
  let goal = P.Constraints.Min_part_exp_time in
  let workload =
    List.map
      (fun name ->
        { S.Workload.query = name; epsilon = 0.4; categories = None;
          goal; repeat = 2; every = None; window = None; tolerance = None })
      [ "top1"; "hypotest" ]
  in
  let det_run workers =
    let tr = Obs.Tracer.create ~clock:Obs.Clock.Deterministic () in
    let reg = Obs.Metrics.create () in
    let t =
      S.Service.create
        ~budget:(Arb_dp.Budget.create ~epsilon:1.0e6 ~delta:0.5)
        ~metrics:reg ~devices:(if !smoke then 24 else 48) ~seed:11 ()
    in
    List.iter (fun s -> ignore (S.Service.submit t s)) workload;
    ignore (S.Service.drain ~tracer:tr ~workers t);
    (Obs.Tracer.to_string tr, Obs.Metrics.to_prometheus reg)
  in
  let t1, m1 = det_run 1 in
  let t1', m1' = det_run 1 in
  let t2, m2 = det_run 2 in
  ignore (validate_trace_json t1);
  if not (String.equal t1 t1' && String.equal m1 m1') then
    failwith "profiling: deterministic trace/metrics differ across runs";
  (* arb_service_pool_workers reports the configured pool size, so it is
     the one series allowed to differ between worker counts. *)
  let drop_pool_gauge m =
    String.split_on_char '\n' m
    |> List.filter (fun l ->
           not (String.starts_with ~prefix:"arb_service_pool_workers" l))
    |> String.concat "\n"
  in
  if
    not
      (String.equal t1 t2
      && String.equal (drop_pool_gauge m1) (drop_pool_gauge m2))
  then
    failwith
      "profiling: deterministic trace/metrics differ across worker counts";
  Printf.printf
    "  deterministic service trace: %d bytes, identical across runs and \
     workers 1/2; metrics: %d bytes, identical\n"
    (String.length t1) (String.length m1)

(* ------------------------------------------------------------------ *)
(* crypto_kernels: the Barrett/lazy-reduction NTT + evaluation-form     *)
(* BGV overhaul, measured against the seed kernels (kept verbatim in    *)
(* Ntt as the *_reference oracles). The "old" columns re-enact the      *)
(* seed's exact transform sequences (4 negacyclic products per prime    *)
(* for mul, 2 more per digit per prime for relin, 2 per prime for       *)
(* encrypt, all with allocating coefficient-form ops); the "new"        *)
(* columns run the real Bgv entry points. Writes BENCH_crypto.json      *)
(* (schema in EXPERIMENTS.md).                                          *)

let crypto_kernels () =
  let module C = Arb_crypto in
  section "crypto_kernels: Barrett/lazy NTT + evaluation-form BGV";
  let time_iters iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  (* --- raw transforms: lazy kernels vs seed reference --- *)
  let n_ntt = if !smoke then 1024 else 4096 in
  let ntt_iters = if !smoke then 200 else 1000 in
  let plan = C.Ntt.plan ~n:n_ntt ~p:998244353 in
  let fld = C.Field.create 998244353 in
  let rng = Arb_util.Rng.create 42L in
  let buf = C.Poly.random_uniform fld rng n_ntt in
  let t_fwd_ref = time_iters ntt_iters (fun () -> C.Ntt.forward_reference plan buf) in
  let t_fwd_new = time_iters ntt_iters (fun () -> C.Ntt.forward plan buf) in
  let t_inv_ref = time_iters ntt_iters (fun () -> C.Ntt.inverse_reference plan buf) in
  let t_inv_new = time_iters ntt_iters (fun () -> C.Ntt.inverse plan buf) in
  (* --- mul + relinearize: seed sequence on reference kernels vs real Bgv --- *)
  let n_bgv = if !smoke then 256 else 1024 in
  let mr_iters = if !smoke then 10 else 50 in
  let params = C.Bgv.fhe_params ~n:n_bgv () in
  let q_primes = params.C.Bgv.q_primes in
  let flds = List.map C.Field.create q_primes in
  let plans = List.map (fun p -> C.Ntt.plan ~n:n_bgv ~p) q_primes in
  let nprimes = List.length q_primes in
  let rand_rq () = List.map (fun f -> C.Poly.random_uniform f rng n_bgv) flds in
  let old_rq_mul a b =
    List.map2
      (fun pl (x, y) -> C.Ntt.multiply_reference pl x y)
      plans (List.combine a b)
  in
  let old_rq_add a b =
    List.map2 (fun f (x, y) -> C.Poly.add f x y) flds (List.combine a b)
  in
  let ac0 = rand_rq () and ac1 = rand_rq () in
  let bc0 = rand_rq () and bc1 = rand_rq () in
  let rk_old = List.init nprimes (fun _ -> (rand_rq (), rand_rq ())) in
  let old_mul_relin () =
    (* Seed Bgv.mul: 4 negacyclic products per prime + the cross-term add. *)
    let c0 = old_rq_mul ac0 bc0 in
    let c1 = old_rq_add (old_rq_mul ac0 bc1) (old_rq_mul ac1 bc0) in
    let c2 = old_rq_mul ac1 bc1 in
    (* Seed Bgv.relinearize: per digit j, promote c2's residue at prime j
       into every prime and take two more products against the key pair. *)
    let c0 = ref c0 and c1 = ref c1 in
    List.iteri
      (fun j (b, a) ->
        let dig_j = List.nth c2 j in
        let digit = List.map (fun f -> Array.map (C.Field.of_int f) dig_j) flds in
        c0 := old_rq_add !c0 (old_rq_mul digit b);
        c1 := old_rq_add !c1 (old_rq_mul digit a))
      rk_old;
    ignore !c0
  in
  let bgv_rng = Arb_util.Rng.create 43L in
  let sk, pk = C.Bgv.keygen params bgv_rng in
  let rk = C.Bgv.relin_keygen params bgv_rng sk in
  let slots_a = Array.init 64 (fun i -> i + 1) in
  let slots_b = Array.init 64 (fun i -> (2 * i) + 1) in
  let ct_a = C.Bgv.encrypt pk bgv_rng slots_a in
  let ct_b = C.Bgv.encrypt pk bgv_rng slots_b in
  let new_mul_relin () = ignore (C.Bgv.relinearize rk (C.Bgv.mul ct_a ct_b)) in
  (* Sanity: the overhauled path still decrypts to the product. *)
  let dec = C.Bgv.decrypt sk (C.Bgv.relinearize rk (C.Bgv.mul ct_a ct_b)) in
  Array.iteri
    (fun i a ->
      if dec.(i) <> a * slots_b.(i) mod params.C.Bgv.t then
        failwith "crypto_kernels: mul+relin decrypts wrong")
    slots_a;
  let t_mr_old = time_iters mr_iters old_mul_relin in
  let t_mr_new = time_iters mr_iters new_mul_relin in
  let mr_speedup = t_mr_old /. Float.max 1e-12 t_mr_new in
  (* --- batched encryption: seed sequence vs real Bgv.encrypt --- *)
  let enc_params = C.Bgv.ahe_params ~n:n_bgv () in
  let e_primes = enc_params.C.Bgv.q_primes in
  let e_flds = List.map C.Field.create e_primes in
  let e_plans = List.map (fun p -> C.Ntt.plan ~n:n_bgv ~p) e_primes in
  let pt_plan = C.Ntt.plan ~n:n_bgv ~p:enc_params.C.Bgv.t in
  let enc_batch = if !smoke then 16 else 64 in
  let _esk, epk = C.Bgv.keygen enc_params bgv_rng in
  let epk_a = List.map (fun f -> C.Poly.random_uniform f rng n_bgv) e_flds in
  let epk_b = List.map (fun f -> C.Poly.random_uniform f rng n_bgv) e_flds in
  let e_rq_mul a b =
    List.map2
      (fun pl (x, y) -> C.Ntt.multiply_reference pl x y)
      e_plans (List.combine a b)
  in
  let e_rq_add a b =
    List.map2 (fun f (x, y) -> C.Poly.add f x y) e_flds (List.combine a b)
  in
  let e_reduce_small small =
    List.map (fun f -> Array.map (C.Field.of_int f) small) e_flds
  in
  let t = enc_params.C.Bgv.t in
  let old_encrypt slots =
    (* Seed Bgv.encrypt: encode (one plaintext-plan inverse), ternary u and
       two error polys, two negacyclic products per prime, scaled adds. *)
    let enc =
      Array.init n_bgv (fun i ->
          if i < Array.length slots then slots.(i) mod t else 0)
    in
    C.Ntt.inverse_reference pt_plan enc;
    let m = e_reduce_small enc in
    let u =
      e_reduce_small (Array.init n_bgv (fun _ -> Arb_util.Rng.int rng 3 - 1))
    in
    let err () =
      e_reduce_small
        (Array.init n_bgv (fun _ ->
             int_of_float
               (Float.round
                  (Arb_util.Rng.gaussian rng ~sigma:enc_params.C.Bgv.sigma))))
    in
    let scale k a = List.map2 (fun f x -> C.Poly.scale f k x) e_flds a in
    let c0 = e_rq_add (e_rq_add (e_rq_mul epk_b u) (scale t (err ()))) m in
    let c1 = e_rq_add (e_rq_mul epk_a u) (scale t (err ())) in
    ignore c0;
    ignore c1
  in
  let row = Array.init 64 (fun i -> i mod 2) in
  let t_enc_old =
    time_iters 1 (fun () ->
        for _ = 1 to enc_batch do
          old_encrypt row
        done)
  in
  let t_enc_new =
    time_iters 1 (fun () ->
        for _ = 1 to enc_batch do
          ignore (C.Bgv.encrypt epk bgv_rng row)
        done)
  in
  let enc_speedup = t_enc_old /. Float.max 1e-12 t_enc_new in
  (* --- end-to-end runtime: worker fan-out, byte-identity enforced --- *)
  let q = Q.test_instance ~epsilon:1000.0 "top1" in
  let devices = if !smoke then 48 else 96 in
  let db = Q.random_database (Arb_util.Rng.create 7L) q ~n:devices () in
  let workers = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let exec_with w =
    let config =
      {
        Arb_runtime.Exec.default_config with
        Arb_runtime.Exec.budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.5;
        workers = w;
      }
    in
    let t0 = Unix.gettimeofday () in
    let rep = plan_and_execute config ~query:q ~db in
    (rep, Unix.gettimeofday () -. t0)
  in
  let rep1, t_exec_1 = exec_with 1 in
  let repk, t_exec_k = exec_with workers in
  if
    rep1.Arb_runtime.Exec.outputs <> repk.Arb_runtime.Exec.outputs
    || not
         (String.equal
            (Format.asprintf "%a" Arb_runtime.Trace.pp rep1.Arb_runtime.Exec.trace)
            (Format.asprintf "%a" Arb_runtime.Trace.pp repk.Arb_runtime.Exec.trace))
  then failwith "crypto_kernels: outputs/trace differ across worker counts";
  let exec_speedup = t_exec_1 /. Float.max 1e-12 t_exec_k in
  (* --- report --- *)
  let ops_per_sec dt = 1.0 /. Float.max 1e-12 dt in
  T.print
    ~header:[ "Kernel"; "old (seed)"; "new"; "speedup" ]
    [
      [ Printf.sprintf "NTT forward n=%d" n_ntt;
        Printf.sprintf "%.0f /s" (ops_per_sec t_fwd_ref);
        Printf.sprintf "%.0f /s" (ops_per_sec t_fwd_new);
        Printf.sprintf "%.2fx" (t_fwd_ref /. Float.max 1e-12 t_fwd_new) ];
      [ Printf.sprintf "NTT inverse n=%d" n_ntt;
        Printf.sprintf "%.0f /s" (ops_per_sec t_inv_ref);
        Printf.sprintf "%.0f /s" (ops_per_sec t_inv_new);
        Printf.sprintf "%.2fx" (t_inv_ref /. Float.max 1e-12 t_inv_new) ];
      [ Printf.sprintf "mul+relin n=%d" n_bgv;
        Printf.sprintf "%.3f ms" (t_mr_old *. 1e3);
        Printf.sprintf "%.3f ms" (t_mr_new *. 1e3);
        Printf.sprintf "%.2fx" mr_speedup ];
      [ Printf.sprintf "encrypt x%d n=%d" enc_batch n_bgv;
        Printf.sprintf "%.1f /s" (float_of_int enc_batch /. Float.max 1e-12 t_enc_old);
        Printf.sprintf "%.1f /s" (float_of_int enc_batch /. Float.max 1e-12 t_enc_new);
        Printf.sprintf "%.2fx" enc_speedup ];
      [ Printf.sprintf "exec e2e (%d dev, %d wkr)" devices workers;
        Printf.sprintf "%.3f s" t_exec_1;
        Printf.sprintf "%.3f s" t_exec_k;
        Printf.sprintf "%.2fx" exec_speedup ];
    ];
  let transforms, pointwise, saved = C.Ntt.Stats.get () in
  Printf.printf
    "  kernel counters: %d transforms, %d pointwise ops, %d divisions saved\n"
    transforms pointwise saved;
  (* Acceptance floors (ISSUE 5) — enforced only at full size, where the
     timings are stable enough to gate on. *)
  if not !smoke then begin
    if mr_speedup < 3.0 then
      failwith
        (Printf.sprintf "crypto_kernels: mul+relin speedup %.2fx < 3x"
           mr_speedup);
    if enc_speedup < 2.0 then
      failwith
        (Printf.sprintf "crypto_kernels: batched-encrypt speedup %.2fx < 2x"
           enc_speedup)
  end;
  let module J = Arb_util.Json in
  let json =
    J.Obj
      [
        ("schema", J.String "arb-bench-crypto/1");
        ("smoke", J.Bool !smoke);
        ( "ntt",
          J.Obj
            [
              ("n", J.Int n_ntt);
              ("forward_ref_per_sec", J.Float (ops_per_sec t_fwd_ref));
              ("forward_new_per_sec", J.Float (ops_per_sec t_fwd_new));
              ("inverse_ref_per_sec", J.Float (ops_per_sec t_inv_ref));
              ("inverse_new_per_sec", J.Float (ops_per_sec t_inv_new));
            ] );
        ( "mul_relin",
          J.Obj
            [
              ("n", J.Int n_bgv);
              ("old_ms", J.Float (t_mr_old *. 1e3));
              ("new_ms", J.Float (t_mr_new *. 1e3));
              ("speedup", J.Float mr_speedup);
            ] );
        ( "encrypt",
          J.Obj
            [
              ("n", J.Int n_bgv);
              ("batch", J.Int enc_batch);
              ( "old_per_sec",
                J.Float (float_of_int enc_batch /. Float.max 1e-12 t_enc_old) );
              ( "new_per_sec",
                J.Float (float_of_int enc_batch /. Float.max 1e-12 t_enc_new) );
              ("speedup", J.Float enc_speedup);
            ] );
        ( "exec",
          J.Obj
            [
              ("devices", J.Int devices);
              ("workers", J.Int workers);
              ("seconds_workers_1", J.Float t_exec_1);
              ("seconds_workers_k", J.Float t_exec_k);
              ("speedup", J.Float exec_speedup);
              ("byte_identical", J.Bool true);
            ] );
        ( "counters",
          J.Obj
            [
              ("transforms", J.Int transforms);
              ("pointwise_ops", J.Int pointwise);
              ("reductions_saved", J.Int saved);
            ] );
      ]
  in
  let oc = open_out "BENCH_crypto.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_crypto.json\n"

(* ------------------------------------------------------------------ *)
(* Device scaling: cohort-sharded execution at population scale.       *)
(* Gates on the scale-equivalence contract at small N, then streams    *)
(* populations up to 10^8 devices with real ciphertexts in the sampled *)
(* cohorts. Writes BENCH_scale.json.                                   *)

let device_scaling () =
  section "Device scaling: cohort-sharded execution (BENCH_scale.json)";
  let module R = Arb_runtime in
  let module J = Arb_util.Json in
  let q = Q.test_instance ~epsilon:1000.0 "hypotest" in
  let seed = 7L in
  let config sharding =
    {
      R.Exec.default_config with
      R.Exec.seed = 3L;
      budget = Arb_dp.Budget.create ~epsilon:1.0e7 ~delta:0.5;
      sharding;
    }
  in
  let plan_for n =
    let r = P.Search.plan ~limits:P.Constraints.no_limits ~query:q ~n () in
    match r.P.Search.plan with
    | Some p -> p
    | None -> failwith "device_scaling: no plan for hypotest"
  in
  let source n = { R.Exec.n_devices = n; row = Q.device_source ~seed q } in
  (* --- gate 1: sharded == full on everything the protocol releases --- *)
  let n_eq = 512 in
  let plan_eq = plan_for n_eq in
  let full =
    execute (config R.Exec.Full) ~query:q ~plan:plan_eq ~src:(source n_eq)
  in
  let sharded_eq =
    execute
      (config (R.Exec.Sharded { cohort_size = 64; sampled_cohorts = 2 }))
      ~query:q ~plan:plan_eq ~src:(source n_eq)
  in
  if
    full.R.Exec.outputs <> sharded_eq.R.Exec.outputs
    || not
         (Arb_dp.Budget.equal full.R.Exec.certificate.R.Setup.budget_left
            sharded_eq.R.Exec.certificate.R.Setup.budget_left)
    || full.R.Exec.certificate <> sharded_eq.R.Exec.certificate
  then failwith "device_scaling: sharded run diverged from full run";
  Printf.printf
    "  equivalence gate: sharded == full at n=%d (outputs, budget, certificate)\n"
    n_eq;
  (* --- gate 2: worker count changes nothing in sharded mode --- *)
  let sharded_w w =
    execute
      {
        (config (R.Exec.Sharded { cohort_size = 64; sampled_cohorts = 2 })) with
        R.Exec.workers = w;
      }
      ~query:q ~plan:plan_eq ~src:(source n_eq)
  in
  let w1 = sharded_w 1 and w3 = sharded_w 3 in
  if
    w1.R.Exec.outputs <> w3.R.Exec.outputs
    || not
         (String.equal
            (J.to_string (R.Trace.to_json w1.R.Exec.trace))
            (J.to_string (R.Trace.to_json w3.R.Exec.trace)))
  then failwith "device_scaling: sharded outputs/trace differ across workers";
  Printf.printf "  worker gate: byte-identical at 1 and 3 workers\n";
  (* --- the scaling sweep: O(cohort) memory, every device accounted --- *)
  let cohort_size = if !smoke then 1_024 else 4_096 in
  let sizes =
    if !smoke then [ 100_000; 1_000_000 ]
    else [ 1_000_000; 10_000_000; 100_000_000 ]
  in
  let workers = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let runs =
    List.map
      (fun n ->
        let plan = plan_for n in
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let rep =
          execute
            {
              (config (R.Exec.Sharded { cohort_size; sampled_cohorts = 2 })) with
              R.Exec.workers;
            }
            ~query:q ~plan ~src:(source n)
        in
        let dt = Unix.gettimeofday () -. t0 in
        if rep.R.Exec.accepted_inputs + rep.R.Exec.rejected_inputs <> n then
          failwith "device_scaling: accounting does not cover the population";
        if not (rep.R.Exec.certificate_ok && rep.R.Exec.audit_ok) then
          failwith "device_scaling: certificate/audit failed at scale";
        (* Peak-memory proxy: the major heap's high-water mark (words) after
           the run — O(cohort), not O(N), is the claim under test. *)
        let heap_mb =
          float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6
        in
        (n, rep, dt, heap_mb))
      sizes
  in
  T.print
    ~header:
      [ "Devices"; "Materialized"; "Seconds"; "Devices/sec"; "Heap MB (peak)" ]
    (List.map
       (fun (n, rep, dt, heap_mb) ->
         let t = rep.R.Exec.trace in
         [ U.si (float_of_int n);
           string_of_int t.R.Trace.devices_materialized;
           Printf.sprintf "%.2f" dt;
           Printf.sprintf "%.0f" (float_of_int n /. Float.max 1e-9 dt);
           Printf.sprintf "%.1f" heap_mb ])
       runs);
  let json =
    J.Obj
      [
        ("schema", J.String "arb-bench-scale/1");
        ("smoke", J.Bool !smoke);
        ("query", J.String "hypotest");
        ("cohort_size", J.Int cohort_size);
        ("sampled_cohorts", J.Int 2);
        ("workers", J.Int workers);
        ("equivalence_gate_n", J.Int n_eq);
        ("equivalence_ok", J.Bool true);
        ("workers_byte_identical", J.Bool true);
        ( "runs",
          J.List
            (List.map
               (fun (n, rep, dt, heap_mb) ->
                 let t = rep.R.Exec.trace in
                 J.Obj
                   [
                     ("devices", J.Int n);
                     ("devices_materialized", J.Int t.R.Trace.devices_materialized);
                     ("cohorts_total", J.Int t.R.Trace.cohorts_total);
                     ("cohorts_sampled", J.Int t.R.Trace.cohorts_sampled);
                     ("seconds", J.Float dt);
                     ( "devices_per_sec",
                       J.Float (float_of_int n /. Float.max 1e-9 dt) );
                     ("peak_heap_mb", J.Float heap_mb);
                     ("accepted", J.Int rep.R.Exec.accepted_inputs);
                     ("rejected", J.Int rep.R.Exec.rejected_inputs);
                   ])
               runs) );
      ]
  in
  let oc = open_out "BENCH_scale.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_scale.json\n"

(* ------------------------------------------------------------------ *)
(* service_load: the HTTP front door under concurrent load — path      *)
(* equivalence (HTTP == in-process, byte-identical records), a         *)
(* >=500-connection fan-in, keep-alive throughput/latency, and         *)
(* backpressure that refuses with the budget intact. Writes            *)
(* BENCH_service.json.                                                 *)

let service_load () =
  let module S = Arb_service in
  let module H = S.Http in
  let module B = Arb_dp.Budget in
  let module J = Arb_util.Json in
  let module O = Arb_obs in
  section "service_load: HTTP front door under concurrent load";
  let host = "127.0.0.1" in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let goal = P.Constraints.Min_part_exp_time in
  let mk_sub ?(repeat = 1) ~epsilon query =
    { S.Workload.query; epsilon; categories = None; goal; repeat;
      every = None; window = None; tolerance = None }
  in
  let fresh_service () =
    S.Service.create
      ~budget:(B.create ~epsilon:100.0 ~delta:0.01)
      ~devices:(if !smoke then 24 else 48)
      ~seed:11 ()
  in
  let with_front_door ?(server_config = S.Server.default_config) svc f =
    let api = S.Api.create ~service:svc () in
    let server =
      S.Server.start ~config:server_config ~handler:(S.Api.handler api) ()
    in
    Fun.protect
      ~finally:(fun () ->
        S.Server.stop server;
        S.Api.join api)
      (fun () -> f api server (S.Server.port server))
  in
  let rec wait_until tries f =
    f ()
    || tries > 0
       && (Unix.sleepf 0.02;
           wait_until (tries - 1) f)
  in

  (* Gate 1: path equivalence. The same submissions, once through the
     socket and once in-process, must produce byte-identical canonical
     lifecycle records and the same remaining budget — the HTTP edge adds
     wall-clock I/O but zero accounting divergence. *)
  let subs =
    if !smoke then
      [ mk_sub ~epsilon:0.5 "top1"; mk_sub ~epsilon:0.4 "hypotest";
        mk_sub ~epsilon:0.5 "top1" ]
    else
      List.concat_map
        (fun q -> [ mk_sub ~epsilon:0.5 ~repeat:2 q ])
        [ "top1"; "gap"; "hypotest"; "median"; "auction" ]
  in
  let reference = fresh_service () in
  let ref_records =
    S.Service.run_workload reference
      { S.Workload.budget = None; devices = None; seed = None;
        epochs = None; submissions = subs }
  in
  let http_svc = fresh_service () in
  with_front_door http_svc (fun _api _server port ->
      List.iter
        (fun s ->
          match
            S.Client.post_json ~host ~port
              ~json:(S.Workload.submission_to_json s) "/v1/queries"
          with
          | Ok r when r.H.status = 202 -> ()
          | Ok r ->
              failwith
                (Printf.sprintf "service_load: submission answered %d"
                   r.H.status)
          | Error m -> failwith ("service_load: submit failed: " ^ m))
        subs;
      let expected = List.length (S.Workload.expand
        { S.Workload.budget = None; devices = None; seed = None;
          epochs = None; submissions = subs }) in
      if
        not
          (wait_until 500 (fun () ->
               S.Service.pending http_svc = 0
               && List.length (S.Service.history http_svc) = expected))
      then failwith "service_load: HTTP submissions never drained");
  let equivalent =
    String.equal
      (S.Lifecycle.records_to_string ref_records)
      (S.Lifecycle.records_to_string (S.Service.history http_svc))
    && B.equal
         (S.Service.budget_left reference)
         (S.Service.budget_left http_svc)
  in
  if not equivalent then
    failwith
      "service_load: HTTP-path records diverge from the in-process run";
  Printf.printf
    "  equivalence: %d submissions over HTTP == in-process (byte-identical \
     records, equal budget)\n"
    (List.length ref_records);

  (* Gate 1b: multi-epoch equivalence. Recurring sessions driven through
     POST /v1/epoch must yield continual and lifecycle records
     byte-identical to an in-process engine run — at any --http-workers
     count. The HTTP edge may reorder socket I/O, never accounting. *)
  let module C = Arb_continual in
  let n_epochs = 4 in
  let rec_subs =
    [ ( "trend", true,
        { (mk_sub ~epsilon:0.5 "top1") with
          S.Workload.every = Some 1;
          window =
            Some
              { S.Workload.w_epochs = 3;
                w_budget = B.create ~epsilon:2.0 ~delta:1e-4;
                w_compose = None } } );
      ( "pulse", false,
        { (mk_sub ~epsilon:0.4 "median") with S.Workload.every = Some 2 } )
    ]
  in
  let continual_run drive =
    let svc = fresh_service () in
    let engine = C.Engine.create ~service:svc () in
    List.iter
      (fun (name, carry, s) ->
        match C.Engine.register engine ~name ~carry_state:carry s with
        | Ok _ -> ()
        | Error m -> failwith ("service_load: register: " ^ m))
      rec_subs;
    drive svc engine;
    let continual =
      String.concat "\n"
        (List.map
           (fun v -> C.Engine.records_string v.C.Engine.v_history)
           (C.Engine.sessions engine))
    in
    ( continual,
      S.Lifecycle.records_to_string ~timings:false (S.Service.history svc),
      S.Service.budget_left svc )
  in
  let ref_cont, ref_life, ref_budget =
    continual_run (fun _svc engine ->
        ignore (C.Engine.run_epochs ~workers:2 engine n_epochs))
  in
  let http_worker_counts = [ 1; 2; 4 ] in
  List.iter
    (fun http_workers ->
      let cont, life, budget =
        continual_run (fun svc engine ->
            let api =
              S.Api.create
                ~extra:(C.Routes.handler ~workers:2 engine)
                ~service:svc ()
            in
            let server =
              S.Server.start
                ~config:
                  { S.Server.default_config with workers = http_workers }
                ~handler:(S.Api.handler api) ()
            in
            Fun.protect
              ~finally:(fun () ->
                S.Server.stop server;
                S.Api.join api)
              (fun () ->
                let port = S.Server.port server in
                for _ = 1 to n_epochs do
                  match S.Client.post ~host ~port ~body:"" "/v1/epoch" with
                  | Ok r when r.H.status = 200 -> ()
                  | Ok r ->
                      failwith
                        (Printf.sprintf
                           "service_load: epoch tick answered %d" r.H.status)
                  | Error m -> failwith ("service_load: epoch tick: " ^ m)
                done))
      in
      if
        not
          (String.equal ref_cont cont
          && String.equal ref_life life
          && B.equal ref_budget budget)
      then
        failwith
          (Printf.sprintf
             "service_load: multi-epoch HTTP run diverges at http-workers=%d"
             http_workers))
    http_worker_counts;
  Printf.printf
    "  multi-epoch equivalence: %d epochs over POST /v1/epoch == in-process \
     engine (byte-identical continual + lifecycle records) at http-workers \
     {1,2,4}\n"
    n_epochs;

  (* Gate 2: fan-in. Hundreds of sockets connect at once, then all send;
     every one of them must get an answer, and the read-only storm must
     leave the budget accounting untouched. *)
  let conns = 520 in
  let fan_svc = fresh_service () in
  let budget_before = S.Service.budget_left fan_svc in
  let acc = ref 0 in
  let fan_in_s, answered =
    with_front_door fan_svc (fun _api _server port ->
        let opened =
          List.init conns (fun _ ->
              match S.Client.connect ~timeout_s:30.0 ~host ~port () with
              | Ok c -> Some c
              | Error _ -> None)
        in
        let live = List.filter_map Fun.id opened in
        if List.length live < conns then
          failwith
            (Printf.sprintf "service_load: only %d/%d connections opened"
               (List.length live) conns);
        let (), dt =
          time (fun () ->
              List.iter
                (fun c ->
                  match
                    S.Client.send_raw c
                      "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"
                  with
                  | Ok () -> ()
                  | Error m -> failwith ("service_load: send: " ^ m))
                live;
              acc :=
                List.fold_left
                  (fun n c ->
                    let n' =
                      match S.Client.read_response ~deadline_s:60.0 c with
                      | Ok r when r.H.status = 200 -> n + 1
                      | Ok _ | Error _ -> n
                    in
                    S.Client.close c;
                    n')
                  0 live)
        in
        (dt, !acc))
  in
  if answered < conns then
    failwith
      (Printf.sprintf "service_load: only %d/%d connections answered"
         answered conns);
  if not (B.equal budget_before (S.Service.budget_left fan_svc)) then
    failwith "service_load: read-only connection storm moved the budget";
  Printf.printf
    "  fan-in: %d concurrent connections all answered in %s (%.0f conns/s), \
     budget untouched\n"
    conns
    (U.seconds_to_string fan_in_s)
    (float_of_int conns /. Float.max 1e-9 fan_in_s);

  (* Keep-alive throughput/latency: a few client domains hammering
     persistent connections. *)
  let domains_n = 4 in
  let per_domain = if !smoke then 150 else 600 in
  let tp_svc = fresh_service () in
  let latencies, tp_wall =
    with_front_door tp_svc (fun _api _server port ->
        time (fun () ->
            let runner () =
              match S.Client.connect ~host ~port () with
              | Error m -> failwith ("service_load: connect: " ^ m)
              | Ok conn ->
                  let lats =
                    List.init per_domain (fun _ ->
                        let (resp, dt) =
                          time (fun () ->
                              S.Client.request conn ~meth:"GET"
                                ~target:"/healthz" ())
                        in
                        match resp with
                        | Ok r when r.H.status = 200 -> dt
                        | Ok r ->
                            failwith
                              (Printf.sprintf "service_load: status %d"
                                 r.H.status)
                        | Error m -> failwith ("service_load: " ^ m))
                  in
                  S.Client.close conn;
                  lats
            in
            let ds = List.init domains_n (fun _ -> Domain.spawn runner) in
            List.concat_map Domain.join ds))
  in
  (* Summarize latencies through the registry's own histogram machinery
     (the same estimator operators get from /v1/metrics) instead of
     ad-hoc sorted-list math. *)
  let lat_reg = O.Metrics.create () in
  List.iter
    (fun dt ->
      O.Metrics.observe_in lat_reg ~buckets:O.Metrics.latency_buckets
        "bench_http_latency_seconds" dt)
    latencies;
  let pct p =
    match
      O.Metrics.histogram_quantile lat_reg "bench_http_latency_seconds" p
    with
    | Some v -> v
    | None -> 0.0
  in
  let total_reqs = domains_n * per_domain in
  let rps = float_of_int total_reqs /. Float.max 1e-9 tp_wall in
  Printf.printf
    "  keep-alive: %d requests over %d connections: %.0f req/s, p50 %s, p95 \
     %s\n"
    total_reqs domains_n rps
    (U.seconds_to_string (pct 0.50))
    (U.seconds_to_string (pct 0.95));

  (* Gate 3: backpressure. A budget that affords exactly two eps-0.5
     queries, hammered by concurrent submitters. The prescreen is advisory
     (a drain racing the submitters can briefly release reservations, so a
     third 202 is possible); the authoritative invariants are that exactly
     two queries ever *execute*, everything else is refused — by 429 or by
     drain's canonical admission — and the final balance is exactly the
     admitted spend. *)
  let bp_svc =
    S.Service.create
      ~budget:(B.create ~epsilon:1.0 ~delta:0.01)
      ~devices:(if !smoke then 24 else 48)
      ~seed:11 ()
  in
  let accepted, refused =
    with_front_door bp_svc (fun _api _server port ->
        let submitters =
          List.init 8 (fun _ ->
              Domain.spawn (fun () ->
                  match
                    S.Client.post_json ~host ~port
                      ~json:
                        (S.Workload.submission_to_json
                           (mk_sub ~epsilon:0.5 "top1"))
                      "/v1/queries"
                  with
                  | Ok r -> r.H.status
                  | Error m -> failwith ("service_load: submit: " ^ m)))
        in
        let statuses = List.map Domain.join submitters in
        let count st = List.length (List.filter (( = ) st) statuses) in
        if count 202 + count 429 <> 8 then
          failwith "service_load: unexpected backpressure status mix";
        if
          not
            (wait_until 500 (fun () ->
                 S.Service.pending bp_svc = 0
                 && List.length (S.Service.history bp_svc) = count 202))
        then failwith "service_load: admitted submissions never drained";
        (count 202, count 429))
  in
  if accepted < 2 || refused < 1 then
    failwith
      (Printf.sprintf
         "service_load: reservation accounting admitted %d / refused %d \
          (expected 2-3 / >=5)"
         accepted refused);
  let executed, drain_refused =
    List.fold_left
      (fun (e, r) rec_ ->
        match rec_.S.Lifecycle.status with
        | S.Lifecycle.Executed _ -> (e + 1, r)
        | S.Lifecycle.Refused _ -> (e, r + 1)
        | _ -> (e, r))
      (0, 0)
      (S.Service.history bp_svc)
  in
  if executed <> 2 then
    failwith
      (Printf.sprintf "service_load: %d queries executed (budget affords 2)"
         executed);
  if drain_refused <> accepted - 2 then
    failwith "service_load: optimistically-admitted overflow not refused";
  let left = S.Service.budget_left bp_svc in
  if Float.abs left.B.epsilon > 1e-9 then
    failwith "service_load: drain spent a different amount than admitted";
  if not (S.Service.chain_verifies bp_svc) then
    failwith "service_load: chain broke under backpressure";
  Printf.printf
    "  backpressure: %d x 202 (%d executed, %d re-refused at drain), %d x \
     429; every refusal left the budget intact\n"
    accepted executed drain_refused refused;

  T.print
    ~header:[ "gate"; "result" ]
    [
      [ "HTTP == in-process records"; "byte-identical" ];
      [ Printf.sprintf "multi-epoch HTTP == engine (%d epochs)" n_epochs;
        "byte-identical x http-workers {1,2,4}" ];
      [ Printf.sprintf "%d-connection fan-in" conns;
        Printf.sprintf "%d answered" answered ];
      [ "keep-alive throughput"; Printf.sprintf "%.0f req/s" rps ];
      [ "backpressure 429s"; "budget intact" ];
    ];
  let json =
    J.Obj
      [
        ("schema", J.String "arb-bench-service/1");
        ("smoke", J.Bool !smoke);
        ("equivalence_ok", J.Bool true);
        ("equivalence_submissions", J.Int (List.length ref_records));
        ("continual_equivalence_ok", J.Bool true);
        ("continual_equivalence_epochs", J.Int n_epochs);
        ("fan_in_connections", J.Int conns);
        ("fan_in_answered", J.Int answered);
        ("fan_in_seconds", J.Float fan_in_s);
        ("keepalive_requests", J.Int total_reqs);
        ("keepalive_rps", J.Float rps);
        ("latency_p50_s", J.Float (pct 0.50));
        ("latency_p95_s", J.Float (pct 0.95));
        ( "backpressure",
          J.Obj
            [
              ("accepted", J.Int accepted);
              ("refused", J.Int refused);
              ("budget_intact", J.Bool true);
            ] );
      ]
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_service.json\n"

(* -------------------------------------------------------------------- *)
(* continual_epochs: the continual engine's plan-reuse economics and    *)
(* correctness gates — cold-plan-then-revalidate steady state, exactly  *)
(* one forced re-plan per injected drift, sliding-window refusal with a *)
(* byte-identical budget and refund-driven recovery, and multi-epoch    *)
(* byte-identity across worker counts. Writes BENCH_continual.json.     *)
(* -------------------------------------------------------------------- *)

let continual_epochs () =
  let module S = Arb_service in
  let module E = Arb_continual.Engine in
  let module B = Arb_dp.Budget in
  let module Obs = Arb_obs in
  let module J = Arb_util.Json in
  section "continual_epochs: recurring sessions over sliding-window budgets";
  let goal = P.Constraints.Min_part_exp_time in
  let devices = if !smoke then 24 else 48 in
  let mk_rec ?(every = 1) ?window ~epsilon query =
    { S.Workload.query; epsilon; categories = None; goal; repeat = 1;
      every = Some every; window; tolerance = None }
  in
  let fresh () =
    let reg = Obs.Metrics.create () in
    let svc =
      S.Service.create ~metrics:reg
        ~budget:(B.create ~epsilon:1.0e6 ~delta:0.5)
        ~devices ~seed:11 ()
    in
    (reg, svc, E.create ~service:svc ())
  in
  let register engine ?name sub =
    match E.register engine ?name ~carry_state:true sub with
    | Ok n -> n
    | Error m -> failwith ("continual_epochs: register: " ^ m)
  in
  (* Sum a counter's value over series matching [name] and [labels] in the
     registry's JSON snapshot — the same shape /metrics tooling consumes. *)
  let counter reg name labels =
    let rows = match Obs.Metrics.to_json reg with J.List r -> r | _ -> [] in
    List.fold_left
      (fun acc row ->
        let name_ok =
          try J.to_str (J.member "name" row) = name
          with J.Parse_error _ -> false
        in
        let labels_ok =
          List.for_all
            (fun (k, v) ->
              try J.to_str (J.member k (J.member "labels" row)) = v
              with J.Parse_error _ -> false)
            labels
        in
        if name_ok && labels_ok then
          acc +. (try J.to_float (J.member "value" row) with J.Parse_error _ -> 0.0)
        else acc)
      0.0 rows
  in
  let expect what got want =
    if got <> want then
      failwith
        (Printf.sprintf "continual_epochs: %s: got %d, want %d" what got want)
  in
  let view engine name =
    match E.session engine name with
    | Some v -> v
    | None -> failwith ("continual_epochs: no session view for " ^ name)
  in
  let planned_of r =
    match r.E.er_outcome with
    | E.Ran { planned; _ } -> Some planned
    | _ -> None
  in

  (* Gate 1: steady state — one cold plan at the first epoch, cheap
     re-validations (cache probes, no planner search) ever after. *)
  let steady_epochs = 6 in
  let reg_a, _svc_a, eng_a = fresh () in
  let a = register eng_a (mk_rec ~epsilon:0.5 "top1") in
  ignore (E.run_epochs eng_a steady_epochs);
  let va = view eng_a a in
  expect "steady cold plans" va.E.v_cold 1;
  expect "steady revalidations" va.E.v_revalidations (steady_epochs - 1);
  expect "steady replans" va.E.v_replans 0;
  expect "steady cold counter"
    (int_of_float (counter reg_a "arb_continual_cold_plans_total" []))
    1;
  expect "steady revalidation counter"
    (int_of_float (counter reg_a "arb_continual_revalidations_total" []))
    (steady_epochs - 1);
  expect "steady epoch counter"
    (int_of_float (counter reg_a "arb_continual_epochs_total" []))
    steady_epochs;
  Printf.printf
    "  steady state: %d epochs = 1 cold plan + %d revalidations (0 re-plans)\n"
    steady_epochs (steady_epochs - 1);

  (* Gate 2: drift injection — a population estimate past the 20%% relative
     threshold forces exactly one re-plan, as does a calibration change;
     the refreshed fingerprint makes the following epoch revalidate. *)
  let reg_b, _svc_b, eng_b = fresh () in
  let b = register eng_b (mk_rec ~epsilon:0.5 "top1") in
  ignore (E.run_epochs eng_b 2);
  E.observe_population eng_b (devices * 2);
  let e3 = E.tick eng_b in
  let e4 = E.tick eng_b in
  E.set_calibration eng_b "calib-v1";
  let e5 = E.tick eng_b in
  let e6 = E.tick eng_b in
  let replan_reason records =
    match List.filter_map planned_of records with
    | [ E.Replanned reason ] -> Some reason
    | _ -> None
  in
  (match replan_reason e3 with
  | Some r when String.length r >= 16 && String.sub r 0 16 = "population drift"
    -> ()
  | _ -> failwith "continual_epochs: population drift did not force a re-plan");
  (match replan_reason e5 with
  | Some r when String.length r >= 17 && String.sub r 0 17 = "calibration drift"
    -> ()
  | _ -> failwith "continual_epochs: calibration drift did not force a re-plan");
  (match (List.filter_map planned_of e4, List.filter_map planned_of e6) with
  | [ E.Revalidated ], [ E.Revalidated ] -> ()
  | _ -> failwith "continual_epochs: post-drift epochs should revalidate");
  let vb = view eng_b b in
  expect "drift replans" vb.E.v_replans 2;
  expect "population-drift counter"
    (int_of_float
       (counter reg_b "arb_continual_replans_total"
          [ ("reason", "population drift") ]))
    1;
  expect "calibration-drift counter"
    (int_of_float
       (counter reg_b "arb_continual_replans_total"
          [ ("reason", "calibration drift") ]))
    1;
  Printf.printf
    "  drift: population +100%% -> 1 re-plan; calibration change -> 1 \
     re-plan; interleaved epochs revalidated\n";

  (* Gate 3: window exhaustion and recovery. A window affording two 0.5-eps
     charges over a 3-epoch horizon refuses the third epoch with both the
     window and the service budget byte-identical, then the epoch-1 charge
     expires and epoch 4 runs on the refund. *)
  let reg_c, svc_c, eng_c = fresh () in
  let c =
    register eng_c
      (mk_rec ~epsilon:0.5
         ~window:
           {
             S.Workload.w_epochs = 3;
             w_budget = B.create ~epsilon:1.0 ~delta:1e-5;
             w_compose = Some 3;
           }
         "top1")
  in
  ignore (E.run_epochs eng_c 2);
  let vc2 = view eng_c c in
  let budget_bytes () = J.to_string (B.to_json (S.Service.budget_left svc_c)) in
  let window_spent_bytes v =
    match v.E.v_window with
    | Some w -> J.to_string (B.to_json (B.Window.spent w))
    | None -> failwith "continual_epochs: windowed session lost its window"
  in
  let budget_before = budget_bytes () and spent_before = window_spent_bytes vc2 in
  let e3c = E.tick eng_c in
  (match e3c with
  | [ { E.er_outcome = E.Window_refused _; _ } ] -> ()
  | _ -> failwith "continual_epochs: exhausted window did not refuse epoch 3");
  if budget_bytes () <> budget_before then
    failwith "continual_epochs: window refusal moved the service budget";
  if window_spent_bytes (view eng_c c) <> spent_before then
    failwith "continual_epochs: window refusal moved the window spend";
  let e4c = E.tick eng_c in
  let refund, cost =
    match (e4c, (view eng_c c).E.v_last_cost) with
    | [ { E.er_outcome = E.Ran { status = "executed"; _ }; er_refunded; _ } ],
      Some cost ->
        (er_refunded, cost)
    | _ -> failwith "continual_epochs: expired charge did not revive epoch 4"
  in
  if not (B.equal refund cost) then
    failwith "continual_epochs: expiry refund differs from the charged cost";
  expect "window refusals"
    (int_of_float (counter reg_c "arb_continual_window_refusals_total" []))
    1;
  Printf.printf
    "  window: refusal at epoch 3 (budget byte-identical), recovery at \
     epoch 4 on an exact %.3f-eps refund\n"
    refund.B.epsilon;

  (* Gate 4: determinism — the multi-epoch continual records and the
     underlying lifecycle records are byte-identical at any worker count. *)
  let det_epochs = 4 in
  let det_run workers =
    let _reg, svc, eng = fresh () in
    ignore
      (register eng ~name:"det-top1"
         (mk_rec ~epsilon:0.5
            ~window:
              {
                S.Workload.w_epochs = 4;
                w_budget = B.create ~epsilon:4.0 ~delta:1e-4;
                w_compose = Some 4;
              }
            "top1"));
    ignore (register eng ~name:"det-median" (mk_rec ~every:2 ~epsilon:0.4 "median"));
    let epochs = E.run_epochs ~workers eng det_epochs in
    ( String.concat "\n" (List.map E.records_string epochs),
      S.Lifecycle.records_to_string ~timings:false (S.Service.history svc) )
  in
  let workers_list = [ 1; 2; 3 ] in
  let runs = List.map det_run workers_list in
  (match runs with
  | (cont_ref, life_ref) :: rest ->
      List.iteri
        (fun i (cont, life) ->
          if cont <> cont_ref then
            failwith
              (Printf.sprintf
                 "continual_epochs: continual records diverge at workers=%d"
                 (List.nth workers_list (i + 1)));
          if life <> life_ref then
            failwith
              (Printf.sprintf
                 "continual_epochs: lifecycle records diverge at workers=%d"
                 (List.nth workers_list (i + 1))))
        rest
  | [] -> ());
  Printf.printf
    "  determinism: %d epochs x 2 sessions byte-identical at workers %s\n"
    det_epochs
    (String.concat "/" (List.map string_of_int workers_list));

  (* Gate 5: carried-state trajectory and reuse economics. *)
  let traj_epochs = if !smoke then 6 else 12 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let _reg_e, svc_e, eng_e = fresh () in
  let m = register eng_e (mk_rec ~epsilon:0.4 "median") in
  let estimates = ref [] in
  let (), wall =
    time (fun () ->
        for _ = 1 to traj_epochs do
          ignore (E.tick eng_e);
          estimates :=
            String.concat ";" (view eng_e m).E.v_estimate :: !estimates
        done)
  in
  let trajectory = List.rev !estimates in
  if List.length (List.sort_uniq compare trajectory) < 1 then
    failwith "continual_epochs: carried state produced no estimates";
  let cnt = S.Service.counters svc_e in
  let hit_rate =
    float_of_int cnt.S.Lifecycle.cache_hits
    /. float_of_int (max 1 cnt.S.Lifecycle.executed)
  in
  let epochs_per_s = float_of_int traj_epochs /. Float.max 1e-9 wall in
  Printf.printf
    "  carry: %d epochs in %s (%.1f epochs/s), cache hit rate %.2f, \
     estimate trajectory %s\n"
    traj_epochs (U.seconds_to_string wall) epochs_per_s hit_rate
    (String.concat " -> " trajectory);

  T.print
    ~header:[ "gate"; "result" ]
    [
      [ "steady state";
        Printf.sprintf "1 cold + %d revalidations" (steady_epochs - 1) ];
      [ "population drift"; "exactly 1 re-plan" ];
      [ "calibration drift"; "exactly 1 re-plan" ];
      [ "window exhaustion"; "refused; budget byte-identical" ];
      [ "window recovery"; "ran on exact expiry refund" ];
      [ "worker byte-identity";
        Printf.sprintf "%d epochs, workers 1/2/3" det_epochs ];
      [ "carry throughput"; Printf.sprintf "%.1f epochs/s" epochs_per_s ];
    ];
  let json =
    J.Obj
      [
        ("schema", J.String "arb-bench-continual/1");
        ("smoke", J.Bool !smoke);
        ( "steady",
          J.Obj
            [
              ("epochs", J.Int steady_epochs);
              ("cold_plans", J.Int va.E.v_cold);
              ("revalidations", J.Int va.E.v_revalidations);
              ("replans", J.Int va.E.v_replans);
            ] );
        ( "drift",
          J.Obj
            [
              ("population_replans", J.Int 1);
              ("calibration_replans", J.Int 1);
              ("total_replans", J.Int vb.E.v_replans);
            ] );
        ( "window",
          J.Obj
            [
              ("horizon_epochs", J.Int 3);
              ("refusal_epoch", J.Int 3);
              ("recovery_epoch", J.Int 4);
              ("refund_epsilon", J.Float refund.B.epsilon);
              ("budget_intact", J.Bool true);
            ] );
        ( "determinism",
          J.Obj
            [
              ("epochs", J.Int det_epochs);
              ( "workers",
                J.List (List.map (fun w -> J.Int w) workers_list) );
              ("byte_identical", J.Bool true);
            ] );
        ( "carry",
          J.Obj
            [
              ("epochs", J.Int traj_epochs);
              ("epochs_per_s", J.Float epochs_per_s);
              ("cache_hit_rate", J.Float hit_rate);
              ( "estimate_trajectory",
                J.List (List.map (fun e -> J.String e) trajectory) );
            ] );
      ]
  in
  let oc = open_out "BENCH_continual.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_continual.json\n"

(* --------------------------------------------------------------------- *)
(* calibration_loop: close the observability loop. Observed drains       *)
(* accumulate a snapshot store; fitting it must shrink the cost model's  *)
(* predicted-vs-measured error at least 2x; installing the fit re-prices *)
(* the plan cache and forces exactly one continual re-plan; and a fixed  *)
(* calibration keeps records byte-identical at any worker count. Writes  *)
(* BENCH_calibration.json.                                               *)
(* --------------------------------------------------------------------- *)

let calibration_loop () =
  let module S = Arb_service in
  let module E = Arb_continual.Engine in
  let module B = Arb_dp.Budget in
  let module Obs = Arb_obs in
  let module J = Arb_util.Json in
  let module C = P.Calibration in
  section
    "calibration_loop: self-calibrating cost model (BENCH_calibration.json)";
  let goal = P.Constraints.Min_part_exp_time in
  let devices = if !smoke then 24 else 48 in
  let queries =
    if !smoke then [ "top1"; "median" ]
    else [ "top1"; "median"; "hypotest"; "cms" ]
  in
  let mk_sub ~epsilon query =
    { S.Workload.query; epsilon; categories = None; goal; repeat = 1;
      every = None; window = None; tolerance = None }
  in
  let mk_rec ~epsilon query =
    { (mk_sub ~epsilon query) with S.Workload.every = Some 1 }
  in
  let counter reg name labels =
    let rows = match Obs.Metrics.to_json reg with J.List r -> r | _ -> [] in
    List.fold_left
      (fun acc row ->
        let name_ok =
          try J.to_str (J.member "name" row) = name
          with J.Parse_error _ -> false
        in
        let labels_ok =
          List.for_all
            (fun (k, v) ->
              try J.to_str (J.member k (J.member "labels" row)) = v
              with J.Parse_error _ -> false)
            labels
        in
        if name_ok && labels_ok then
          acc
          +. (try J.to_float (J.member "value" row)
              with J.Parse_error _ -> 0.0)
        else acc)
      0.0 rows
  in
  let snap_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "arb-bench-calibration-%d" (Unix.getpid ()))
  in
  let store = Filename.concat snap_dir "snapshots.jsonl" in
  if Sys.file_exists store then Sys.remove store;

  (* Phase 1: observe. One fresh service per query — each single drain
     appends one tagged snapshot, so the store holds one run per query. *)
  let run_workload ?calibration ?snapshots () =
    let reg = Obs.Metrics.create () in
    List.iter
      (fun name ->
        let svc =
          S.Service.create ~metrics:reg ?calibration
            ?snapshots:(Option.map (fun d -> (d, name)) snapshots)
            ~budget:(B.create ~epsilon:1.0e6 ~delta:0.5)
            ~devices ~seed:11 ()
        in
        ignore (S.Service.submit svc (mk_sub ~epsilon:0.5 name));
        ignore (S.Service.drain svc))
      queries;
    reg
  in
  let mean_err reg =
    let samples = C.samples_of_registry reg in
    if samples = [] then failwith "calibration_loop: no residual samples";
    List.fold_left
      (fun acc (_, p, m) -> acc +. (Float.abs (p -. m) /. Float.max (Float.abs m) 1e-12))
      0.0 samples
    /. float_of_int (List.length samples)
  in
  let reg_before = run_workload ~snapshots:snap_dir () in
  let err_observed = mean_err reg_before in

  (* Phase 2: fit, and gate the provenance — the post-fit mean relative
     error must be at most half the pre-fit error. *)
  let fitted =
    match C.fit_snapshots ~dir:snap_dir () with
    | Ok c -> c
    | Error m -> failwith ("calibration_loop: fit: " ^ m)
  in
  let prov = fitted.C.provenance in
  if prov.C.p_runs < List.length queries then
    failwith
      (Printf.sprintf "calibration_loop: fit used %d run(s), want %d"
         prov.C.p_runs (List.length queries));
  if prov.C.p_err_after > 0.5 *. prov.C.p_err_before then
    failwith
      (Printf.sprintf
         "calibration_loop: fit did not shrink the error 2x (%.4f -> %.4f)"
         prov.C.p_err_before prov.C.p_err_after);
  Printf.printf
    "  fit: %d run(s), mean relative error %.4f -> %.4f (%.0fx)\n"
    prov.C.p_runs prov.C.p_err_before prov.C.p_err_after
    (prov.C.p_err_before /. Float.max 1e-12 prov.C.p_err_after);

  (* Phase 3: verify by re-running the workload under the fitted model.
     The residual histogram's own quantile estimator summarizes both. *)
  let reg_after = run_workload ~calibration:fitted () in
  let err_fitted = mean_err reg_after in
  if err_fitted > 0.5 *. err_observed then
    failwith
      (Printf.sprintf
         "calibration_loop: re-run under the fit stayed at %.4f (was %.4f)"
         err_fitted err_observed);
  (* The residual histogram is labeled per section; summarize with the
     worst section's quantile. *)
  let pct reg q =
    List.fold_left
      (fun acc section ->
        match
          Obs.Metrics.histogram_quantile reg
            ~labels:[ ("section", section) ]
            "arb_cal_residual_rel" q
        with
        | Some v -> Float.max acc v
        | None -> acc)
      0.0
      (Obs.Metrics.label_values reg "arb_cal_residual_rel" ~label:"section")
  in
  Printf.printf
    "  verify: mean relative error %.4f -> %.4f; residual p50 %.3f -> \
     %.3f, p95 %.3f -> %.3f\n"
    err_observed err_fitted (pct reg_before 0.50) (pct reg_after 0.50)
    (pct reg_before 0.95) (pct reg_after 0.95);

  (* Phase 4: live install. A mild recalibration (one field group +20%)
     re-prices every cached plan in place; the aggressive fitted model
     (scales far past the 0.5 drift threshold) evicts them instead. *)
  let reg_svc = Obs.Metrics.create () in
  let svc =
    S.Service.create ~metrics:reg_svc
      ~budget:(B.create ~epsilon:1.0e6 ~delta:0.5)
      ~devices ~seed:11 ()
  in
  List.iter
    (fun name -> ignore (S.Service.submit svc (mk_sub ~epsilon:0.5 name)))
    queries;
  ignore (S.Service.drain svc);
  let cached = S.Cache.size (S.Service.cache svc) in
  if cached < List.length queries then
    failwith "calibration_loop: drains did not populate the plan cache";
  let d = P.Cost_model.default in
  let mild =
    C.make
      { d with P.Cost_model.kg_coeff_time = d.P.Cost_model.kg_coeff_time *. 1.2 }
  in
  let r_mild = S.Service.set_calibration svc mild in
  if (not r_mild.S.Service.changed) || r_mild.S.Service.repriced < 1 then
    failwith "calibration_loop: mild install did not re-price the cache";
  if r_mild.S.Service.invalidated > 0 then
    failwith "calibration_loop: mild install evicted entries below threshold";
  if int_of_float (counter reg_svc "arb_service_cache_repriced_total" []) < 1
  then failwith "calibration_loop: repriced counter did not move";
  let r_fit = S.Service.set_calibration svc fitted in
  if r_fit.S.Service.invalidated < 1 then
    failwith "calibration_loop: fitted install did not evict drifted entries";
  Printf.printf
    "  install: mild re-priced %d/%d in place; fitted evicted %d past the \
     drift threshold\n"
    r_mild.S.Service.repriced cached r_fit.S.Service.invalidated;

  (* Phase 5: continual sessions re-plan exactly once per calibration
     change, tagged "calibration drift". *)
  let reg_eng = Obs.Metrics.create () in
  let svc_eng =
    S.Service.create ~metrics:reg_eng
      ~budget:(B.create ~epsilon:1.0e6 ~delta:0.5)
      ~devices ~seed:11 ()
  in
  let eng = E.create ~service:svc_eng () in
  (match E.register eng ~carry_state:true (mk_rec ~epsilon:0.5 "top1") with
  | Ok _ -> ()
  | Error m -> failwith ("calibration_loop: register: " ^ m));
  ignore (E.run_epochs eng 2);
  E.set_calibration eng fitted.C.fingerprint;
  ignore (E.run_epochs eng 2);
  let replans =
    int_of_float
      (counter reg_eng "arb_continual_replans_total"
         [ ("reason", "calibration drift") ])
  in
  if replans <> 1 then
    failwith
      (Printf.sprintf
         "calibration_loop: calibration change forced %d re-plan(s), want \
          exactly 1"
         replans);
  Printf.printf "  continual: calibration change -> exactly 1 re-plan\n";

  (* Phase 6: determinism — under the one fixed fitted calibration, both
     lifecycle and continual records are byte-identical at any worker
     count. *)
  let det_epochs = 3 in
  let det_run workers =
    let svc =
      S.Service.create ~calibration:fitted
        ~budget:(B.create ~epsilon:1.0e6 ~delta:0.5)
        ~devices ~seed:11 ()
    in
    List.iter
      (fun name -> ignore (S.Service.submit svc (mk_sub ~epsilon:0.5 name)))
      queries;
    ignore (S.Service.drain ~workers svc);
    let eng = E.create ~service:svc () in
    E.set_calibration eng fitted.C.fingerprint;
    (match
       E.register eng ~name:"cal-det" ~carry_state:true
         (mk_rec ~epsilon:0.4 "median")
     with
    | Ok _ -> ()
    | Error m -> failwith ("calibration_loop: det register: " ^ m));
    let epochs = E.run_epochs ~workers eng det_epochs in
    ( S.Lifecycle.records_to_string ~timings:false (S.Service.history svc),
      String.concat "\n" (List.map E.records_string epochs) )
  in
  let workers_list = [ 1; 2; 3 ] in
  (match List.map det_run workers_list with
  | (life_ref, cont_ref) :: rest ->
      List.iteri
        (fun i (life, cont) ->
          if life <> life_ref then
            failwith
              (Printf.sprintf
                 "calibration_loop: lifecycle records diverge at workers=%d"
                 (List.nth workers_list (i + 1)));
          if cont <> cont_ref then
            failwith
              (Printf.sprintf
                 "calibration_loop: continual records diverge at workers=%d"
                 (List.nth workers_list (i + 1))))
        rest
  | [] -> ());
  Printf.printf
    "  determinism: fixed calibration byte-identical at workers %s\n"
    (String.concat "/" (List.map string_of_int workers_list));

  T.print
    ~header:[ "gate"; "result" ]
    [
      [ "fit 2x error shrink";
        Printf.sprintf "%.4f -> %.4f" prov.C.p_err_before prov.C.p_err_after ];
      [ "re-run under fit";
        Printf.sprintf "%.4f -> %.4f" err_observed err_fitted ];
      [ "cache re-price"; Printf.sprintf "%d in place" r_mild.S.Service.repriced ];
      [ "cache invalidate";
        Printf.sprintf "%d past threshold" r_fit.S.Service.invalidated ];
      [ "continual re-plan"; "exactly 1" ];
      [ "worker byte-identity";
        Printf.sprintf "workers %s"
          (String.concat "/" (List.map string_of_int workers_list)) ];
    ];
  let json =
    J.Obj
      [
        ("schema", J.String "arb-bench-calibration/1");
        ("smoke", J.Bool !smoke);
        ("queries", J.List (List.map (fun q -> J.String q) queries));
        ("devices", J.Int devices);
        ( "fit",
          J.Obj
            [
              ("runs", J.Int prov.C.p_runs);
              ("fingerprint", J.String fitted.C.fingerprint);
              ("err_before", J.Float prov.C.p_err_before);
              ("err_after", J.Float prov.C.p_err_after);
              ( "sections",
                J.List
                  (List.map
                     (fun s ->
                       J.Obj
                         [
                           ("section", J.String s.C.s_section);
                           ("samples", J.Int s.C.s_samples);
                           ("scale", J.Float s.C.s_scale);
                           ("err_before", J.Float s.C.s_err_before);
                           ("err_after", J.Float s.C.s_err_after);
                         ])
                     prov.C.p_sections) );
            ] );
        ( "verify",
          J.Obj
            [
              ("err_observed", J.Float err_observed);
              ("err_fitted", J.Float err_fitted);
              ("residual_p50_before", J.Float (pct reg_before 0.50));
              ("residual_p50_after", J.Float (pct reg_after 0.50));
              ("residual_p95_before", J.Float (pct reg_before 0.95));
              ("residual_p95_after", J.Float (pct reg_after 0.95));
            ] );
        ( "install",
          J.Obj
            [
              ("cached", J.Int cached);
              ("mild_repriced", J.Int r_mild.S.Service.repriced);
              ("mild_invalidated", J.Int r_mild.S.Service.invalidated);
              ("fitted_invalidated", J.Int r_fit.S.Service.invalidated);
            ] );
        ( "continual",
          J.Obj [ ("calibration_replans", J.Int replans) ] );
        ( "determinism",
          J.Obj
            [
              ("epochs", J.Int det_epochs);
              ("workers", J.List (List.map (fun w -> J.Int w) workers_list));
              ("byte_identical", J.Bool true);
            ] );
      ]
  in
  let oc = open_out "BENCH_calibration.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_calibration.json\n"

(* --------------------------------------------------------------------- *)
(* approx_crossover: approximate query processing. An analyst error       *)
(* tolerance admits device-sampled and sketched plan variants; the gates  *)
(* are the PR's acceptance criteria: the tolerance winner at paper scale  *)
(* is >=10x cheaper than the exact winner both priced and simulated-      *)
(* executed, spends strictly less budget (privacy amplification),         *)
(* measured error stays within the tolerance, the no-tolerance winner is  *)
(* byte-identical to the exact plan, and sampled execution reports are    *)
(* byte-identical at any worker count. Writes BENCH_approx.json.          *)
(* --------------------------------------------------------------------- *)

let approx_crossover () =
  let module R = Arb_runtime in
  let module J = Arb_util.Json in
  let module B = Arb_dp.Budget in
  section
    "approx_crossover: sampling + sketch plan variants (BENCH_approx.json)";
  let goal = P.Constraints.Min_part_exp_time in
  let plan_text p = Format.asprintf "%a" P.Plan.pp p in
  let plan_with ?tol ~q n =
    let limits =
      P.Constraints.with_error_tolerance P.Constraints.no_limits tol
    in
    let r = P.Search.plan ~limits ~goal ~query:q ~n () in
    match (r.P.Search.plan, r.P.Search.metrics) with
    | Some p, Some m -> (p, m)
    | _ -> failwith "approx_crossover: planner returned no plan"
  in
  let variant_of (p : P.Plan.t) =
    let sketch =
      List.fold_left
        (fun acc v ->
          match v.P.Plan.work with
          | P.Plan.W_he_sketch { width; depth; _ } ->
              Some (Printf.sprintf "cms %dx%d" depth width)
          | P.Plan.W_he_coarsen { groups; _ } ->
              Some (Printf.sprintf "coarsen %d" groups)
          | _ -> acc)
        None p.P.Plan.vignettes
    in
    String.concat "+"
      (List.filter_map Fun.id
         [
           Option.map (Printf.sprintf "sample %g") p.P.Plan.device_sample;
           sketch;
         ])
  in

  (* --- priced crossover: tolerance x N at the paper's category count --- *)
  let q_paper = Q.paper_instance "top1" in
  let tolerances = [ 0.01; 0.05; 0.1 ] in
  let sizes =
    if !smoke then [ 100_000; 1_000_000 ]
    else [ 1_000_000; 10_000_000; 100_000_000 ]
  in
  let n_gate = if !smoke then 1_000_000 else 100_000_000 in
  let cells =
    List.map
      (fun n ->
        let _, m_exact = plan_with ~q:q_paper n in
        if m_exact.Cm.est_error <> 0.0 then
          failwith "approx_crossover: exact winner carries est_error";
        let rows =
          List.map
            (fun tol ->
              let p, m = plan_with ~tol ~q:q_paper n in
              if m.Cm.est_error > tol then
                failwith
                  (Printf.sprintf
                     "approx_crossover: winner over tolerance (%.4f > %.4f)"
                     m.Cm.est_error tol);
              let speedup =
                P.Constraints.goal_value goal m_exact
                /. Float.max 1e-12 (P.Constraints.goal_value goal m)
              in
              (tol, p, m, speedup))
            tolerances
        in
        (n, m_exact, rows))
      sizes
  in
  T.print
    ~header:[ "N"; "tol"; "variant"; "est err"; "exact cost"; "approx"; "x" ]
    (List.concat_map
       (fun (n, m_exact, rows) ->
         List.map
           (fun (tol, p, m, speedup) ->
             [ U.si (float_of_int n); Printf.sprintf "%.2f" tol; variant_of p;
               Printf.sprintf "%.4f" m.Cm.est_error;
               U.seconds_to_string (P.Constraints.goal_value goal m_exact);
               U.seconds_to_string (P.Constraints.goal_value goal m);
               Printf.sprintf "%.0fx" speedup ])
           rows)
       cells);
  let priced_speedup =
    let _, _, rows = List.find (fun (n, _, _) -> n = n_gate) cells in
    let _, _, _, s = List.find (fun (t, _, _, _) -> t = 0.05) rows in
    s
  in
  if priced_speedup < 10.0 then
    failwith
      (Printf.sprintf
         "approx_crossover: priced speedup %.1fx < 10x at N=%d" priced_speedup
         n_gate);
  Printf.printf "  priced gate: tolerance 0.05 winner %.0fx cheaper at N=%s\n"
    priced_speedup
    (U.si (float_of_int n_gate));

  (* --- exactness gate: no tolerance (or one too tight for any variant)
     yields the byte-identical exact winner --- *)
  let p_none, m_none = plan_with ~q:q_paper n_gate in
  let p_tight, _ = plan_with ~tol:1e-12 ~q:q_paper n_gate in
  if plan_text p_none <> plan_text p_tight then
    failwith "approx_crossover: tight tolerance changed the exact winner";
  if p_none.P.Plan.device_sample <> None || m_none.Cm.est_error <> 0.0 then
    failwith "approx_crossover: no-tolerance winner is not exact";
  Printf.printf
    "  exactness gate: no tolerance == 1e-12 tolerance, byte-identical plan\n";

  (* --- simulated execution: the tolerance winner vs the exact winner over
     the same cohort-sharded population --- *)
  let qx = Q.test_instance ~epsilon:0.5 "top1" in
  let n_exec = min (paper_n ()) 100_000_000 in
  let exec_tol = 0.1 in
  let workers = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let cohort_size = if !smoke then 1_024 else 4_096 in
  let config =
    {
      R.Exec.default_config with
      R.Exec.seed = 3L;
      workers;
      budget = B.create ~epsilon:10.0 ~delta:1e-6;
      sharding = R.Exec.Sharded { cohort_size; sampled_cohorts = 1 };
    }
  in
  let src n = { R.Exec.n_devices = n; row = Q.device_source ~seed:7L qx } in
  let p_exact, _ = plan_with ~q:qx n_exec in
  let p_approx, m_approx = plan_with ~tol:exec_tol ~q:qx n_exec in
  if p_approx.P.Plan.device_sample = None then
    failwith "approx_crossover: tolerance winner does not sample devices";
  let rep_exact =
    execute config ~query:qx ~plan:p_exact ~src:(src n_exec)
  in
  let rep_approx =
    execute config ~query:qx ~plan:p_approx ~src:(src n_exec)
  in
  let upload t = t.R.Trace.device_upload_bytes in
  let exec_speedup =
    upload rep_exact.R.Exec.trace
    /. Float.max 1.0 (upload rep_approx.R.Exec.trace)
  in
  if exec_speedup < 10.0 then
    failwith
      (Printf.sprintf "approx_crossover: executed speedup %.1fx < 10x"
         exec_speedup);
  let spent r =
    10.0 -. r.R.Exec.certificate.R.Setup.budget_left.B.epsilon
  in
  if not (spent rep_approx < spent rep_exact) then
    failwith "approx_crossover: sampled plan did not spend strictly less budget";
  Printf.printf
    "  executed gate: %s -> %s upload bytes (%.0fx); budget %.4f vs %.4f eps\n"
    (U.si (upload rep_exact.R.Exec.trace))
    (U.si (upload rep_approx.R.Exec.trace))
    exec_speedup (spent rep_approx) (spent rep_exact);

  (* --- measured error vs the priced bound, at a scale where the true
     aggregate is computable --- *)
  let n_err = if !smoke then 50_000 else 200_000 in
  let err_cfg =
    {
      config with
      R.Exec.sharding =
        R.Exec.Sharded { cohort_size = 1_024; sampled_cohorts = 1 };
    }
  in
  let out_int r =
    let rec first = function
      | Arb_lang.Interp.V_int i :: _ -> i
      | _ :: rest -> first rest
      | [] -> failwith "approx_crossover: no integer output"
    in
    first r.R.Exec.outputs
  in
  let true_sums q n =
    let row = Q.device_source ~seed:7L q in
    let acc = Array.make q.Q.categories 0 in
    for i = 0 to n - 1 do
      Array.iteri (fun j v -> acc.(j) <- acc.(j) + v) (row i)
    done;
    acc
  in
  let measure name =
    let q = Q.test_instance ~epsilon:1.0 name in
    let p, m = plan_with ~tol:exec_tol ~q n_err in
    let rep =
      execute err_cfg ~query:q ~plan:p
        ~src:{ R.Exec.n_devices = n_err; row = Q.device_source ~seed:7L q }
    in
    let sums = true_sums q n_err in
    let idx = out_int rep in
    let err =
      match name with
      | "top1" ->
          let best = Array.fold_left max 0 sums in
          float_of_int (best - sums.(idx)) /. float_of_int (max 1 best)
      | _ ->
          (* median: rank (CDF mass) distance to the true median bin *)
          let total = Array.fold_left ( + ) 0 sums in
          let cdf i =
            let upto = ref 0 in
            for j = 0 to i do upto := !upto + sums.(j) done;
            float_of_int !upto /. float_of_int (max 1 total)
          in
          let rec true_median i =
            if i >= Array.length sums - 1 || cdf i >= 0.5 then i
            else true_median (i + 1)
          in
          Float.abs (cdf idx -. cdf (true_median 0))
    in
    if err > exec_tol then
      failwith
        (Printf.sprintf "approx_crossover: %s measured error %.4f > %.2f" name
           err exec_tol);
    (name, variant_of p, m.Cm.est_error, err)
  in
  let errors = List.map measure [ "top1"; "median" ] in
  List.iter
    (fun (name, variant, est, err) ->
      Printf.printf "  error gate: %s (%s) measured %.4f <= tol %.2f (est %.4f)\n"
        name variant err exec_tol est)
    errors;

  (* --- sampled execution byte-identity across worker counts --- *)
  let n_det = 50_000 in
  let p_det, _ = plan_with ~tol:exec_tol ~q:qx n_det in
  if p_det.P.Plan.device_sample = None then
    failwith "approx_crossover: determinism plan does not sample devices";
  let det_run w =
    let rep =
      execute
        { err_cfg with R.Exec.workers = w }
        ~query:qx ~plan:p_det ~src:(src n_det)
    in
    (rep.R.Exec.outputs, J.to_string (R.Trace.to_json rep.R.Exec.trace))
  in
  let det_workers = [ 1; 2; 3 ] in
  (match List.map det_run det_workers with
  | ref :: rest ->
      List.iteri
        (fun i r ->
          if r <> ref then
            failwith
              (Printf.sprintf
                 "approx_crossover: sampled run diverges at workers=%d"
                 (List.nth det_workers (i + 1))))
        rest
  | [] -> ());
  Printf.printf "  worker gate: sampled execution byte-identical at workers %s\n"
    (String.concat "/" (List.map string_of_int det_workers));

  let json =
    J.Obj
      [
        ("schema", J.String "arb-bench-approx/1");
        ("smoke", J.Bool !smoke);
        ("goal", J.String "part-exp-time");
        ( "priced",
          J.List
            (List.concat_map
               (fun (n, m_exact, rows) ->
                 List.map
                   (fun (tol, p, m, speedup) ->
                     J.Obj
                       [
                         ("devices", J.Int n);
                         ("tolerance", J.Float tol);
                         ("variant", J.String (variant_of p));
                         ("est_error", J.Float m.Cm.est_error);
                         ( "exact_cost",
                           J.Float (P.Constraints.goal_value goal m_exact) );
                         ( "approx_cost",
                           J.Float (P.Constraints.goal_value goal m) );
                         ("speedup", J.Float speedup);
                       ])
                   rows)
               cells) );
        ( "gates",
          J.Obj
            [
              ("gate_n", J.Int n_gate);
              ("priced_speedup", J.Float priced_speedup);
              ("exact_byte_identical", J.Bool true);
              ( "executed",
                J.Obj
                  [
                    ("devices", J.Int n_exec);
                    ("tolerance", J.Float exec_tol);
                    ("variant", J.String (variant_of p_approx));
                    ("est_error", J.Float m_approx.Cm.est_error);
                    ( "exact_upload_bytes",
                      J.Float (upload rep_exact.R.Exec.trace) );
                    ( "approx_upload_bytes",
                      J.Float (upload rep_approx.R.Exec.trace) );
                    ("speedup", J.Float exec_speedup);
                    ("exact_epsilon_spent", J.Float (spent rep_exact));
                    ("approx_epsilon_spent", J.Float (spent rep_approx));
                  ] );
              ( "measured_error",
                J.List
                  (List.map
                     (fun (name, variant, est, err) ->
                       J.Obj
                         [
                           ("query", J.String name);
                           ("variant", J.String variant);
                           ("devices", J.Int n_err);
                           ("est_error", J.Float est);
                           ("measured_error", J.Float err);
                           ("tolerance", J.Float exec_tol);
                         ])
                     errors) );
              ( "determinism",
                J.Obj
                  [
                    ("devices", J.Int n_det);
                    ( "workers",
                      J.List (List.map (fun w -> J.Int w) det_workers) );
                    ("byte_identical", J.Bool true);
                  ] );
            ] );
      ]
  in
  let oc = open_out "BENCH_approx.json" in
  output_string oc (J.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_approx.json\n"

let all =
  [ ("table1", table1); ("table2", table2); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("ablations", ablations); ("accuracy", accuracy);
    ("validation", validation); ("e2e", e2e); ("chaos", chaos);
    ("planner_scaling", planner_scaling);
    ("service_throughput", service_throughput); ("profiling", profiling);
    ("crypto_kernels", crypto_kernels); ("device_scaling", device_scaling);
    ("service_load", service_load); ("continual_epochs", continual_epochs);
    ("calibration_loop", calibration_loop);
    ("approx_crossover", approx_crossover) ]
