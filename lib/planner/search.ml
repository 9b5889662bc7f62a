let log_src = Logs.Src.create "arb.planner" ~doc:"Arboretum query planner"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  prefixes : int;
  full_plans : int;
  pruned : int;
  elapsed : float;
  aborted : bool;
}

type result = {
  plan : Plan.t option;
  metrics : Cost_model.metrics option;
  alternatives : (Plan.t * Cost_model.metrics) list;
  stats : stats;
}

(* Memoized committee sizing, shared by every search. The service plans
   on several domains at once, so all access goes through a mutex (the
   solve itself runs outside the lock; racing duplicates are idempotent). *)
let size_cache : (int, int) Hashtbl.t = Hashtbl.create 64
let size_cache_lock = Mutex.create ()

let rec committee_size_for c =
  match
    Mutex.protect size_cache_lock (fun () -> Hashtbl.find_opt size_cache c)
  with
  | Some m -> m
  | None ->
      (* Safety at fixed m is antitone in the committee count, so the c = 1
         solution is a sound scan start for every larger c. *)
      let start = if c <= 1 then 1 else committee_size_for 1 in
      (* The §7 setting: f = 3% Byzantine devices, g = 0.15, and p1 from a
         1e-8 failure bound over 1000 rounds. *)
      let m =
        Arb_dp.Committee.min_size_from ~start ~f:0.03 ~g:0.15
          ~committees:(max 1 c)
          ~p1:(Arb_dp.Committee.p1_of_round ~p:1e-8 ~rounds:1000)
      in
      Mutex.protect size_cache_lock (fun () -> Hashtbl.replace size_cache c m);
      m

let is_mpc_vignette (v : Plan.vignette) =
  match v.Plan.work with
  | Plan.W_keygen _ | W_zk_setup _ | W_mpc_decrypt _ | W_mpc_decrypt_noise _
  | W_mpc_affine _
  | W_mpc_scan _ | W_mpc_nonlinear _ | W_mpc_noise _ | W_mpc_argmax _
  | W_mpc_exp _ | W_mpc_sample_index _ | W_mpc_output _ ->
      true
  | W_encrypt_input _ | W_verify_inputs _ | W_he_sum _ | W_he_affine _
  | W_he_rotate_sum _ | W_he_sketch _ | W_he_coarsen _ | W_post _ ->
      false

let mpc_committee_count items =
  List.fold_left
    (fun acc (it : Expand.item) ->
      match (it.Expand.vignette.Plan.location, is_mpc_vignette it.Expand.vignette) with
      | Plan.Committees k, true -> acc + k
      | _ -> acc)
    0 items

(* The best feasible plan found so far, carried from task to task. *)
type incumbent = {
  mutable best_value : float;
  mutable best : (Plan.t * Cost_model.metrics) option;
}

(* One searcher per (crypto, sampled-bins, sampling-rate) task; only the
   incumbent is shared, by the tasks that follow. *)
type searcher = {
  cm : Cost_model.t;
  crypto : Plan.crypto;
  bins : int option;
  phi : float option;  (* device-sampling rate for this task; None = exact *)
  limits : Constraints.limits;
  tolerance : float option;  (* the query's error tolerance; None = exact only *)
  goal : Constraints.goal;
  heuristics : bool;
  incremental : bool;
  max_prefixes : int;
  n : int;
  cols : int;
  m_lb : int;
      (* committee size at c = 1: a lower bound on the size any completed
         plan will be priced with, making prefix bounds admissible *)
  sizes : (int, int) Hashtbl.t;
      (* committee count -> size: this task's own memo in front of the
         shared, mutex-guarded [committee_size_for] *)
  inc : incumbent;
  mutable top : (float * Plan.t * Cost_model.metrics) list; (* ranked, capped *)
  mutable prefixes : int;
  mutable full_plans : int;
  mutable pruned : int;
  mutable aborted : bool;
  (* --- observability (all per-task, summed over the tasks) --- *)
  tr : Arb_obs.Tracer.t option;  (* per-task child tracer *)
  obs_on : bool;  (* any tracer or registry attached: count depth/memo work *)
  timed : bool;  (* wall-clock readings allowed (false in deterministic mode) *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable price_calls : int;
  mutable score_seconds : float;
  mutable depth_nodes : int array;  (* grown on demand *)
  mutable depth_seconds : float array;
}

exception Abort

let grow_to a len zero =
  if Array.length a >= len then a
  else begin
    let b = Array.make (max len ((2 * Array.length a) + 1)) zero in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let bump_depth_nodes s depth =
  s.depth_nodes <- grow_to s.depth_nodes (depth + 1) 0;
  s.depth_nodes.(depth) <- s.depth_nodes.(depth) + 1

let add_depth_seconds s depth dt =
  s.depth_seconds <- grow_to s.depth_seconds (depth + 1) 0.0;
  s.depth_seconds.(depth) <- s.depth_seconds.(depth) +. dt

let domain_label = function
  | Expand.D_enc -> "enc"
  | Expand.D_shares k -> "shares:" ^ string_of_int k

(* The value a memo holds for committee size m. One search meets only a
   handful of sizes, so a memo is an association list. *)
let rec at_m (m : int) = function
  | (m', v) :: rest -> if m' = m then v else at_m m rest
  | [] -> raise Not_found

(* An item comes from this task's own expansions, and [cm], [n] and
   [cols] are fixed for the task, so a price is a pure function of (m,
   item): the price the item keeps for m is bit-identical to pricing
   afresh. The reference mode prices afresh: it is the oracle the
   differential tests hold the memoized search against. *)
let price s ~m (it : Expand.item) =
  if not s.incremental then
    Cost_model.price s.cm ~n_devices:s.n ~m ~cols:s.cols it.Expand.vignette
  else
    match at_m m it.Expand.priced with
    | c -> c
    | exception Not_found ->
        let c = Cost_model.price s.cm ~n_devices:s.n ~m ~cols:s.cols it.Expand.vignette in
        it.Expand.priced <- (m, c) :: it.Expand.priced;
        c

(* [price_calls] counts the items asked for, memoized ones included. *)
let price_all s ~m items =
  s.price_calls <- s.price_calls + List.length items;
  List.map (price s ~m) items

let size_of s c =
  match Hashtbl.find_opt s.sizes c with
  | Some m -> m
  | None ->
      let m = committee_size_for (max 1 c) in
      Hashtbl.add s.sizes c m;
      m

(* A value memoized per committee size. The reference mode keeps none: it
   computes the value afresh at every use. *)
type 'a per_m = { mutable at : (int * 'a) list }

let per_m () = { at = [] }

let memo_m s t m compute =
  if not s.incremental then compute ()
  else
    match at_m m t.at with
    | v -> v
    | exception Not_found ->
        let v = compute () in
        t.at <- (m, v) :: t.at;
        v

(* A choice as the choice memo keeps it: its delta partial at m_lb (which
   orders siblings and feeds the incumbent prune), the MPC committees it
   adds, and its contributions per committee size, priced on first use. *)
type priced_choice = {
  choice : Expand.choice;
  delta : Cost_model.partial;
  adds : int;
  contributions : Cost_model.contribution list per_m;
}

let contributions_at s memo items m = memo_m s memo m (fun () -> price_all s ~m items)

(* A node of the DFS: a plan prefix, the root holding the task's prefix
   items. [lb], its partial at m_lb, is its parent's combined with its
   choice's delta. Its canonical partial at committee size m is the fold
   [score_full] scores: the path's contributions, folded in vignette
   order, priced at m. *)
type node = {
  up : node option;
  committees : int;  (* MPC committees on the path *)
  items : Expand.item list;  (* this step's *)
  own : Cost_model.contribution list per_m;  (* [items] priced per m *)
  lb : Cost_model.partial;
  folds : Cost_model.partial per_m;
}

let rec fold_at s node m =
  memo_m s node.folds m (fun () ->
      let base =
        match node.up with
        | None -> Cost_model.empty_partial
        | Some up -> fold_at s up m
      in
      Cost_model.add_contributions base (contributions_at s node.own node.items m))

(* The vignettes of a node's path in plan order, the root's first. *)
let rec path_vignettes node acc =
  let acc =
    List.fold_right (fun (it : Expand.item) acc -> it.Expand.vignette :: acc) node.items acc
  in
  match node.up with None -> acc | Some up -> path_vignettes up acc

let top_cap = 5

(* Bounded ranked insert; equal goal values keep their insertion order, so
   the list depends only on the deterministic exploration order. *)
let rec insert_top cap ((v, _, _) as entry) tops =
  if cap = 0 then []
  else
    match tops with
    | [] -> [ entry ]
    | ((v', _, _) as e) :: rest ->
        if v < v' then entry :: insert_top (cap - 1) e rest
        else e :: insert_top (cap - 1) entry rest

(* Rank a plan that is not in the list yet. Deduplicating on plan identity
   keeps a distinct plan that ties an existing goal value. *)
let add_top ((_, p, _) as entry) tops =
  if List.exists (fun (_, p', _) -> p' = p) tops then tops
  else insert_top top_cap entry tops

(* Score a complete plan: its leaf's fold, priced at the true committee
   size m, only known now that the plan's committee count is. *)
let score_full s ~em_variant node query_name =
  s.full_plans <- s.full_plans + 1;
  let t_start = if s.timed then Unix.gettimeofday () else 0.0 in
  let c = node.committees in
  let m = size_of s c in
  let metrics = Cost_model.finalize ?sample_phi:s.phi ~n_devices:s.n (fold_at s node m) in
  if s.timed then
    s.score_seconds <- s.score_seconds +. (Unix.gettimeofday () -. t_start);
  if Constraints.satisfies s.limits ~tolerance:s.tolerance metrics then begin
    let v = Constraints.goal_value s.goal metrics in
    let plan =
      {
        Plan.query = query_name;
        crypto = s.crypto;
        vignettes = path_vignettes node [];
        sample_bins = s.bins;
        device_sample = s.phi;
        committee_count = c;
        committee_size = m;
        em_variant;
      }
    in
    (* Keep a small ranked sample of the feasible design space: the best
       plan plus runners-up. *)
    s.top <- add_top (v, plan, metrics) s.top;
    if v < s.inc.best_value then begin
      s.inc.best_value <- v;
      s.inc.best <- Some (plan, metrics)
    end
  end

let search_one s ~(ctx : Expand.ctx) ~prefix ~ops ~query_name =
  let partial_lb items = Cost_model.partial_of_contributions (price_all s ~m:s.m_lb items) in
  (* The choices at a DFS node — and their delta partials at m_lb — depend
     only on (abstract domain, operator position), not on the prefix that
     led there, so the DFS revisits the same few expansions thousands of
     times. Memoize them per task; this, not the per-node delta fold, is
     where incremental pricing earns its keep. The reference mode expands
     and prices them afresh at every visit. *)
  let choice_memo : (Expand.domain * int, priced_choice list) Hashtbl.t =
    Hashtbl.create 32
  in
  let priced_choices domain depth op =
    match
      if s.incremental then Hashtbl.find_opt choice_memo (domain, depth) else None
    with
    | Some cs ->
        s.memo_hits <- s.memo_hits + 1;
        cs
    | None ->
        s.memo_misses <- s.memo_misses + 1;
        let t_start = if s.timed then Unix.gettimeofday () else 0.0 in
        let compute () =
          let choices = Expand.choices ctx domain op in
          let price () =
            List.map
              (fun (c : Expand.choice) ->
                {
                  choice = c;
                  delta = partial_lb c.Expand.items;
                  adds = mpc_committee_count c.Expand.items;
                  contributions = per_m ();
                })
              choices
          in
          match s.tr with
          | None -> price ()
          | Some tr -> Arb_obs.Tracer.with_span tr ~cat:"planner" "price" price
        in
        let cs =
          match s.tr with
          | None -> compute ()
          | Some tr ->
              Arb_obs.Tracer.with_span tr ~cat:"planner"
                ~args:
                  [
                    ("domain", Arb_util.Json.String (domain_label domain));
                    ("depth", Arb_util.Json.Int depth);
                  ]
                "expand" compute
        in
        if s.timed then add_depth_seconds s depth (Unix.gettimeofday () -. t_start);
        Hashtbl.replace choice_memo (domain, depth) cs;
        cs
  in
  (* [forced.(d)]: the items every completion holds from the operators
     after position d, in op order, with their contributions per committee
     size. *)
  let forced =
    let rec after = function [] -> [] | _ :: rest -> List.concat rest :: after rest in
    Array.of_list
      (List.map
         (fun items -> (items, per_m ()))
         (after (List.map (Expand.forced_items ctx) ops)))
  in
  (* The exact cut-offs (DESIGN.md §7.4), which the reference mode does
     not make. A child's canonical partial at the committee size m its
     path already commits to, with the forced suffix folded in, is at most
     — in floats, with no epsilon — the score of any completion. A bound
     that breaks a limit, or that cannot beat the last entry of a full
     ranked list, rules out the whole subtree: its plans would be
     infeasible, or dropped by [insert_top] and unable to become the
     incumbent. The child's fold comes from its parent's and its choice's
     memos, so a cut child gets no node; a kept one gets its fold memo
     seeded with that fold. [None]: the child is cut. *)
  let kept_folds depth up pc committees =
    if not (s.incremental && s.heuristics) then Some (per_m ())
    else
      let m = size_of s committees in
      let fold =
        Cost_model.add_contributions (fold_at s up m)
          (contributions_at s pc.contributions pc.choice.Expand.items m)
      in
      let items, memo = forced.(depth) in
      let bound =
        Cost_model.finalize ?sample_phi:s.phi ~n_devices:s.n
          (Cost_model.add_contributions fold (contributions_at s memo items m))
      in
      let cut =
        Constraints.lower_bound_infeasible s.limits ~tolerance:s.tolerance bound
        ||
        match List.nth_opt s.top (top_cap - 1) with
        | Some (last, _, _) -> Constraints.goal_value s.goal bound >= last
        | None -> false
      in
      if cut then None else Some { at = [ (m, fold) ] }
  in
  (* DFS over operators, one node per prefix. *)
  let rec go domain depth node em_variant = function
    | [] -> score_full s ~em_variant node query_name
    | op :: rest ->
        (* A child's m_lb partial is its parent's combined with its
           choice's delta. *)
        let children =
          List.map
            (fun pc ->
              let lb = Cost_model.combine_partial node.lb pc.delta in
              let bound = Cost_model.finalize ?sample_phi:s.phi ~n_devices:s.n lb in
              (pc, lb, bound, Constraints.goal_value s.goal bound))
            (priced_choices domain depth op)
        in
        (* Explore cheap choices first so branch-and-bound gets a good
           incumbent early. *)
        let children =
          if s.heuristics then
            List.sort (fun (_, _, _, v1) (_, _, _, v2) -> Float.compare v1 v2) children
          else children
        in
        List.iter
          (fun (pc, lb, bound, value) ->
            let c = pc.choice in
            s.prefixes <- s.prefixes + 1;
            if s.obs_on then bump_depth_nodes s depth;
            if s.prefixes > s.max_prefixes then begin
              s.aborted <- true;
              raise Abort
            end;
            let fhe_ok = (not c.Expand.needs_fhe) || s.crypto = Plan.Fhe in
            if not fhe_ok then s.pruned <- s.pruned + 1
            else if
              (* [bound] is a true lower bound for every completion (m_lb
                 pricing), so both prunes are admissible. The incumbent
                 comparison is strict: a branch whose bound ties the
                 incumbent may still hold a plan tying the optimum, and
                 exploring it keeps the first such plan the winner. *)
              s.heuristics
              && (Constraints.lower_bound_infeasible s.limits
                    ~tolerance:s.tolerance bound
                 || value > s.inc.best_value)
            then s.pruned <- s.pruned + 1
            else
              let committees = node.committees + pc.adds in
              match kept_folds depth node pc committees with
              | None -> s.pruned <- s.pruned + 1
              | Some folds ->
                  let em_variant =
                    match c.Expand.em_variant with `None -> em_variant | v -> v
                  in
                  go c.Expand.domain_after (depth + 1)
                    {
                      up = Some node;
                      committees;
                      items = c.Expand.items;
                      own = pc.contributions;
                      lb;
                      folds;
                    }
                    em_variant rest)
          children
  in
  let root =
    {
      up = None;
      committees = mpc_committee_count prefix;
      items = prefix;
      own = per_m ();
      lb = partial_lb prefix;
      folds = per_m ();
    }
  in
  try go Expand.D_enc 0 root `None ops with Abort -> ()

let plan ?(cm = Cost_model.default) ?(limits = Constraints.evaluation_limits)
    ?(goal = Constraints.Min_part_exp_time) ?(heuristics = true)
    ?(max_prefixes = 5_000_000) ?(incremental = true)
    ?tracer ?metrics ~(query : Arb_queries.Registry.query) ~n () =
  let deterministic =
    match tracer with Some tr -> Arb_obs.Tracer.deterministic tr | None -> false
  in
  (* Wall-clock readings are skipped in deterministic mode so trace AND
     metrics bytes are pure functions of the search structure. *)
  let timed = not deterministic in
  let obs_on = Option.is_some tracer || Option.is_some metrics in
  let t0 = Unix.gettimeofday () in
  let ops = Extract.ops query.Arb_queries.Registry.program ~n in
  let cols = query.Arb_queries.Registry.categories in
  let m_lb = committee_size_for 1 in
  let tolerance = query.Arb_queries.Registry.error_tolerance in
  let inc = { best_value = infinity; best = None } in
  (* Canonical task order: crypto profile major, sampled-bins middle,
     device-sampling rate minor (exact first). The tasks run in this order
     and the incumbent only moves on a strictly better plan, so an earlier
     task keeps ties. Without a tolerance only the exact rate is
     enumerated, so the task list — and therefore the winner — is
     byte-identical to the exact-only planner. *)
  let phis =
    match tolerance with
    | None -> [ None ]
    | Some _ -> [ None; Some 0.25; Some 0.1; Some 0.01; Some 0.001 ]
  in
  let tasks =
    List.concat_map
      (fun crypto ->
        List.concat_map
          (fun bins -> List.map (fun phi -> (crypto, bins, phi)) phis)
          (Expand.sampled_bins_options ops))
      [ Plan.Ahe; Plan.Fhe ]
  in
  let run_task idx (crypto, bins, phi) =
    (* Each task writes to its own child tracer (its own tid). *)
    let tr =
      Option.map
        (fun t ->
          Arb_obs.Tracer.child t ~tid:((Arb_obs.Tracer.tid t * 100) + idx + 1))
        tracer
    in
    let s =
      {
        cm;
        crypto;
        bins;
        phi;
        limits;
        tolerance;
        goal;
        heuristics;
        incremental;
        max_prefixes;
        n;
        cols;
        m_lb;
        sizes = Hashtbl.create 16;
        inc;
        top = [];
        prefixes = 0;
        full_plans = 0;
        pruned = 0;
        aborted = false;
        tr;
        obs_on;
        timed;
        memo_hits = 0;
        memo_misses = 0;
        price_calls = 0;
        score_seconds = 0.0;
        depth_nodes = [||];
        depth_seconds = [||];
      }
    in
    (* Sampled tasks size every-device vignettes (verification, sum trees)
       for the expected sampled population; pricing still normalizes by the
       full population, which is also where committees are drawn from. *)
    let n_eff =
      match phi with
      | None -> n
      | Some phi -> max 1 (int_of_float (Float.round (phi *. float_of_int n)))
    in
    let ctx =
      {
        Expand.n_devices = n_eff;
        cols;
        crypto;
        bins;
        cm;
        redundant_boundaries = not heuristics;
        tolerance;
      }
    in
    let prefix = Expand.prefix ctx ~sampled_bins:bins in
    let search () =
      search_one s ~ctx ~prefix ~ops
        ~query_name:query.Arb_queries.Registry.name
    in
    (match tr with
    | None -> search ()
    | Some tr ->
        Arb_obs.Tracer.with_span tr ~cat:"planner"
          ~args:
            [
              ("crypto", Arb_util.Json.String (Plan.crypto_name crypto));
              ( "bins",
                match bins with
                | Some b -> Arb_util.Json.Int b
                | None -> Arb_util.Json.Null );
              ( "sample",
                match phi with
                | Some p -> Arb_util.Json.Float p
                | None -> Arb_util.Json.Null );
            ]
          "search"
          (fun () ->
            search ();
            Arb_obs.Tracer.add_args tr
              [
                ("prefixes", Arb_util.Json.Int s.prefixes);
                ("full_plans", Arb_util.Json.Int s.full_plans);
                ("pruned", Arb_util.Json.Int s.pruned);
                ("memo_hits", Arb_util.Json.Int s.memo_hits);
                ("memo_misses", Arb_util.Json.Int s.memo_misses);
                ("price_calls", Arb_util.Json.Int s.price_calls);
                ("aborted", Arb_util.Json.Bool s.aborted);
              ]));
    s
  in
  let run_all () =
    (* List.mapi runs the tasks in canonical order; their child tracers are
       grafted in the same order. *)
    let searchers = List.mapi run_task tasks in
    Option.iter
      (fun tr ->
        List.iter (fun s -> Option.iter (Arb_obs.Tracer.graft tr) s.tr) searchers)
      tracer;
    searchers
  in
  let searchers =
    match tracer with
    | None -> run_all ()
    | Some tr ->
        Arb_obs.Tracer.with_span tr ~cat:"planner"
          ~args:
            [
              ("query", Arb_util.Json.String query.Arb_queries.Registry.name);
              ("n", Arb_util.Json.Int n);
              ("tasks", Arb_util.Json.Int (List.length tasks));
            ]
          "plan" run_all
  in
  (* Each task's ranked list, folded in task order: an earlier task keeps
     ties. *)
  let top =
    List.fold_left
      (fun top s -> List.fold_left (Fun.flip add_top) top s.top)
      [] searchers
  in
  let sum_i f = List.fold_left (fun acc s -> acc + f s) 0 searchers in
  let prefixes = sum_i (fun s -> s.prefixes) in
  let full_plans = sum_i (fun s -> s.full_plans) in
  let pruned = sum_i (fun s -> s.pruned) in
  let aborted = List.exists (fun s -> s.aborted) searchers in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match metrics with
  | None -> ()
  | Some reg ->
      let merge_depth zero add proj =
        List.fold_left
          (fun acc s ->
            let a = proj s in
            let acc = grow_to acc (Array.length a) zero in
            Array.iteri (fun i v -> acc.(i) <- add acc.(i) v) a;
            acc)
          [||] searchers
      in
      let c name help v = Arb_obs.Metrics.add reg ~help name (float_of_int v) in
      c "arb_planner_nodes_total" "Search nodes (prefixes) expanded" prefixes;
      c "arb_planner_pruned_total" "Branch-and-bound prunes" pruned;
      c "arb_planner_plans_total" "Complete plans scored" full_plans;
      c "arb_planner_memo_hits_total" "Choice-memo hits"
        (sum_i (fun s -> s.memo_hits));
      c "arb_planner_memo_misses_total" "Choice-memo misses"
        (sum_i (fun s -> s.memo_misses));
      c "arb_planner_price_calls_total" "Cost-model pricing calls"
        (sum_i (fun s -> s.price_calls));
      c "arb_planner_searches_total" "Planner invocations" 1;
      c "arb_planner_aborted_total" "Searches aborted at the prefix cap"
        (if aborted then 1 else 0);
      Array.iteri
        (fun d v ->
          if v > 0 then
            Arb_obs.Metrics.add reg
              ~labels:[ ("depth", string_of_int d) ]
              ~help:"Nodes expanded per search depth"
              "arb_planner_depth_nodes_total" (float_of_int v))
        (merge_depth 0 ( + ) (fun s -> s.depth_nodes));
      if timed then begin
        Array.iteri
          (fun d sec ->
            if sec > 0.0 then
              Arb_obs.Metrics.add reg
                ~labels:[ ("depth", string_of_int d) ]
                ~help:"Expand+price seconds per depth (choice-memo misses)"
                "arb_planner_depth_seconds_total" sec)
          (merge_depth 0.0 ( +. ) (fun s -> s.depth_seconds));
        Arb_obs.Metrics.add reg ~help:"Full-plan scoring seconds"
          "arb_planner_score_seconds_total"
          (List.fold_left (fun acc s -> acc +. s.score_seconds) 0.0 searchers);
        Arb_obs.Metrics.observe_in reg
          ~help:"End-to-end planning latency (seconds)"
          ~buckets:Arb_obs.Metrics.latency_buckets "arb_planner_plan_seconds"
          elapsed
      end);
  Log.info (fun m ->
      m "planned %s (N=%d): %d prefixes, %d candidates, %d pruned in %.3fs%s"
        query.Arb_queries.Registry.name n prefixes full_plans pruned elapsed
        (if aborted then " [aborted at cap]" else ""));
  (match inc.best with
  | Some (p, _) ->
      Log.debug (fun m ->
          m "winner: %s, %d committees of %d, em=%s"
            (Plan.crypto_name p.Plan.crypto)
            p.Plan.committee_count p.Plan.committee_size
            (match p.Plan.em_variant with
            | `Gumbel -> "gumbel"
            | `Exponentiate -> "exponentiate"
            | `Sketch -> "sketch"
            | `None -> "-"))
  | None -> Log.debug (fun m -> m "no feasible plan"));
  {
    plan = Option.map fst inc.best;
    metrics = Option.map snd inc.best;
    alternatives = List.map (fun (_, p, m) -> (p, m)) top;
    stats = { prefixes; full_plans; pruned; elapsed; aborted };
  }
