type query = {
  name : string;
  action : string;
  source : string;
  program : Arb_lang.Ast.program;
  categories : int;
  uses_em : bool;
  error_tolerance : float option;
}

let check_tolerance = function
  | Some tol when not (tol > 0.0 && tol <= 1.0) ->
      Error (Printf.sprintf "must be in (0, 1], got %g" tol)
  | _ -> Ok ()

let names =
  [ "top1"; "topK"; "gap"; "auction"; "hypotest"; "secrecy"; "median"; "cms";
    "bayes"; "kmedians" ]

(* Query sources. Each is written against the predefined db/N/C variables;
   C is the row width, fixed by the row shape below. *)

let top1_src = {|
aggr = sum(db);
result = em(aggr);
output(result);
|}

let topk_src = {|
aggr = sum(db);
for j = 1 to 5 do
  w = em(aggr);
  output(w);
  aggr[w] = 0 - N;
endfor
|}

let gap_src = {|
aggr = sum(db);
r = emGap(aggr);
output(r[0]);
output(r[1]);
|}

let auction_src = {|
counts = sum(db);
above = suffixSums(counts);
for p = 0 to C - 1 do
  rev[p] = (p + 1) * above[p];
endfor
price = em(rev);
output(price);
|}

let hypotest_src = {|
aggr = sum(db);
stat = laplace(aggr[0]);
threshold = N / 2;
if stat > threshold then
  output(1);
else
  output(0);
endif
|}

let secrecy_src = {|
samp = sampleUniform(db, 0.25);
aggr = sum(samp);
noisy = laplace(aggr[0]);
output(noisy);
|}

let median_src = {|
hist = sum(db);
pre = prefixSums(hist);
target = N / 2;
for i = 0 to C - 1 do
  d = pre[i] - target;
  scores[i] = 0 - abs(d);
endfor
choice = em(scores);
output(choice);
|}

let cms_src = {|
sketch = sum(db);
noisy = laplace(sketch);
for i = 0 to C - 1 do
  output(noisy[i]);
endfor
|}

let bayes_src = {|
counts = sum(db);
noisy = laplace(counts);
total = 0.0;
for i = 0 to C - 1 do
  total = total + noisy[i];
endfor
for i = 0 to C - 1 do
  p = noisy[i] / total;
  output(p);
endfor
|}

let kmedians_src = {|
s = sum(db);
for j = 0 to C / 2 - 1 do
  cnt = s[2 * j] + 1;
  tot = s[2 * j + 1];
  ncnt = laplace(cnt);
  ntot = laplace(tot);
  center[j] = ntot / ncnt;
endfor
for j = 0 to C / 2 - 1 do
  output(center[j]);
endfor
|}

type spec = {
  action_ : string;
  source_ : string;
  src : string;
  row_of_c : int -> Arb_lang.Ast.row_shape;
  (* how the [c] parameter maps to the row width *)
  width_of_c : int -> int;
  paper_c : int;
  test_c : int;
  em : bool;
}

let one_hot c = Arb_lang.Ast.One_hot c

let specs : (string * spec) list =
  [
    ( "top1",
      { action_ = "Most frequent item"; source_ = "[31]"; src = top1_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 1 lsl 15; test_c = 16;
        em = true } );
    ( "topK",
      { action_ = "Top-K selection"; source_ = "[29]"; src = topk_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 1 lsl 15; test_c = 16;
        em = true } );
    ( "gap",
      { action_ = "Exp. mechanism with gap"; source_ = "[28]"; src = gap_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 1 lsl 15; test_c = 16;
        em = true } );
    ( "auction",
      { action_ = "Unbounded auction"; source_ = "[45]"; src = auction_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 1 lsl 15; test_c = 16;
        em = true } );
    ( "hypotest",
      { action_ = "Hypothesis testing"; source_ = "[20]"; src = hypotest_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 1; test_c = 1;
        em = false } );
    ( "secrecy",
      { action_ = "Secrecy of sample"; source_ = "[9]"; src = secrecy_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 1 lsl 15; test_c = 16;
        em = false } );
    ( "median",
      { action_ = "Median"; source_ = "[14]"; src = median_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 1 lsl 15; test_c = 16;
        em = true } );
    ( "cms",
      { action_ = "Count-mean sketch"; source_ = "[53]"; src = cms_src;
        row_of_c = (fun c -> Arb_lang.Ast.Bounded { width = c; lo = 0; hi = 1 });
        width_of_c = Fun.id; paper_c = 2048; test_c = 16; em = false } );
    ( "bayes",
      { action_ = "Naive Bayes"; source_ = "[54]"; src = bayes_src;
        row_of_c = one_hot; width_of_c = Fun.id; paper_c = 115; test_c = 16;
        em = false } );
    ( "kmedians",
      { action_ = "K-Medians"; source_ = "[54]"; src = kmedians_src;
        row_of_c = (fun c -> Arb_lang.Ast.Bounded { width = 2 * c; lo = 0; hi = 255 });
        width_of_c = (fun c -> 2 * c); paper_c = 10; test_c = 4; em = false } );
  ]

let spec_of name =
  match List.assoc_opt name specs with
  | Some s -> s
  | None -> raise Not_found

let make ?(epsilon = 0.1) ?error_tolerance ~name ~c () =
  let s = spec_of name in
  let program =
    {
      Arb_lang.Ast.name;
      body = Arb_lang.Parser.parse_stmt s.src;
      row = s.row_of_c c;
      epsilon;
    }
  in
  { name; action = s.action_; source = s.source_; program;
    categories = s.width_of_c c; uses_em = s.em; error_tolerance }

let paper_instance ?epsilon name =
  let s = spec_of name in
  make ?epsilon ~name ~c:s.paper_c ()

let test_instance ?epsilon name =
  let s = spec_of name in
  make ?epsilon ~name ~c:s.test_c ()

(* Zipf-ish category sampling: probability of category k proportional to
   1/(k+1)^skew, with categories shuffled by a fixed permutation so the
   winner is not always index 0. *)
let random_database rng query ~n ?(skew = 1.1) () =
  match query.program.Arb_lang.Ast.row with
  | Arb_lang.Ast.One_hot width ->
      let weights =
        Array.init width (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) skew)
      in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let sample_category () =
        let r = Arb_util.Rng.float rng total in
        let rec go k acc =
          if k = width - 1 then k
          else
            let acc = acc +. weights.(k) in
            if r < acc then k else go (k + 1) acc
        in
        go 0 0.0
      in
      Array.init n (fun _ ->
          let row = Array.make width 0 in
          row.(sample_category ()) <- 1;
          row)
  | Arb_lang.Ast.Bounded { width; lo; hi } ->
      Array.init n (fun _ ->
          Array.init width (fun j ->
              if query.name = "kmedians" then
                (* Alternating (indicator, value) pairs: pick one cluster. *)
                j |> fun _ -> 0
              else Arb_util.Rng.int_in rng lo hi))
      |> fun db ->
      if query.name = "kmedians" then begin
        let clusters = width / 2 in
        Array.iteri
          (fun i row ->
            ignore i;
            let c = Arb_util.Rng.int rng clusters in
            let v = Arb_util.Rng.int_in rng lo hi in
            row.(2 * c) <- 1;
            row.((2 * c) + 1) <- v)
          db;
        db
      end
      else db

(* Indexed variant of the same synthesis: row [i] is a pure function of
   (seed, i) via Rng.derive, so any subset of a billion-device population
   can be materialized independently and in any order — which is what the
   sharded runtime needs to stream cohorts without building the database.
   The draw distributions match [random_database]; the draw *sequence*
   necessarily differs (one derived stream per device instead of one
   shared stream), so the two constructions give different but equally
   plausible databases for the same seed. *)
let device_source ~seed ?(skew = 1.1) query =
  match query.program.Arb_lang.Ast.row with
  | Arb_lang.Ast.One_hot width ->
      let weights =
        Array.init width (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) skew)
      in
      let total = Array.fold_left ( +. ) 0.0 weights in
      fun i ->
        let rng = Arb_util.Rng.derive seed i in
        let r = Arb_util.Rng.float rng total in
        let rec go k acc =
          if k = width - 1 then k
          else
            let acc = acc +. weights.(k) in
            if r < acc then k else go (k + 1) acc
        in
        let row = Array.make width 0 in
        row.(go 0 0.0) <- 1;
        row
  | Arb_lang.Ast.Bounded { width; lo; hi } ->
      if query.name = "kmedians" then
        let clusters = width / 2 in
        fun i ->
          let rng = Arb_util.Rng.derive seed i in
          let row = Array.make width 0 in
          let c = Arb_util.Rng.int rng clusters in
          let v = Arb_util.Rng.int_in rng lo hi in
          row.(2 * c) <- 1;
          row.((2 * c) + 1) <- v;
          row
      else
        fun i ->
          let rng = Arb_util.Rng.derive seed i in
          Array.init width (fun _ -> Arb_util.Rng.int_in rng lo hi)
