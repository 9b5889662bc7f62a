type query_result = {
  report : Exec.report;
  query_index : int;
  block_used : string;
}

type t = {
  config : Exec.config;
  max_rounds : int;
  devices : int;
  mutable budget : Arb_dp.Budget.t;
  mutable block : string;
  mutable index : int;
  mutable chain : query_result list; (* newest first *)
}

let create ?(config = Exec.default_config) ?(max_rounds = 1000) ~budget ~devices
    () =
  {
    config;
    max_rounds;
    devices;
    budget;
    block = "genesis";
    index = 0;
    chain = [];
  }

let budget_left t = t.budget
let queries_run t = t.index

let run t ~db ~plan query =
  if t.index >= t.max_rounds then
    Error
      (Printf.sprintf
         "round limit R = %d reached; the per-round failure bound p1 no longer covers further queries"
         t.max_rounds)
  else if Array.length db <> t.devices then
    Error
      (Printf.sprintf
         "database has %d rows but the session's device population is %d"
         (Array.length db) t.devices)
  else
    let block_used = t.block in
    (* Each query gets a fresh seed derived from the chained block so the
       whole session is reproducible yet unpredictable before B_i. *)
    let seed =
      Arb_crypto.Sha256.seed_of (block_used ^ string_of_int (t.index + 1))
    in
    let config =
      { t.config with Exec.seed; budget = t.budget; block = block_used;
        query_id = t.index + 1 }
    in
    (* Exec.run_source fails closed: certification, the keygen
       committee's budget check, any fault the runtime could not absorb
       and any certificate/audit failure come back as a typed error.
       The session commits the budget and advances the chain only on
       Ok, so a failed query leaves everything intact. *)
    match Exec.run_source config ~query ~plan ~src:(Exec.source_of_db db) with
    | Ok report ->
        t.budget <- report.Exec.certificate.Setup.budget_left;
        t.block <- report.Exec.certificate.Setup.next_block;
        t.index <- t.index + 1;
        let qr = { report; query_index = t.index; block_used } in
        t.chain <- qr :: t.chain;
        Ok qr
    | Error f ->
        Error
          (Format.asprintf "%a (session unchanged, budget intact)"
             Exec.pp_failure f)

let chain_verifies t =
  let rec check prev_next = function
    | [] -> true
    | qr :: older ->
        Setup.verify_certificate qr.report.Exec.certificate
        && (match prev_next with
           | None -> true
           | Some block -> String.equal qr.report.Exec.certificate.Setup.next_block block)
        && check (Some qr.block_used) older
  in
  (* chain is newest-first: each entry's block_used must equal the next
     certificate's minted block (walking toward the genesis). *)
  check None t.chain
