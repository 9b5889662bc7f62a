(* Benchmark entry point: regenerates the tables and figures of the paper's
   evaluation (§7).

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --only fig9  -- one experiment
     dune exec bench/main.exe -- --smoke      -- tiny sizes (the bench-smoke
                                                alias, run under dune runtest) *)

let () =
  let only = ref None in
  let rec parse = function
    | [] -> ()
    | "--only" :: v :: rest ->
        only := Some v;
        parse rest
    | "--smoke" :: rest ->
        Experiments.smoke := true;
        parse rest
    | _ :: rest -> parse rest
  in
  parse (Array.to_list Sys.argv);
  match !only with
  | Some name -> (
      match List.assoc_opt name Experiments.all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat ", " (List.map fst Experiments.all));
          exit 1)
  | None -> List.iter (fun (_, f) -> f ()) Experiments.all
