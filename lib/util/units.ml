let mb = 1.0e6
let tb = 1.0e12
let minute = 60.0
let hour = 3600.0

let scaled value steps =
  let rec go v = function
    | [] -> Printf.sprintf "%.1f ?" v
    | [ (_, suffix) ] -> Printf.sprintf "%.1f %s" v suffix
    | (limit, suffix) :: rest ->
        if Float.abs v < limit then Printf.sprintf "%.1f %s" v suffix
        else go (v /. limit) rest
  in
  go value steps

let bytes_to_string b =
  scaled b
    [ (1000.0, "B"); (1000.0, "kB"); (1000.0, "MB"); (1000.0, "GB");
      (1000.0, "TB"); (0.0, "PB") ]

let seconds_to_string s =
  if Float.abs s < 1.0e-3 then Printf.sprintf "%.1f us" (s *. 1.0e6)
  else if Float.abs s < 1.0 then Printf.sprintf "%.1f ms" (s *. 1.0e3)
  else if Float.abs s < minute then Printf.sprintf "%.1f s" s
  else if Float.abs s < hour then Printf.sprintf "%.1f min" (s /. minute)
  else if Float.abs s < 24.0 *. hour then Printf.sprintf "%.1f h" (s /. hour)
  else Printf.sprintf "%.1f d" (s /. (24.0 *. hour))

let core_hours s = s /. hour
