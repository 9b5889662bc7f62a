type profile = { name : string; rtt : float; device_slowdown : float }

let lan = { name = "LAN"; rtt = 0.0005; device_slowdown = 1.0 }

(* Max pairwise RTT among Mumbai/New York/Paris/Sydney (Mumbai<->Sydney is
   the long pole at ~220 ms); honest-majority rounds wait for everyone. *)
let geo_distributed = { name = "geo"; rtt = 0.220; device_slowdown = 1.0 }

let with_slow_devices p ~factor =
  { p with name = p.name ^ "+slow"; device_slowdown = Float.max p.device_slowdown factor }

let mpc_wall_clock p ~rounds ~compute =
  (float_of_int rounds *. p.rtt) +. (compute *. p.device_slowdown)

(* --- message-level links (fault harness) --- *)

type link = {
  base : profile;
  drop : unit -> bool;
  delay : unit -> float;
}

let lossy p ~drop ~delay = { base = p; drop; delay }

type delivery = { attempts : int; latency : float }

let transmit link ~max_attempts ~backoff =
  let rec go attempt latency =
    if attempt >= max_attempts then None
    else
      let latency = latency +. (link.base.rtt /. 2.0) +. link.delay () in
      if not (link.drop ()) then Some { attempts = attempt + 1; latency }
      else
        match backoff attempt with
        | None -> None
        | Some wait -> go (attempt + 1) (latency +. wait)
  in
  go 0 0.0
