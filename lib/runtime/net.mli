(** Network model for the simulated deployment (§7.5), plus message-level
    links with loss and delay for the fault-injection harness.

    MPC vignettes are round-trip bound: their wall-clock time is
    [rounds * rtt + compute]. Profiles capture the settings of the paper's
    heterogeneity experiments: a LAN cluster, and committee members spread
    across Mumbai / New York / Paris / Sydney.

    A {!link} layers per-message failure on top of a profile: each
    transmission attempt may be dropped or delayed, and {!transmit}
    retries with the caller's backoff schedule until delivery or the
    attempt budget runs out — the behavior the runtime uses for device
    uploads under injected faults. *)

type profile = {
  name : string;
  rtt : float;  (** effective per-round latency between committee members, s *)
  device_slowdown : float;  (** compute multiplier for slow members; the MPC
      proceeds at the pace of its slowest device *)
}

val lan : profile
val geo_distributed : profile
(** Mumbai/New York/Paris/Sydney mix: the max pairwise RTT governs rounds. *)

val with_slow_devices : profile -> factor:float -> profile
(** E.g. Raspberry-Pi-class members joining a server committee. *)

val mpc_wall_clock : profile -> rounds:int -> compute:float -> float

(** {2 Message-level links} *)

type link = {
  base : profile;
  drop : unit -> bool;  (** does this transmission attempt get lost? *)
  delay : unit -> float;  (** extra one-way latency for this attempt *)
}

val lossy : profile -> drop:(unit -> bool) -> delay:(unit -> float) -> link
(** A link whose failures are decided by the caller (normally a
    {!Fault.t} injector, keeping faulted runs replayable). *)

type delivery = { attempts : int; latency : float }
(** [attempts] >= 1 is how many sends it took; [latency] the total elapsed
    time including retry backoff. *)

val transmit :
  link -> max_attempts:int -> backoff:(int -> float option) -> delivery option
(** Send one message. Each attempt pays [rtt /. 2 +. delay ()]; a dropped
    attempt additionally waits [backoff i] (0-based) before the next one.
    [None] when every attempt was dropped or the backoff budget ran out
    ([backoff] returned [None]) — the message is lost. *)
