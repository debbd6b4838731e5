(** King–Saia-style sqrt(n) boost baseline (the Õ(√n) rows of Table 1):
    group flooding + row exchange, Theta(sqrt n) messages per party,
    no setup. *)

type config = {
  n : int;
  holders : int list;  (** honest parties that start with the value *)
  value : bool;
  seed : int;
}

type result = {
  outputs : bool option array;
  agreed : bool;
  decided_fraction : float;  (** honest parties that produced an output *)
  correct_fraction : float;
  report : Repro_net.Metrics.report;
  breakdown : (string * int) list;  (** sent bytes per tag group *)
}

val group_size : int -> int

val run : net:Repro_net.Network.t -> config -> result
(** Runs on [net], the caller's network: its mask is the corrupt set, and
    its sinks, executor knobs and condition are whatever the caller gave
    it (see {!Runner.network}). Raises [Invalid_argument] when
    [Network.n net] differs from the config's [n]. *)
