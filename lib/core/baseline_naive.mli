(** Trivial flooding boost baseline: every holder sends the value to all n
    parties; Theta(n) messages per party in one round. *)

type config = {
  n : int;
  holders : int list;
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

val run : net:Repro_net.Network.t -> config -> result
(** Runs on [net], the caller's network: its mask is the corrupt set, and
    its sinks, executor knobs and condition are whatever the caller gave
    it (see {!Runner.network}). Raises [Invalid_argument] when
    [Network.n net] differs from the config's [n]. *)
