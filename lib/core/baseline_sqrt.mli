(** King–Saia-style sqrt(n) boost baseline (the Õ(√n) rows of Table 1):
    group flooding + row exchange, Theta(sqrt n) messages per party,
    no setup. *)

type config = {
  holders : int list;  (** honest parties that start with the value *)
  value : bool;
}

val run : net:Repro_net.Network.t -> config -> bool option array
(** Runs on [net], the caller's network: its size is the run's n, its
    mask is the corrupt set, and its sinks, executor knobs and condition
    are whatever the caller gave it (see {!Runner.network}). Returns each
    party's output ([None]: no output, and every corrupt party);
    {!Outcome.of_outputs} judges them. *)
