(** King–Saia-style sqrt(n) boost baseline (the Õ(√n) rows of Table 1):
    group flooding + row exchange, Theta(sqrt n) messages per party,
    no setup. *)

type config = {
  n : int;
  corrupt : int list;
  holders : int list;  (** honest parties that start with the value *)
  value : bool;
  seed : int;
}

type result = {
  outputs : bool option array;
  agreed : bool;
  correct_fraction : float;
  report : Repro_net.Metrics.report;
  breakdown : (string * int) list;  (** sent bytes per tag group *)
}

val group_size : int -> int

val run :
  ?sinks:Repro_obs.Event.sink list ->
  ?backend:Repro_net.Sched.backend ->
  config ->
  result
(** [?sinks] subscribe to the run's network (auditor, flight recorder,
    transcript tap: see {!Repro_net.Network.create}); [?backend] selects
    the scheduler backend (default sparse). *)
