(** Trivial flooding boost baseline: every holder sends the value to all n
    parties; Theta(n) messages per party in one round. *)

type config = {
  n : int;
  corrupt : int list;
  holders : int list;
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

val run :
  ?sinks:Repro_obs.Event.sink list ->
  ?backend:Repro_net.Sched.backend ->
  ?condition:Repro_net.Sched.condition ->
  config ->
  result
(** [?sinks] subscribe to the run's network (auditor, flight recorder,
    transcript tap: see {!Repro_net.Network.create}); [?backend]
    configures its executor (default lock-step) and [?condition] is
    attached to it (see {!Repro_net.Network.set_condition}). *)
