(* The JSON reader and writer live in [Repro_obs.Json], below this library,
   so the observability sinks can build their reports as values too. *)
include Repro_obs.Json
