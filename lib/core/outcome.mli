(** The verdict of one run: agreement, validity, the decided and correct
    fractions, the honest parties' communication report and the per-phase
    breakdown, judged from a protocol's per-party outputs and the network
    it ran on. Protocols return their outputs; this is the only code that
    judges them. "Honest" is the network's mask after the run, so parties
    an adaptive condition upgraded mid-run count as corrupt. *)

type t = {
  agreed : bool;
      (** some honest party decided, and every honest decider output the
          same value *)
  valid : bool;
      (** without an expected value, [true]; with one, some honest party
          decided and every honest decider output it *)
  decided_fraction : float;  (** honest deciders / max 1 honest parties *)
  correct_fraction : float;
      (** honest parties that output the expected value / max 1 honest
          parties; 0 without an expected value *)
  report : Repro_net.Metrics.report;  (** {!report} *)
  breakdown : (string * int) list;
      (** sent bytes per tag group, all parties
          ({!Repro_net.Metrics.tag_breakdown}) *)
}

val of_outputs :
  Repro_net.Network.t -> outputs:'a option array -> expected:'a option -> t
(** [outputs.(p)] is party [p]'s output, [None] if it did not decide;
    values are compared structurally. [expected] is the value validity
    asks for, if any. Read the network after the run is over. *)

val report : Repro_net.Network.t -> Repro_net.Metrics.report
(** The communication report over the honest parties of the network. *)

val unanimous : Repro_net.Network.t -> 'a array -> 'a option
(** [Some b] if every honest party's input is [b] (at least one honest
    party), [None] otherwise: the [expected] of a BA run's validity. *)

val decide_bit : Repro_net.Network.t -> round:int -> int -> bool -> unit
(** Record party [p]'s decision on a bit as a [Decide] event (value ["1"]
    or ["0"]) when the network is observed; a no-op otherwise. *)
