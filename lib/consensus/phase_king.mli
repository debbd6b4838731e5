(** Binary Byzantine agreement (Berman–Garay–Perry phase king): t < m/3,
    (t+1) phases of 3 rounds, deterministic, no setup — the committee-level
    f_ba substrate. Run as an {!Repro_net.Engine.machine}. *)

type value = Zero | One | Bot

type t

val max_corrupt : int -> int
val phases : members:int list -> int
val rounds : members:int list -> int
(** Local rounds the machine needs (pass to {!Repro_net.Engine.run}). *)

val create : members:int list -> me:int -> input:bool -> t

val of_members :
  members:Members.t -> me:int -> peers:int array -> input:bool -> t
(** {!create} over an already sorted membership and its [peers]
    ([Members.peers members ~me]), the destination array of its
    multicasts; the instance shares both rather than copies them. *)

val machine : t -> Repro_net.Engine.machine

val m_send : t -> round:int -> Repro_net.Engine.out -> unit
(** Raw step functions, exposed so reductions (e.g. {!Multi_ba}) can embed a
    phase-king run at a round offset. *)

val m_recv : t -> round:int -> Repro_net.Inbox.t -> unit

val output : t -> bool option
(** Decision after [rounds] rounds; [None] before completion. *)
