(** Dolev–Strong authenticated broadcast over a Merkle-signature PKI.
    Baseline primitive; run as an {!Repro_net.Engine.machine}. *)

module Mss = Repro_crypto.Mss

type pki = {
  vks : Mss.verification_key array;
  sk : Mss.secret_key;
}

type t

val rounds : members:int list -> int

val create :
  members:int list -> me:int -> sender:int -> pki:pki -> input:bytes -> t
(** [input] is used only when [me = sender]. *)

val machine : t -> Repro_net.Engine.machine
val m_send : t -> round:int -> Repro_net.Engine.out -> unit
val m_recv : t -> round:int -> Repro_net.Inbox.t -> unit

val output : ?default:bytes -> t -> bytes option
(** [Some v] after the final round: the unique accepted value, or [default]
    when none/ambiguous. [None] before completion. *)
