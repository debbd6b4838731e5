(** Multivalued Byzantine agreement: Turpin–Coan reduction (2 rounds) on top
    of binary phase-king, t < m/3. Output is either some honest member's
    input (always equal across honest members) or [None]; if all honest
    inputs coincide the output is that value. *)

type t

val rounds : members:int list -> int
val create : members:int list -> me:int -> input:bytes -> t

val of_members :
  members:Members.t -> me:int -> peers:int array -> input:bytes -> t
(** {!create} over an already sorted membership and its [peers] array
    ([Members.peers members ~me]), both shared with the inner phase-king
    instance. *)

val machine : t -> Repro_net.Engine.machine

val m_send : t -> round:int -> Repro_net.Engine.out -> unit
val m_recv : t -> round:int -> Repro_net.Inbox.t -> unit

val output : t -> bytes option option
(** [None] before completion; [Some None] = agreed fallback;
    [Some (Some v)] = agreed value. *)
