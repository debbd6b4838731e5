(** Committee agreement on a payload: one candidate broadcast + multivalued
    BA on digests. The agreed payload is always some honest member's
    candidate (or [None]); all honest members adopt the same result. *)

type t

val rounds : members:int list -> int

val create :
  members:int list ->
  me:int ->
  candidate:bytes ->
  ?valid:(bytes -> bool) ->
  unit ->
  t

val of_members :
  members:Members.t ->
  me:int ->
  candidate:bytes ->
  ?valid:(bytes -> bool) ->
  unit ->
  t
(** {!create} over an already sorted membership, shared by every member's
    instance of one committee (and within each with its {!Multi_ba} and
    {!Phase_king}). *)

val machine : t -> Repro_net.Engine.machine
val m_send : t -> round:int -> Repro_net.Engine.out -> unit
val m_recv : t -> round:int -> Repro_net.Inbox.t -> unit

val output : t -> bytes option option
(** [None] until decided; then [Some (Some payload)] or [Some None]. *)
