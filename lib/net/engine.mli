(** Drives many round-based protocol state machines concurrently over one
    {!Network}, multiplexing by "tag/instance-id". Protocol modules stay pure
    state machines; a party participating in several committee instances
    registers one machine per instance. *)

type machine = {
  m_send : round:int -> (int * bytes) list;
      (** Messages (dst, payload) emitted in the given local round. *)
  m_recv : round:int -> (int * bytes) list -> unit;
      (** Messages (src, payload) delivered for the given local round;
          called exactly once per round, possibly with []. *)
}

val run :
  Network.t ->
  ?adversary:Network.adversary ->
  tag:string ->
  rounds:int ->
  machines:(int -> (string * machine) list) ->
  unit ->
  unit
(** Run [rounds] local rounds ([rounds + 1] network rounds, the last one
    delivery-only). [machines p] lists party p's instances; corrupt parties'
    lists are ignored. *)
