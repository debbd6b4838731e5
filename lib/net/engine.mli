(** Drives many round-based protocol state machines concurrently over one
    {!Network}, multiplexing by "tag/instance-id". Protocol modules stay pure
    state machines; a party participating in several committee instances
    registers one machine per instance. *)

type out = {
  send : int -> bytes -> unit;  (** [send dst payload]: one message. *)
  send_many : int array -> bytes -> unit;
      (** [send_many dsts payload]: one payload to every party of [dsts],
          in array order, as one {!Network.send_many}. *)
}
(** A machine's emitter: sends from its party under its instance tag. The
    engine builds one per (party, instance) and hands it to every
    [m_send] of the run. *)

type machine = {
  m_send : round:int -> out -> unit;
      (** Emit the messages of the given local round through [out], in the
          order they are to be sent. *)
  m_recv : round:int -> Inbox.t -> unit;
      (** The messages delivered to this instance for the given local
          round, in delivery order; called exactly once per round, possibly
          with an empty view. The view is valid only during the call. *)
}

val collect : (out -> unit) -> (int * bytes) list
(** [collect (m_send ~round)]: the [(dst, payload)] messages a step emits,
    in send order (a [send_many] listed destination by destination) — the
    list model for tests and drivers that run machines by hand. *)

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
    lists are ignored.

    Each round a party's instances receive, then send, in one fixed order:
    the iteration order of a [Hashtbl] keyed by instance id. A delivery
    belongs to the instance whose full tag ("tag/instance") it carries and
    is dropped otherwise; each instance sees its deliveries in the party's
    delivery order. *)
