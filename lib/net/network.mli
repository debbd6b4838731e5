(** Point-to-point network with authenticated channels and a rushing,
    static adversary, advanced round by round by {!run_active} on one
    executor. Messages sent in round r arrive at the start of round r+1;
    honest-to-honest traffic cannot be dropped. The within-round delivery
    {e order} and the virtual clock follow the seeded per-edge latency
    model of the {!Sched.async_cfg} given at {!create} (see {!Sched}).
    With all knobs at zero and no condition attached that is lock-step
    delivery in send order, and the executor takes a shortcut that draws,
    routes and sorts nothing. *)

type t

type handler = round:int -> inbox:Wire.msg list -> unit
(** One party's step function for one round; it sends by calling {!send}. *)

type adversary = {
  adv_name : string;
  adv_step : t -> round:int -> honest_staged:Wire.msg list -> unit;
      (** Invoked after the honest parties of a round have acted. Rushing:
          [honest_staged] is everything they just sent. The adversary sends
          on behalf of corrupt parties via {!send}. *)
}

val create :
  ?backend:Sched.backend -> ?sinks:Repro_obs.Event.sink list -> n:int ->
  corrupt:int list -> unit -> t
(** [backend] (default {!Sched.default_async}: lock-step delivery in send
    order) configures the executor. [sinks] (default none) subscribe to this network's observation
    stream, each called in list order with every event: a [Corrupt] per
    statically corrupt party right away, then per accepted send (in send
    order, with the staging round), per delivery, per round close, per
    phase mark, committee, decision and upgrade. Subscriptions are
    per-instance, so concurrent networks on the domain pool never observe
    each other; with no sink no event is built. *)

val virtual_time : t -> int
(** The executor's virtual clock; the per-round delivery barrier advances
    it. [Send] events carry it unless the network is on the lock-step
    shortcut (zero knobs, no condition), where it equals the round. *)

val async_stats : t -> Sched.stats
(** Delivery statistics of the executor: latency maxima, pre-GST
    retransmissions, and the sampled (send, deliver) log the
    partial-synchrony checks run against. On the lock-step shortcut the
    sends are counted and the maximum latency is 1, but no pair is
    sampled: every one would be (t, t + 1). *)

val set_condition : t -> Sched.condition -> unit
(** Attach a network condition (partition / churn / delay / adaptive
    corruption — see {!Sched.condition}): it routes every subsequent
    delivery, may hold parties dark, and may upgrade the corrupt set after
    observing honest traffic. It ends the lock-step shortcut: from the
    current round on, every send is drawn and routed and carries its
    virtual time. *)

val n : t -> int
val metrics : t -> Metrics.t

(** {2 Observation} *)

val observed : t -> bool
(** Whether any sink subscribed: protocol layers test it before building
    an event that costs something to compute. *)

val emit : t -> Repro_obs.Event.t -> unit
(** Hand one event to every sink (protocol layers emit [Committee] and
    [Decide] this way; guard with {!observed} to build nothing for an
    unobserved network). *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f] inside a named protocol phase: sinks see
    [Phase_enter] at the current round, then [Phase_exit] once [f]
    returns or raises. Without sinks it is just [f ()]. *)

val round : t -> int
val is_corrupt : t -> int -> bool
val is_honest : t -> int -> bool
val everyone : t -> int list
(** [0; 1; ...; n - 1]: the [extra] of a protocol in which every party
    acts every round. *)

val honest_parties : t -> int list
val corrupt_parties : t -> int list

val send : t -> src:int -> dst:int -> tag:string -> bytes -> unit
(** Stage one message for delivery next round. Raises [Invalid_argument] if
    [src]/[dst] is out of range, or — channels being authenticated — if the
    call happens during the adversary's turn of a round with an honest
    [src]: the adversary can never impersonate an honest party. *)

val send_many : t -> src:int -> dsts:int list -> tag:string -> bytes -> unit

val inbox : t -> int -> Wire.msg list
(** Party [i]'s current-round inbox, in delivery order: the list its
    handler is given. Built fresh from the network's delivery buffer on
    each call; tests use it to inspect delivered mail between rounds. *)

val run_active :
  t ->
  ?adversary:adversary ->
  ?stop:(round:int -> bool) ->
  rounds:int ->
  extra:(round:int -> int list) ->
  (int -> handler option) ->
  unit
(** Run up to [rounds] further rounds, checking [stop ~round] before each
    one and returning when it holds. A round goes as follows.
    + The active set is the parties holding a delivery plus
      [extra ~round] (the protocol's spontaneous actors), each once, in
      ascending party order.
    + The last argument, [handler_of], is applied to every active party
      before any handler runs; [None] means the party does not act.
    + Every active party with a handler that is honest, and not held dark
      by the attached condition (see {!set_condition}), runs it on its
      current inbox, in ascending order.
    + The adversary acts, having seen the honest sends of this round
      (rushing), then every staged message is delivered for the next
      round.

    A party outside the active set has an empty inbox and does not act in
    that round, so a round costs O(active parties), not O(n). A protocol
    in which every party acts every round passes [everyone]; one whose
    parties act only on input passes just the parties it wakes. Raises
    [Invalid_argument] if [extra] names a party outside [0 .. n - 1]. *)

val flush : t -> unit
(** Between composed protocol phases: drop the current round's staged
    sends and every pending inbox. Mail parked on the executor's
    heap is {e not} dropped — a condition's [Defer] past the round
    barrier, or deliveries held for a dark party — and is delivered when
    due, possibly in the next phase. Protocols tell phases apart by tag
    ({!Engine} and [Ae_comm] drop foreign tags). *)
