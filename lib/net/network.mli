(** Point-to-point network with authenticated channels and a rushing,
    static adversary, advanced round by round by {!run_slices} on one
    executor. Messages sent in round r arrive at the start of round r+1;
    honest-to-honest traffic cannot be dropped. The within-round delivery
    {e order} and the virtual clock follow the seeded per-edge latency
    model of the {!Sched.async_cfg} given at {!create} (see {!Sched}).
    With all knobs at zero and no condition attached that is lock-step
    delivery in send order, and the executor takes a shortcut that draws,
    routes and sorts nothing. *)

type t

type slice_handler = round:int -> Inbox.t -> unit
(** One party's step function for one round, given its inbox as a view of
    the network's delivery slice for the party (valid only during the
    call; see {!Inbox}); it sends by calling {!send} or {!send_many}. *)

type adversary = {
  adv_name : string;
  adv_step : t -> round:int -> honest_staged:Inbox.t -> unit;
      (** Invoked after the honest parties of a round have acted. Rushing:
          [honest_staged] is everything honest parties staged this round,
          in send order, with {!Inbox.dst} naming each recipient (a view
          valid only during the call). The adversary sends on behalf of
          corrupt parties via {!send}. *)
}

val create :
  ?backend:Sched.backend -> ?sinks:Repro_obs.Event.sink list -> n:int ->
  corrupt:int list -> unit -> t
(** [backend] (default {!Sched.default_async}: lock-step delivery in send
    order) configures the executor. [sinks] (default none) subscribe to this network's observation
    stream, each called in list order with every event: a [Corrupt] per
    statically corrupt party right away, then per accepted send (in send
    order, with the staging round), per round close (with the round's
    per-party charges from {!metrics}), per phase mark, committee,
    decision and upgrade. A network with sinks also keeps its metrics'
    per-round state; one without pays nothing for it. Subscriptions are
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

val send_many : t -> src:int -> dsts:int array -> tag:string -> bytes -> unit
(** [send_many t ~src ~dsts ~tag payload] sends [payload] to every party
    of [dsts], in array order: the same events, charges and deliveries as
    one {!send} per destination, but with the checks, the size and the
    message body done once. Raises like {!send}, before staging anything,
    if any index is out of range. *)

val delivered : t -> int -> Inbox.t
(** A fresh view of party [i]'s current-round inbox, in delivery order:
    what its handler reads. Valid until the round advances or {!flush};
    tests use it to inspect delivered mail between rounds. *)

val run_slices :
  t ->
  ?adversary:adversary ->
  rounds:int ->
  extra:(round:int -> int list) ->
  (int -> slice_handler option) ->
  unit
(** The slice stepper: run [rounds] further rounds. A round goes as
    follows.
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
    [Invalid_argument] if [extra] names a party outside [0 .. n - 1].

    A handler reads its inbox through one view the network repoints at
    each party's slice of the delivery arrays, and the adversary and the
    condition read the round's honest sends through another: handing a
    view over allocates nothing per message. *)

val run_active :
  t ->
  rounds:int ->
  extra:(round:int -> int list) ->
  (int -> (round:int -> inbox:Wire.msg list -> unit) option) ->
  unit
(** {!run_slices} for list handlers, kept for the ledger's substrate
    probe ([bench/ledger/units.ml]); nothing in the libraries calls it.
    Each running party's inbox is built as a list, in delivery order,
    just before its handler runs. *)

val flush : t -> unit
(** Between composed protocol phases: drop the current round's staged
    sends and every pending inbox. Mail parked on the executor's
    heap is {e not} dropped — a condition's [Defer] past the round
    barrier, or deliveries held for a dark party — and is delivered when
    due, possibly in the next phase. Protocols tell phases apart by tag
    ({!Engine} and [Ae_comm] drop foreign tags). *)
