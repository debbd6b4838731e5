(** Composable Byzantine adversary strategies over {!Repro_net.Network}.

    A {!t} is a named, seedable *recipe* for a network adversary: the same
    strategy value can be instantiated many times (once per simulation
    cell), and two instantiations with the same seed produce byte-identical
    traffic. Primitives cover the canonical attack classes against the
    Fig. 3 pipeline — crash, equivocation, replay chaff, targeted
    withholding, malformed/duplicate aggregate injection — and combinators
    compose, delay and rate-limit them.

    All strategies are *rushing*: they run after the honest parties of a
    round have staged their messages and observe everything staged
    ([honest_staged]). All corrupt traffic flows through a checked [emit]
    that silently drops sends with an honest or out-of-range source, so a
    strategy can never impersonate an honest party (the network itself
    additionally rejects such sends; see {!Repro_net.Network.send}). *)

module Rng = Repro_util.Rng
module Network = Repro_net.Network
module Inbox = Repro_net.Inbox

type env = {
  net : Network.t;
  round : int;  (** global network round *)
  honest_staged : Inbox.t;
      (** what honest parties just sent, in send order (the network's
          rushing view; valid only during the step) *)
  emit : src:int -> dst:int -> tag:string -> bytes -> unit;
      (** Checked send: drops messages whose [src] is not a corrupt party
          of [net] or whose [dst] is out of range. Combinators may wrap it
          (e.g. {!budgeted} caps how often it fires per round). *)
}

type step = env -> unit
(** One round of adversarial behaviour. *)

type t
(** A named strategy recipe. Immutable; safe to share across domains as
    long as each simulation calls {!instantiate} for its own instance. *)

val name : t -> string

val make : name:string -> (Rng.t -> step) -> t
(** [make ~name prepare] is a custom strategy: [prepare] runs once per
    {!instantiate} with the instance's private generator and returns the
    per-round step (which may close over mutable state). *)

val seed_of : seed:int -> string -> int
(** [seed_of ~seed name] is the generator seed of the recipe [name] in a
    cell seeded [seed]: the name is mixed in, so composed siblings with
    the same numeric seed draw independent streams. Strategies and
    {!Condition}s both derive their instance streams with it. *)

val instantiate : t -> seed:int -> Network.adversary
(** A fresh adversary instance whose randomness is derived only from
    [seed] and the strategy's name — byte-identical traffic on reruns.
    Instantiation also registers/bumps an [adv.msgs.<name>] counter in
    {!Repro_obs.Counters} for every message the instance emits. *)

(** {1 Primitive strategies} *)

val silent : t
(** Crash faults: corrupt parties send nothing at all. *)

val equivocate : t
(** For up to 4 tags observed among the honest traffic of the round, a
    corrupt party sends the same tag with two divergent payloads to two
    disjoint halves of the honest parties — the canonical split-view
    attack against committee votes. *)

val replay_chaff : ?per_round:int -> unit -> t
(** Corrupt parties replay observed honest payloads at random parties
    under the original tag, plus undecodable junk under the same tag
    (default cap 40 observed messages per round). This is the historic
    ad-hoc adversary of [test_adversarial_ba.ml], lifted. *)

val withhold : victims:int list -> t
(** Corrupt parties behave as chatty replayers toward every honest
    non-victim but withhold all traffic from the victim set, splitting the
    network's view between starved victims and flooded non-victims. Use
    {!tree_victims} to aim the victim set at tree-critical parties. *)

val bad_aggregate : t
(** SRDS aggregation attack: for observed signature-carrying messages of
    the Fig. 3 tree phases (tags [sig-*] and [up-*]), corrupt parties
    re-inject the payload at its destination (duplicate-signature
    injection), a byte-flipped copy (malformed aggregate) and a
    self-concatenated copy (oversized/duplicated encoding), bounded per
    round. Decoders and range checks must shrug all of it off. *)

(** {1 Combinators} *)

val compose : t list -> t
(** Run the strategies of the list in order each round, each drawing from
    its own independent generator (derived by position and name, so the
    composite is deterministic and insensitive to sibling behaviour). *)

val from_round : int -> t -> t
(** [from_round r s] is [s] activated only from global round [r] on —
    lets an attack wait out setup phases. *)

val budgeted : int -> t -> t
(** [budgeted k s] is [s] with its [emit] capped at [k] messages per
    round (excess sends are dropped). Keeps adversarial traffic bounded so
    the complexity auditor's honest-party budgets stay meaningful under
    active attack. The budget is enforced on the wrapped strategy's own
    emissions; rushing visibility is unchanged. *)

(** {1 Tree-aware targeting} *)

val tree_victims :
  n:int ->
  seed:int ->
  strategy:Repro_aetree.Attacks.strategy ->
  budget:int ->
  int list
(** The parties a setup-aware adversary would *corrupt* under the given
    {!Repro_aetree.Attacks.strategy} (rebuilding the same public slot
    assignment the protocol derives from [seed]), repurposed as a victim
    set: these are exactly the tree-critical parties whose starvation
    hurts most. Deterministic in [(n, seed, strategy, budget)]. *)

(** {1 The standard portfolio} *)

val catalogue : n:int -> seed:int -> t list
(** The attack portfolio the matrix harness sweeps: every primitive plus
    combinator showcases ([withhold] aimed by {!tree_victims} at
    kill-leaves targets, a budgeted composite of equivocation and chaff,
    and a delayed bad-aggregate). Names are stable — they key report rows
    and regression seeds. *)

val find : n:int -> seed:int -> string -> t option
(** Look up a catalogue strategy by {!name}. *)
