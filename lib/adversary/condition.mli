(** Composable network conditions over the network's executor — the
    Byzantine-*conditions* counterpart of {!Strategy}'s Byzantine content.

    A condition is a recipe: a name plus a [prepare] that, given the run's
    (n, beta, seed, async cfg), builds the {!Repro_net.Sched.condition}
    the executor consults per delivery. Instances draw from their own
    (seed, name)-derived SplitMix stream and never perturb the executor's
    per-edge latency streams, so attaching a condition changes the
    schedule deterministically and detaching it restores the byte-exact
    baseline transcript. *)

type t

val name : t -> string

val static_fraction : t -> float
(** Share of a cell's beta the runner should draw as the {e static}
    corrupt set (1.0 for all conditions except the adaptive ones, which
    reserve the rest of the budget for mid-run upgrades). *)

val static_size : t -> n:int -> beta:float -> int
(** [floor (beta * static_fraction * n)] — the static corrupt-set size a
    runner should draw so that static + adaptive upgrades stay within
    [floor (beta * n)]. *)

val prepare :
  t ->
  n:int ->
  beta:float ->
  seed:int ->
  cfg:Repro_net.Sched.async_cfg ->
  Repro_net.Sched.condition
(** Build one deterministic instance for a run. *)

val delay : t
(** Seeded extra latency on every delivery: reorders within the envelope,
    clamped post-GST so the [1 + delta] contract (and hence zero post-GST
    stragglers) holds by construction. *)

val partition : t
(** A seeded ~n/8 victim side whose uplink is severed until GST: the
    majority experiences the victims as crashed, the victims keep hearing
    the majority, and every parked message is delivered at the heal. *)

val partition_leaves : t
(** Like {!partition}, but the victim side is chosen committee-aware via
    {!Strategy.tree_victims} (Kill_leaves): the split that tries to
    isolate whole leaf committees of the aggregation tree. *)

val partition_forever : t
(** Teeth: a bidirectional half-split that never heals — planted to break
    agreement/liveness; the matrix must observe it failing. *)

val churn : t
(** Crash-recovery: a seeded ~n/10 set each goes dark for a short round
    window and resumes from persisted state; held deliveries are replayed
    on resume, so recovery is lossless. *)

val adaptive : t
(** King–Saia adaptive corruption: watches committee/election traffic
    (supreme/coin/sig/aggr/up tags), then upgrades the heaviest talkers
    one per round, capped so static + upgrades <= floor(beta * n). *)

val adaptive_unbounded : t
(** Teeth: the same observer with no corruption budget, several upgrades
    per round — planted to break a sanity row. *)

val compose : t list -> t
(** Route verdicts thread left to right (first [Defer] wins), down is the
    union, observation fans out; the composite's static fraction is the
    minimum of the parts'. *)

val catalogue : unit -> t list
(** The standard portfolio: delay, partition, partition-leaves, churn,
    adaptive. Teeth variants are deliberately omitted. *)

val find : string -> t option
(** Resolve by name — catalogue entries plus the planted teeth variants
    ["partition-forever"] and ["adaptive-unbounded"]. *)
