(** Deterministic flight recorder and causal forensics.

    The paper's locality claim (Thm 1.1 / the KSSV tradition) is that each
    party's decision rests on a polylog-size slice of the network. The
    auditor checks aggregate budgets online; this module keeps the
    *evidence*: every staged send as a compact event (round, src, dst, tag,
    payload digest, bits), plus protocol-level marks (phase entries,
    committee memberships, per-party decisions). From the log it derives the
    happens-before cone of any decision, scans for equivocation (conflicting
    same-(src,round,tag) messages), and serializes to JSONL for replay.

    An instance is owned by one protocol execution (one network) and mutated
    single-threadedly by it, like {!Audit}. Capture is off by default —
    nothing records unless a recorder subscribes to a network. The event
    stream is a function of the logical traffic only, so recorded logs are
    byte-identical across reruns and [REPRO_DOMAINS] settings. *)

(** {1 Events} *)

type send_ev = {
  s_round : int;
  s_src : int;
  s_dst : int;
  s_tag : string;
  s_digest : int64;  (** FNV-1a 64 of the payload bytes *)
  s_bits : int;  (** 8 * wire size: the bits the meter/auditor charged *)
  s_vt : int option;
      (** virtual staging time; absent while the network is on its
          lock-step shortcut (zero knobs, no condition), where the clock is
          the round number *)
  s_payload : string option;  (** raw payload, kept only with [keep_payloads] *)
}

type event =
  | Send of send_ev
  | Phase of { p_round : int; p_name : string }
      (** protocol phase entered at [p_round] *)
  | Committee of { c_round : int; c_level : int; c_idx : int; c_members : int list }
      (** tree-node committee membership, fixed at [c_round] *)
  | Decide of { d_round : int; d_party : int; d_value : string }
      (** party's first accepted output *)

val digest_of_payload : bytes -> int64
(** FNV-1a 64 over the payload bytes (the digest stored in {!send_ev}). *)

val hex_of_digest : int64 -> string
(** 16 lowercase hex digits. *)

(** {1 Recorder} *)

type t

val create : ?keep_payloads:bool -> unit -> t
(** Memory is bounded: at most 2^21 events are held. When the ring is
    full, each new event drops the oldest one, counted by {!dropped}. With
    [keep_payloads] the raw payload bytes ride along on send events —
    required for replay, off by default. *)

val is_corrupt : t -> int -> bool
(** Ground truth from the [Corrupt] events seen so far; used to separate
    accountable equivocation from honest per-recipient fan-out. *)

(** {2 Feeding it}

    A recorder is a subscriber: pass [observe r] in the [sinks] of the
    network it belongs to. *)

val observe : t -> Event.t -> unit
(** Log sends, phase entries, committee memberships and decisions as
    {!event}s, and fold [Corrupt] into {!is_corrupt}; the other events
    leave no trace in the log. *)

(** {2 Log access} *)

val total_events : t -> int
(** Events recorded over the whole run (held + dropped). *)

val dropped : t -> int
(** Oldest events dropped from the full ring: when non-zero, everything
    derived from the log (cones, evidence) covers only its tail. *)

val events : t -> event list
(** Held events, oldest first. *)

val iter : t -> (event -> unit) -> unit

(** {1 JSONL serialization}

    One event per line, each the {!Json.compact} rendering of the event's
    object (every field an int or a string). Lines:
    {v
    {"e":"send","round":R,"src":S,"dst":D,"tag":"T","bits":B,"digest":"H"[,"vt":V][,"payload":"HEX"]}
    {"e":"phase","round":R,"name":"N"}
    {"e":"committee","round":R,"level":L,"idx":I,"members":[..]}
    {"e":"decide","round":R,"party":P,"value":"V"}
    v} *)

val event_jsonl : event -> string
(** One line, no trailing newline. *)

val to_jsonl : t -> string
(** All held events, newline-terminated lines. *)

(** {1 Decisions and causal cones}

    Happens-before: a send of round r is an edge src -> dst delivered at
    round r+1; within a party, everything it held at round r flows into its
    sends at rounds >= r. The causal cone of a decision (party p, round R)
    is computed by backwards interest propagation: p's state matters up to
    round R; a send (s -> d, round r) is in the cone iff d's state matters
    at some round >= r+1, and then s's state matters at round r. *)

val deciders : t -> (int * int * string) list
(** [(party, round, value)] from the Decide events, in party order
    (first decision per party). *)

type cone = {
  cone_party : int;
  cone_round : int;  (** decision round *)
  cone_value : string;
  cone_events : int;  (** send events in the cone *)
  cone_parties : int;  (** distinct parties involved, decider included *)
  cone_per_round : (int * int) list;
      (** ascending (round, distinct cone senders that round); rounds with
          an empty slice are omitted *)
  cone_samples : (int * int list) list;
      (** per cone round, an ascending sample of at most 16 sender ids *)
  cone_max_round_size : int;  (** max per-round slice, 0 for an empty cone *)
}

val causal_cones : t -> (int * int * string) list -> cone list
(** Cones for the listed [(party, round, value)] decisions, sharing one
    pass of log indexing. Only held events are consulted: if events were
    dropped the cone is a lower bound. *)

val causal_cone : t -> party:int -> cone option
(** Cone of [party]'s recorded decision, if it decided. *)

val render_cone : ?phases:bool -> ?max_listed:int -> t -> cone -> string
(** ASCII tree of the cone, decision at the root, one node per round slice
    (most recent first). With [phases] each round is annotated with the
    innermost Phase event active at it. At most [max_listed] (default 10)
    party ids are printed per slice. *)

(** {1 Equivocation evidence}

    An equivocation is one (src, round, tag) key carrying >= 2 distinct
    payload digests. Honest protocols here do fan out *per-recipient*
    payloads under one tag (e.g. Shamir shares in the coin toss), so raw
    conflicts are only *accountable* evidence when the source is corrupt —
    the channels being authenticated, a corrupt source provably sent both.
    [conflicts ~corrupt_only:true] is therefore the evidence extractor;
    the unfiltered scan is available for exploration. *)

type evidence = {
  ev_src : int;
  ev_round : int;
  ev_tag : string;
  ev_src_corrupt : bool;
  ev_variants : (string * int * int list) list;
      (** per distinct digest (hex): copies sent, ascending sample of
          destinations (at most 8); >= 2 variants, sorted by digest *)
}

val conflicts : ?corrupt_only:bool -> t -> evidence list
(** Conflicting same-(src,round,tag) groups, sorted by (round, src, tag);
    [corrupt_only] (default false) keeps only corrupt sources. *)

val verify_evidence : t -> evidence -> bool
(** Re-scan the log and confirm the bundle: every claimed variant digest is
    present with at least the claimed multiplicity under that exact
    (src, round, tag), and the variants are pairwise distinct. *)
