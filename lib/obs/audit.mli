(** Online per-party complexity auditor.

    The paper's headline claim (Thm 1.1) is that every party communicates
    only [polylog(n) * poly(kappa)] bits; Table 1 compares boosting
    protocols by exactly this per-party figure, and the KSSV locality
    tradition bounds how many distinct neighbours a party touches. This
    module turns those statements into *online protocol invariants*: a
    budget check, subscribed to the metered network's event stream, reads
    every party's sent and received bits and distinct-neighbour locality
    from each round's [Round_end] summary (charged once, by the network's
    metrics), checks them against declared budget curves of the form
    [c * log2(n)^k * kappa^j], records a structured per-round timeline, and
    raises violations naming the offending party, round, phase and
    observed-vs-budget values.

    An auditor instance belongs to exactly one protocol execution (one
    metered network); runs on the domain pool each own their instance, so
    no synchronization is needed and violation counts are pool-size
    independent. The only shared state is the [audit.violations] counter in
    {!Counters}, whose atomic sum is order independent. *)

(** {1 Budget curves} *)

type curve = { c : float; log_exp : int; kappa_exp : int }
(** The value [c * log2(n)^log_exp * kappa^kappa_exp], in bits (or, for
    locality, in distinct peers). [log2 n] is taken ceiling-wise and
    clamped to >= 2 so curves are monotone from n = 2. *)

val curve : c:float -> log_exp:int -> kappa_exp:int -> curve
val eval : curve -> n:int -> kappa:int -> float
val pp_curve : Format.formatter -> curve -> unit
(** Renders e.g. [24*log^2(n)*k^2]. *)

type budgets = {
  round_bits : curve option;  (** per-party sent+received bits per round *)
  round_locality : curve option;
      (** per-party distinct send/recv peers per round *)
  total_bits : curve option;
      (** per-party sent+received bits over the whole execution *)
}

val no_budgets : budgets
(** All checks disabled: pure accounting/timeline mode. *)

(** {1 Violations} *)

type kind = Round_bits | Round_locality | Total_bits

val kind_name : kind -> string

type violation = {
  v_party : int;
  v_round : int;
  v_phase : string;  (** phase-tag path active when the check fired *)
  v_kind : kind;
  v_observed : float;
  v_budget : float;
}

(** {1 Auditor} *)

type t

val kappa_default : int
(** 128: the repository's toy security parameter (hashx kappa bits). *)

val create : ?label:string -> ?kappa:int -> n:int -> budgets:budgets -> unit -> t

val label : t -> string
val n : t -> int
val kappa : t -> int
val budgets : t -> budgets

(** {2 Feeding it}

    An auditor is a subscriber: pass [observe a] in the [sinks] of the
    network it belongs to, and every round close, phase mark and
    corruption of that network reaches it. *)

val observe : t -> Event.t -> unit
(** Fold one event: [Round_end] runs the per-round budget checks for every
    honest party it charged, records each charged party's cumulative
    figures and appends the timeline record, in O(charged parties); phase
    marks push and pop the phase stack (nested phases join into a
    [>]-separated path, innermost last); [Corrupt p] removes [p] from every
    later check, since the adversary can always inflate its own parties'
    numbers. Sends are not charged here: the round's summary already
    counts them. *)

val finalize : t -> unit
(** Run the whole-execution checks (total bits, as of each party's last
    charged round). Idempotent. *)

val current_phase : t -> string
(** The open phase path ([""] outside every phase). *)

(** {1 Results} *)

val violations : t -> violation list
(** In detection order. *)

val violation_count : t -> int

type round_rec = {
  tr_round : int;
  tr_phase : string;
  tr_max_bits : int;  (** max over honest parties, sent+received this round *)
  tr_mean_bits : float;
  tr_active : int;  (** honest parties that sent or received this round *)
  tr_scheduled : int;
      (** handlers the stepper invoked (the armed set, as opposed to
          [tr_active], which counts parties that moved bits) *)
  tr_sent_bits : int;
      (** bits staged by sends this round, summed over all sources (corrupt
          included) — exactly one charge per send the transcript tap sees,
          so a flight recorder's per-round totals must match it *)
  tr_max_locality : int;
  tr_violations : int;  (** violations detected in this round *)
}

val timeline : t -> round_rec list

val timeline_jsonl : ?protocol:string -> t -> string
(** One JSON object per line, one line per round. Keys: [protocol] (when
    given), [round], [phase], [max_bits], [mean_bits], [active],
    [scheduled], [sent_bits], [max_locality], [violations]. *)

(** {2 Observed aggregates (for reports and calibration)} *)

val max_round_bits : t -> int
(** Largest per-party bits total seen in any single round (honest). *)

val max_round_locality : t -> int

val total_bits_max : t -> int
(** Max over honest parties of whole-execution total bits. *)

val rounds_seen : t -> int

val worst_offenders : ?top:int -> t -> (int * int * int) list
(** Honest parties ranked by violation count (then by total bits):
    [(party, violations, total_bits)]. Parties with zero violations are
    ranked by total bits; at most [top] (default 5) entries. *)

val pp_summary : Format.formatter -> t -> unit
(** Multi-line human-readable audit summary: observed maxima vs budgets,
    violation count, worst offenders. *)

(** {1 Global audit mode}

    When enabled (the [REPRO_AUDIT] environment variable, read by bench too,
    [ba_sim run --audit]), the experiment runner subscribes a fresh auditor
    with the protocol's declared budgets to every execution; each recorded
    violation bumps the [audit.violations] counter so bench experiments
    carry violation counts in their counter snapshots. *)

val global_enabled : unit -> bool
val enable_global : unit -> unit
val disable_global : unit -> unit
