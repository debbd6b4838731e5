(** Experiment cells: runs every protocol of Table 1 under identical
    conditions on the metered network and returns the measured records and
    their JSON objects. {!Experiment} sweeps, renders and gates them; the
    benchmark harness and the CLI call {!Experiment}, not this module. *)

type protocol =
  | This_work_owf  (** Fig. 3 over the OWF/trusted-PKI SRDS *)
  | This_work_snark  (** Fig. 3 over the SNARK/bare-PKI SRDS *)
  | Multisig_boost  (** the same pipeline over Theta(n) multisig certs [13] *)
  | Sqrt_boost  (** KS'09-style quorums, Theta~(sqrt n) per party *)
  | Naive_boost  (** flooding, Theta(n) per party *)
  | Dolev_strong
      (** authenticated Dolev–Strong broadcast: the classic Theta(n^2)-message
          reference row ({!Baseline_dolev}) *)

val all_protocols : protocol list
val protocol_name : protocol -> string
val protocol_of_name : string -> protocol option

val budgets_of : protocol -> Repro_obs.Audit.budgets
(** The complexity budgets each protocol is audited against, all of the
    paper's polylog shape [c * log^k(n) * kappa^j]. The this-work
    instantiations declare curves they meet; the baselines declare the
    polylog claim they provably exceed (naive flooding most visibly), so
    the auditor demonstrably has teeth. *)

val make_auditor : protocol:protocol -> n:int -> Repro_obs.Audit.t
(** A fresh auditor carrying [budgets_of protocol]. *)

type row = {
  r_protocol : string;
  r_n : int;
  r_beta : float;
  r_rounds : int;
  r_max_bytes : int;  (** max per-party sent+received bytes (honest) *)
  r_mean_bytes : float;
  r_p50_bytes : float;
  r_p95_bytes : float;
  r_p99_bytes : float;
  r_stddev_bytes : float;  (** per-party spread: load-balance quality *)
  r_total_bytes : int;
  r_locality : int;
  r_ok : bool;  (** agreement/validity held *)
  r_note : string;
  r_breakdown : (string * int) list;  (** sent bytes per tag group *)
}

val row_json : row -> Repro_util.Json.t
(** The Table-1 row object of every report that carries rows. Floats keep
    fixed decimals ([beta] 3, byte statistics 1; see
    {!Repro_util.Json.fixed}); [tag_breakdown] is sorted by key. *)

val cold_caches : unit -> unit
(** Clear the calling domain's crypto caches ([Hashx] digests, [Wots]
    verifications). Every cell starts from them: a warm cache skips work
    that the deterministic [hashx.hash] counter counts, so a cell's
    counters would depend on what its domain ran before. *)

val run :
  ?backend:Repro_net.Sched.backend ->
  protocol:protocol -> n:int -> beta:float -> seed:int -> unit -> row
(** When {!Repro_obs.Audit.global_enabled} (the [REPRO_AUDIT] environment
    variable, [--audit]), every run carries a fresh auditor with the
    protocol's declared budgets; violations reach the [audit.violations]
    registry counter. [?backend] configures the network's executor
    (default lock-step; see {!Repro_net.Sched}). *)

val run_with :
  ?sinks:Repro_obs.Event.sink list ->
  ?backend:Repro_net.Sched.backend ->
  ?condition:Repro_net.Sched.condition ->
  protocol:protocol -> n:int -> beta:float -> seed:int -> unit -> row
(** One run with [?sinks] subscribed to its network (see
    {!Repro_net.Network.create}), [?condition] attached to it (see
    {!Repro_net.Network.set_condition}) and no global-audit auditor. *)

val run_audited :
  ?backend:Repro_net.Sched.backend ->
  protocol:protocol -> n:int -> beta:float -> seed:int -> unit ->
  row * Repro_obs.Audit.t
(** Like {!run} but always audited; returns the finalized auditor with its
    violations, timeline and per-phase breakdown. *)

val corrupt_by_strategy :
  strategy:Repro_aetree.Attacks.strategy -> n:int -> beta:float -> seed:int ->
  int list
(** The corrupt set a setup-aware adversary picks after seeing the public
    slot assignment (committees are elected post-corruption). *)

val run_under_attack :
  strategy:Repro_aetree.Attacks.strategy -> n:int -> beta:float -> seed:int ->
  row
(** E14: the full SNARK-instantiated protocol against that adversary. *)

(** {1 E16: the seeded attack matrix} *)

type attack_cell = {
  ac_protocol : string;
  ac_strategy : string;  (** a {!Repro_adversary.Strategy.catalogue} name *)
  ac_n : int;
  ac_beta : float;
  ac_seed : int;
  ac_agreed : bool;
  ac_decided : float;
  ac_valid : bool;
  ac_ok : bool;
      (** agreed, >95% honest decided, validity held — and, on condition
          cells, zero post-GST stragglers *)
  ac_expect_fail : bool;  (** sanity row / planted condition: may fail *)
  ac_condition : string;
      (** a {!Repro_adversary.Condition} name, or ["none"] for the
          content-only cells of the legacy sweep *)
  ac_gated : bool;
      (** counts toward [am_gate_ok] (the Dolev–Strong condition rows are
          ungated reference points) *)
  ac_rounds : int;
  ac_vt : int;  (** final virtual time (= rounds under lock-step) *)
  ac_pre_gst_lost : int;
      (** condition cells: pre-GST deliveries slower than [1 + jitter] —
          loss retransmits plus condition-delayed messages
          ({!Repro_net.Sched.stats}) *)
  ac_post_gst_late : int;  (** 0 by the partial-synchrony contract *)
}

val attack_cell_json : attack_cell -> Repro_util.Json.t
(** One [cells] object of [repro-attack/2]; BENCH_results.json's
    [conditions] rows use the same object. *)

type attack_matrix = {
  am_n : int;
  am_betas : float list;
  am_sanity_betas : float list;
  am_seeds : int list;
  am_protocols : string list;
  am_strategies : string list;
  am_conditions : string list;  (** network conditions swept (may be empty) *)
  am_cells : attack_cell list;  (** deterministic input order *)
  am_gate_ok : bool;  (** every gated non-sanity cell is ok *)
  am_teeth : bool;  (** some sanity cell actually failed: checks have teeth *)
  am_condition_teeth : bool;
      (** the planted never-healing partition and unbounded-adaptive rows
          exist and both actually failed *)
}

val attack_protocols : protocol list
(** The pipeline protocols the content-only matrix covers (owf and snark
    Fig. 3). *)

val condition_protocols : protocol list
(** The protocols the condition sweep covers: the two pipelines plus the
    ungated {!Dolev_strong} authenticated reference row. *)

val default_chaos : seed:int -> Repro_net.Sched.async_cfg
(** delta 2, jitter 3, loss 0.1, GST 24: a pre-GST window of genuinely
    chaotic scheduling followed by a bounded partial-synchrony tail. *)

val run_attack_cell :
  ?sinks:Repro_obs.Event.sink list ->
  ?backend:Repro_net.Sched.backend ->
  ?condition_name:string ->
  ?gated:bool ->
  protocol:protocol ->
  strategy_name:string ->
  n:int ->
  beta:float ->
  seed:int ->
  expect_fail:bool ->
  unit ->
  attack_cell
(** One cell: the full BA protocol against one instantiated strategy,
    after building the cell's own phase-A setup. Every
    gated non-sanity failure bumps the [attack.violations.<strategy>]
    counter. [?sinks] subscribe to the cell's network (a flight recorder on
    the forensic re-run path, a transcript tap); observing never alters
    traffic. [?backend] configures the cell's executor.
    [?condition_name] resolves a {!Repro_adversary.Condition} and attaches
    it, under [?backend] if given and {!default_chaos} otherwise; the
    static corrupt set is scaled by the condition's reserved adaptive
    budget. *)

val attack_matrix :
  ?betas:float list ->
  ?sanity_betas:float list ->
  ?seeds:int list ->
  ?strategies:string list ->
  ?conditions:string list ->
  n:int ->
  unit ->
  attack_matrix
(** Sweep {!attack_protocols} x strategies x (betas @ sanity_betas) x seeds
    on the domain pool. Defaults: betas [0; 1/16; 1/8] (the highest rate the
    scaled-down committees survive across seeds: by 3/16–1/4 the corrupt-set
    draw alone sinks some seeds even against a silent adversary — see
    EXPERIMENTS.md E10/E16),
    one beta >= 1/3 sanity row at 0.45, seed 1, the full
    {!Repro_adversary.Strategy.catalogue}, no conditions (the legacy
    content-only matrix). A non-empty [?conditions] appends, after the
    legacy cells: one {!default_chaos} cell per
    (seed x gate beta x condition x strategy x {!condition_protocols}),
    then the two planted expect-fail teeth rows (never-healing partition,
    unbounded adaptive) behind [am_condition_teeth]. Deterministic: same
    arguments give an identical matrix (and identical
    {!attack_matrix_json} bytes) for any [REPRO_DOMAINS] pool size.

    Phase A is built once per distinct (protocol, n, seed) — the SRDS keys
    ({!Balanced_ba.Make.setup}) or the Dolev–Strong PKI
    ({!Baseline_dolev.pki}) — before the cells fan out, and shared by the
    cells that use it; nothing mutable is shared (see DESIGN.md §5). Each
    cell record therefore equals {!run_attack_cell} on the same spec,
    which builds its own. *)

val attack_matrix_json : attack_matrix -> Repro_util.Json.t
(** Machine-readable report, schema [repro-attack/2]. Equal inputs give
    equal values, so its {!Repro_util.Json.pretty} bytes are identical
    across reruns. *)

type sweep_result = {
  s_protocol : string;
  s_points : (int * row) list;
  s_slope_max : float;  (** fitted d log(max bytes) / d log n *)
  s_slope_mean : float;
  s_slope_locality : float;
}

val sweep_rows :
  ?ns:int list ->
  ?beta:float ->
  ?seed:int ->
  ?protocols:protocol list ->
  unit ->
  sweep_result list
(** One {!run} cell per (protocol, n), fanned out on the domain pool and
    regrouped per protocol in input order; results are bit-identical for
    any [REPRO_DOMAINS] pool size. Defaults: n = 64 .. 512, beta 0.1, seed
    1, {!all_protocols}. *)

(** {1 E17: large-n scale sweep}

    The sparse execution engine makes the Fig. 3 pipeline tractable at
    n = 4096+; baselines whose simulation cost is quadratic in n carry an
    explicit per-protocol sweep ceiling ({!scale_cap}) so a capped curve is
    never mistaken for a complete one. Every point runs audited and records
    the honest per-party p99 bits against the protocol's declared
    total-bits budget curve — the paper's headline separation as a
    measurement. *)

type scale_point = {
  sp_row : row;
  sp_p99_bits : float;  (** honest per-party p99 bits (8 x [r_p99_bytes]) *)
  sp_budget_bits : float option;
      (** the protocol's declared total-bits curve at this n *)
  sp_within : bool;  (** p99 under the declared curve (true if none) *)
  sp_violations : int;  (** auditor violations over the whole run *)
}

type scale_result = {
  sc_protocol : string;
  sc_cap : int option;  (** sweep ceiling; [None] = swept every requested n *)
  sc_points : scale_point list;
  sc_slope_p99 : float;  (** fitted d log(p99 bits) / d log n *)
}

val scale_point_json : cap:int option -> scale_point -> Repro_util.Json.t
(** {!row_json}'s fields, then [p99_bits], [budget_bits] (null without a
    curve), [within], [violations] and the sweep's [cap]. *)

val scale_ns_default : int list
(** [256; 512; 1024; 2048; 4096]. *)

val scale_cap : protocol -> int option
(** Largest n the default sweep runs this protocol at ([None] = uncapped).
    Caps bound {e simulation} cost, not protocol cost: the Theta(n)
    baselines cost Theta(n^2) bytes to simulate. *)

val scale_rows :
  ?ns:int list ->
  ?beta:float ->
  ?seed:int ->
  ?protocols:protocol list ->
  unit ->
  scale_result list
(** One audited cell per (protocol, n <= cap), fanned out on the domain
    pool; results are bit-identical for any [REPRO_DOMAINS] pool size. *)

val scale_json : scale_result list -> Repro_util.Json.t
(** Machine-readable report, schema [repro-scale/2]: one object per
    protocol with its [cap], [slope_p99] and {!scale_point_json} points.
    Equal inputs give equal values. *)

(** {1 Self-profiling ([ba_sim profile])} *)

val run_profiled :
  protocol:protocol ->
  n:int ->
  beta:float ->
  seed:int ->
  row * float * Repro_obs.Trace.gc_delta
(** Run one cell with full observability on — counters, spans with Gc
    capture, pool utilization — after resetting all of it (and clearing the
    domain-local digest caches, so cache counters start cold and reruns
    produce identical deterministic sections). Returns the row, the wall
    time in seconds, and the whole-run Gc delta of the calling domain.
    Collection stays enabled on return: read {!Repro_obs.Profile} /
    {!Repro_obs.Counters} to build the report. *)

val profile_compare :
  prev:string -> cur:string -> threshold:float -> (string list, string) result
(** Regression gate over the deterministic halves of two [repro-profile/1]
    documents (raw file contents). [Ok []] = no regression; [Ok lines] =
    deterministic metrics (counters, histogram count/sum, span counts
    present in both) drifted past [threshold] relative change in either
    direction; [Error note] = the reports are structurally not comparable
    (unparseable, wrong schema, missing deterministic section — e.g. a
    previous report predating a schema bump), which callers must not treat
    as a failure. *)

(** {1 Forensics: flight-recorded runs, causal cones, evidence bundles}

    Consumers of {!Repro_obs.Recorder} riding the network's send choke
    point: decision explanation ([ba_sim explain]), accountable
    equivocation-evidence extraction for attack-matrix cells, and transcript
    replay ({!Repro_net.Replay}). All reports use schema
    [repro-forensics/2] and are byte-identical across reruns. *)

val run_recorded :
  ?keep_payloads:bool ->
  ?backend:Repro_net.Sched.backend ->
  protocol:protocol ->
  n:int ->
  beta:float ->
  seed:int ->
  unit ->
  row * Repro_obs.Recorder.t * int list
(** Run one cell with a flight recorder subscribed; returns the row, the
    recorder holding the full event log, and the run's ground-truth corrupt
    set (recomputed: it is every run's first RNG draw). [keep_payloads]
    (default false) stores raw payload bytes for replay; digests-only
    otherwise. Recording observes traffic without altering it: the
    transcript is bit-identical to the unrecorded run. *)

type explain_report = {
  ex_protocol : string;
  ex_n : int;
  ex_beta : float;
  ex_seed : int;
  ex_budget : float option;
      (** the protocol's declared round-locality curve at this n *)
  ex_cones : (Repro_obs.Recorder.cone * int) list;
      (** per decider: causal cone + its count of over-budget round slices *)
  ex_violations : int;  (** total over-budget slices across all cones *)
  ex_dropped : int;
      (** events the recorder's full ring dropped ({!Repro_obs.Recorder.dropped});
          non-zero makes every cone a lower bound *)
}

val locality_budget : protocol:protocol -> n:int -> float option
(** The declared per-round locality budget curve evaluated at [n]. *)

val explain_cones :
  protocol:protocol -> n:int -> beta:float -> seed:int ->
  Repro_obs.Recorder.t -> explain_report
(** Causal cones for every recorded decider over one shared send index,
    each per-round slice checked against the protocol's declared locality
    curve — the polylog pipelines must explain every decision within their
    locality budget; naive flooding's Theta(n) cone blows the same check. *)

val forensics_schema : string
(** ["repro-forensics/2"]: /1 plus the recorder's drop count ("dropped"),
    top level for kind ["explain"], per bundle for kind ["attack"]. *)

val dropped_note : what:string -> int -> string list
(** The text line that flags a truncated log — [what] names the derived
    objects (cones, evidence) that cover only its tail; [[]] for a count of
    0. *)

val explain_json : explain_report -> Repro_util.Json.t
(** Machine-readable report, schema {!forensics_schema} kind ["explain"];
    parses back with {!Repro_util.Json}. *)

type forensic_bundle = {
  fb_protocol : string;
  fb_strategy : string;
  fb_condition : string;  (** the cell's network condition ("none" = legacy) *)
  fb_beta : float;
  fb_seed : int;
  fb_cell_ok : bool;  (** the triggering cell's gate verdict *)
  fb_expect_fail : bool;
  fb_evidence : Repro_obs.Recorder.evidence list;
      (** corrupt-only conflicts, each re-verified against the log *)
  fb_dropped : int;  (** events the re-run's recorder dropped *)
}

val strategy_equivocates : string -> bool
(** Whether a (possibly composed) strategy name contains the equivocate
    component — such cells at beta > 0 carry a planted, provably
    extractable equivocation. *)

val forensic_worthy : attack_cell -> bool
(** Cells that earn a forensic re-run: gate failures, plus every
    equivocate-strategy cell at beta > 0 (where evidence must exist). *)

val cell_forensics : attack_cell -> forensic_bundle
(** Re-run one cell bit-identically with a recorder attached and extract
    verified accountable equivocation evidence. *)

val attack_forensics : attack_matrix -> forensic_bundle list
(** {!cell_forensics} over every {!forensic_worthy} cell of the matrix,
    fanned out on the domain pool in deterministic order; the re-runs share
    one setup per (protocol, n, seed), as {!attack_matrix} does. *)

val forensics_teeth : forensic_bundle list -> bool
(** Extractor self-check: the equivocate strategy provably equivocates at
    beta > 0, so every such bundle must carry evidence — [true] iff at
    least one planted-equivocation bundle exists and none came back empty. *)

val attack_forensics_json : n:int -> forensic_bundle list -> Repro_util.Json.t
(** Machine-readable report, schema {!forensics_schema} kind ["attack"]. *)

val check_forensics_report : Repro_util.Json.t -> (unit, string) result
(** The schema rule [ba_sim validate] applies after parsing: a
    [repro-forensics/*] document must be {!forensics_schema} with a
    non-negative "dropped" count where the schema puts one. Any other
    document is [Ok]. *)

(** {1 E18: the executor's two paths + async partial synchrony}

    The conformance suite is the contract that makes the network's
    lock-step shortcut safe: the same (protocol, n, beta, seed) cell at
    zero knobs must produce one transcript digest — and one measured
    row — on the shortcut and on the general (time, seq) path, forced by
    attaching {!Repro_net.Sched.pass_condition}. The async
    chaos matrix then runs the pipeline protocols under nonzero
    latency/jitter/loss with a GST horizon against live adversary
    strategies, checking agreement, validity and the post-GST delivery
    bound. Both are deterministic for any [REPRO_DOMAINS] pool size. *)

val run_digest :
  ?backend:Repro_net.Sched.backend ->
  ?condition:Repro_net.Sched.condition ->
  protocol:protocol -> n:int -> beta:float -> seed:int -> unit ->
  row * string
(** Run one cell with a {!digest_sink} subscribed; returns the row and the
    hex digest. *)

val digest_sink : unit -> Repro_obs.Event.sink * (unit -> string)
(** A transcript tap: the sink hashes every send
    ([round|src|dst|tag|payload] per message, in send order) through
    SHA-256, and the thunk returns the hex digest once the run is over.
    Taps subscribe per network, so digests of concurrent cells never
    interleave. *)

type conform_cell = {
  cf_protocol : string;
  cf_n : int;
  cf_beta : float;
  cf_seed : int;
  cf_digests : (string * string) list;
      (** path (["shortcut"], then ["general"]) -> transcript digest *)
  cf_rows_ok : bool;  (** both paths' rows reached agreement/validity *)
  cf_match : bool;  (** digests and measured rows identical on both paths *)
}

val conform_cell_json : conform_cell -> Repro_util.Json.t
(** One [conform] row of [repro-async/2] and of BENCH_results.json. *)

val conformance_cell :
  protocol:protocol -> n:int -> beta:float -> seed:int -> conform_cell

val conformance_cells :
  ?protocols:protocol list ->
  ?ns:int list ->
  ?beta:float ->
  ?seed:int ->
  unit ->
  conform_cell list
(** Defaults: owf and snark at n = 64 and 256, beta 0.1, seed 1 — the
    acceptance cells. Fanned out on the domain pool, deterministic order. *)

type async_cell = {
  ay_protocol : string;
  ay_strategy : string;  (** a {!Repro_adversary.Strategy.catalogue} name *)
  ay_n : int;
  ay_beta : float;
  ay_seed : int;
  ay_cfg : Repro_net.Sched.async_cfg;
  ay_rounds : int;
  ay_vt : int;  (** final virtual time (> rounds once jitter/loss bite) *)
  ay_max_latency : int;
  ay_pre_gst_lost : int;
      (** pre-GST deliveries slower than [1 + jitter]
          ({!Repro_net.Sched.stats}) *)
  ay_post_gst_late : int;  (** 0 by the partial-synchrony contract *)
  ay_agreed : bool;
  ay_decided : float;
  ay_valid : bool;
  ay_digest : string;  (** transcript digest: rerun-determinism witness *)
  ay_ok : bool;
      (** agreed, >95% decided, valid, and no post-GST late delivery *)
}

val async_cell_json : async_cell -> Repro_util.Json.t
(** One [async] row of [repro-async/2] and of BENCH_results.json. *)

val async_cells :
  ?strategies:string list ->
  ?beta:float ->
  ?seed:int ->
  ?cfg:Repro_net.Sched.async_cfg ->
  ?cells:(protocol * int) list ->
  unit ->
  async_cell list
(** One async cell per (protocol, n) of [cells] and strategy: the full BA
    protocol (owf/snark only) under [cfg], against
    one instantiated adversary strategy. Defaults: silent and equivocate
    against owf at n = 256 and snark at n = 64, beta 0.1, seed 1,
    {!default_chaos} knobs — the acceptance matrix. The SRDS keys are built
    once per (protocol, n, seed) and shared by its cells; the cells fan
    out on the domain pool, deterministic order. *)
