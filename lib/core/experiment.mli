(** One definition per reproduced experiment.

    Each function runs one experiment of EXPERIMENTS.md (E1–E19, plus the
    audit, explain and profile tools) from labelled parameters whose
    defaults are the fixture EXPERIMENTS.md quotes, and returns one
    {!outcome}. The benchmark harness ([bench/main.ml]) and the CLI
    ([bin/ba_sim.ml]) are thin callers: they pick parameters, print
    [text], write [report] and [files], collect [rows] and exit non-zero
    on [failures]. Every gate lives here. *)

type outcome = {
  text : string;  (** rendered tables, plots, notes and gate verdict lines *)
  report : Repro_util.Json.t option;  (** what [--report FILE] writes *)
  rows : (string * Repro_util.Json.t list) list;
      (** the BENCH_results.json arrays this experiment feeds ([table1],
          [scale], [conform], [async], [conditions]) *)
  files : (string * string) list;
      (** other artifacts the caller asked for, as (path, contents): the
          audit timeline, the recorder log, the forensics bundle *)
  failures : string list;  (** gate failures; empty = every gate held *)
}

val merge : outcome list -> outcome
(** Concatenated text, rows, files and failures; the first report. *)

(** {1 The paper's claims} *)

val table1 : ?ns:int list -> ?beta:float -> ?seed:int -> unit -> outcome
(** T1/E1: every protocol at each n (default 64, 128, 256), n-major;
    rows [table1]. *)

val sweep : ?ns:int list -> ?beta:float -> ?seed:int -> unit -> outcome
(** E2–E4: max KiB/party vs n (default 64 .. 512) with fitted exponents,
    a log-log plot and the rounds/locality detail of the two this-work
    instantiations, all from one {!Runner.sweep_rows}. Dolev–Strong is
    left out (quadratic simulation cost). *)

val games : ?n:int -> ?seed:int -> ?trials:int -> unit -> outcome
(** E5/F1 and E6/F2: the Fig. 1 robustness and Fig. 2 forgery games at
    n = 128, t = n/8, over [trials] seeds from [seed], plus the ablated
    scheme's duplicate-inflation row. *)

val vrf_grinding : unit -> outcome
(** E6b: VRF key grinding after the CRS (n = 150). *)

val certificates : ?ns:int list -> unit -> outcome
(** E7: final certificate bytes per scheme vs n. *)

val srds_ops : ?n:int -> unit -> outcome
(** One full signing flow per scheme, so every scheme's counters carry
    real values; fails if an aggregate does not verify. *)

val succinctness : unit -> outcome
(** E8: srds-snark aggregate size vs aggregation batch size (n = 512). *)

val broadcast : ?n:int -> ?beta:float -> ?seed:int -> unit -> outcome
(** E9/Cor. 1.2: amortized per-execution cost over l = 1, 2, 4, 8
    broadcasts (default n = 96, seed 5). *)

val tree_quality : ?trials:int -> unit -> outcome
(** E10: almost-everywhere tree quality vs beta (n = 1024). *)

val boost : ?n:int -> ?beta:float -> ?seed:int -> unit -> outcome
(** E11: one-shot boost recovery vs PRF degree 2 .. 64 and the Thm 1.3
    unauthenticated attack (default n = 256, seed 6). *)

val thm14 : unit -> outcome
(** E11b: the boost with the one-way function inverted (n = 200). *)

val targeted_corruption : ?n:int -> ?seed:int -> unit -> outcome
(** E12: setup-aware corruption strategies, z = 1 vs Def. 3.4's repeated
    parties (default n = 512; the tree is drawn from [seed] = 13, the
    attack from [seed + 1]). *)

val breakdown : ?protocols:Runner.protocol list -> ?n:int -> unit -> outcome
(** E13: per-phase sent bytes of one {!Runner.run} cell per protocol at
    beta = 0.1, seed 8 (default this-work-snark and multisig-boost at
    n = 256). *)

val protocol_under_attack : unit -> outcome
(** E14: this-work-snark against setup-aware corruption (n = 128). *)

val audit :
  ?n:int -> ?beta:float -> ?seed:int -> ?timeline_out:string -> unit -> outcome
(** E15: every protocol against its declared polylog budgets (default
    n = 64); [timeline_out] adds the per-round JSONL timeline to [files].
    Fails if a this-work protocol exceeds its own budget. *)

val attack :
  ?betas:float list ->
  ?sanity_betas:float list ->
  ?seeds:int list ->
  ?strategies:string list ->
  ?conditions:string list ->
  ?forensics_out:string ->
  ?n:int ->
  unit ->
  outcome
(** E16 (and E19 with [conditions]): {!Runner.attack_matrix} at default
    n = 64; report [repro-attack/2]. Fails if a gated in-model cell
    breaks, if no sanity row fails (the checks would be toothless), if a
    planted condition row survives, or — with [forensics_out] — if a
    planted equivocation yields no verified evidence. *)

val conditions : ?strategies:string list -> ?conditions:string list -> unit -> outcome
(** E19: the network-condition matrix at beta 1/8, n = 40, seed 1, with
    its planted teeth rows; rows [conditions]. Defaults: silent and
    equivocate over the whole condition catalogue. *)

val scale :
  ?ns:int list -> ?beta:float -> ?seed:int -> ?protocols:Runner.protocol list ->
  unit -> outcome
(** E17: {!Runner.scale_rows}; report [repro-scale/2], rows [scale]. Fails
    if a this-work curve breaks its budget or no baseline exceeds its
    curve. *)

val conform :
  ?ns:int list ->
  ?beta:float ->
  ?seed:int ->
  ?chaos:Repro_net.Sched.async_cfg list ->
  ?cells:(Runner.protocol * int) list ->
  unit ->
  outcome
(** E18: conformance of the lock-step shortcut and the general (time,
    seq) path at [ns] (default 64, 256), then
    {!Runner.async_cells} over [cells] once per [chaos] knob setting, each
    setting's [a_seed] being its cells' seed (default:
    [Runner.default_chaos ~seed]); report [repro-async/2], rows [conform]
    and [async]. Fails on a digest mismatch or a broken async cell. *)

(** {1 Tools over one cell} *)

val explain :
  protocol:Runner.protocol -> n:int -> beta:float -> seed:int ->
  ?party:int -> ?replay:bool -> ?log_out:string -> unit -> outcome
(** Flight-record one run and explain its decisions by causal cones
    checked against the declared locality curve; [party] renders one cone
    tree, [replay] round-trips the log through {!Repro_net.Replay},
    [log_out] adds the JSONL log to [files]. Report [repro-forensics/2]. *)

val profile :
  protocol:Runner.protocol -> n:int -> beta:float -> seed:int ->
  ?top:int -> ?compare:string * string -> ?threshold:float -> unit -> outcome
(** One self-profiled cell: hotspots and pool utilization; report
    [repro-profile/1]. [compare] is (name, contents) of a previous report:
    a deterministic regression past [threshold] (default 0) fails. *)
