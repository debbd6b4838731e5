(** Global registry of cheap atomic counters and power-of-two histograms.

    The instrumented layers (crypto, snark, net, core) register their
    counters at module-load time and bump them on every operation; with the
    registry disabled a bump is a single load-and-branch, so leaving the
    instrumentation compiled in costs nothing measurable. Enable with
    [enable] (the [--counters] CLI flag, the bench harness) or by setting
    [REPRO_COUNTERS] in the environment.

    Every counter and histogram is exact: its value is a function of the
    logical work only, identical for any [REPRO_DOMAINS] pool size and for
    a rerun in one process. Instrumented code keeps it so: the one
    domain-local cache that counted work depends on, the [Wots.verify]
    memo, is cleared at the start of every cell. *)

type t
(** A registered counter. *)

val enable : unit -> unit
val disable : unit -> unit

val is_enabled : unit -> bool
(** Initially true iff [REPRO_COUNTERS] is set in the environment. *)

val make : string -> t
(** Register a counter. Registering the same name twice returns the
    existing counter. *)

val bump : t -> unit
(** Increment by one when the registry is enabled; no-op otherwise. *)

val add : t -> int -> unit
(** Increment by an arbitrary amount when enabled. *)

val value : t -> int

val reset : unit -> unit
(** Zero every registered counter and histogram. *)

val snapshot : unit -> (string * int) list
(** All counters, sorted by name. Zero-valued counters are included, so the
    key set is stable across runs. *)

val pp_table : Format.formatter -> (string * int) list -> unit
(** Human-readable two-column rendering of a snapshot. *)

(** {1 Histograms} *)

type histogram
(** Power-of-two bucketed histogram: bucket [i] counts observed values [v]
    with [2^i <= v < 2^(i+1)] (bucket 0 also takes [v <= 1]). *)

val histogram : string -> histogram
(** Register a histogram. Registering the same name twice returns the
    existing one. *)

val observe : histogram -> int -> unit

val histogram_snapshot : unit -> (string * (int * int * int array)) list
(** Per histogram, sorted by name: (count, sum, buckets). *)
