(** Nestable timed spans with Chrome trace-event export.

    Instrumented code wraps its phases in {!span}; with tracing disabled the
    wrapper is a load-and-branch around the thunk. When enabled, each span
    records its wall-clock interval, nesting path and key/value attributes
    into a per-domain buffer (no locking on the hot path, safe under
    [Repro_util.Parallel]); {!flush} merges the buffers and writes the
    Chrome trace-event JSON file, viewable in Perfetto
    ([https://ui.perfetto.dev]) or [chrome://tracing].

    Enabling: setting [REPRO_TRACE_FILE=trace.json] in the environment
    enables collection and registers the output file (written at exit or on
    an explicit {!flush}); programs can do the same with {!set_output}, or
    collect without a file via {!set_enabled} and read {!events} back. *)

type gc_delta = {
  g_minor_words : float; (* words allocated on the minor heap *)
  g_promoted_words : float;
  g_major_words : float; (* includes promotions *)
  g_minor_collections : int;
  g_major_collections : int;
}
(** [Gc.quick_stat] delta over one span, measured on the domain that ran
    the span (OCaml 5 keeps minor counters per domain). Like wall time,
    deltas are inclusive: a parent span's delta covers its children. *)

type event = {
  e_name : string;
  e_cat : string; (* category, e.g. "ba", "net", "srds" *)
  e_ts : float; (* start, microseconds since the trace epoch *)
  e_dur : float; (* microseconds *)
  e_tid : int; (* domain id *)
  e_path : string list; (* enclosing span names, outermost first, incl. self *)
  e_args : (string * string) list;
  e_gc : gc_delta option; (* present when {!set_gc_capture} was on *)
}

val set_enabled : bool -> unit
(** Turn collection on/off without touching the output file. *)

val set_output : string option -> unit
(** Register (or clear) the trace file; [Some f] also enables collection.
    Initially taken from [REPRO_TRACE_FILE]. *)

val output : unit -> string option

val set_gc_capture : bool -> unit
(** Also snapshot [Gc.quick_stat] around every span ({!event.e_gc}).
    Opt-in on top of tracing: the two quickstat calls per span are cheap
    but not free, and most trace users only want wall time. *)

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], recording its interval when enabled. The
    event is recorded even when [f] raises (the exception propagates). *)

val mark : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration instant event. *)

val events : unit -> event list
(** All recorded events across domains, ordered by start timestamp. *)

val reset : unit -> unit
(** Discard all recorded events (buffers stay registered). *)

val to_chrome_json : event list -> string
(** The Chrome trace-event representation: a JSON array of complete ("X")
    events. *)

val flush : unit -> unit
(** Write the recorded events to the registered output file, if any and if
    at least one event was recorded. Also runs automatically at exit, so
    [REPRO_TRACE_FILE=... ./prog] needs no code change. *)

val dropped : unit -> int
(** Events dropped since the last {!reset} because a per-domain buffer was
    full. *)
