(** Self-profiling layer over {!Trace} spans and the {!Counters} registry.

    Three ingredients:

    - the {b profile tree}: {!Trace.events} aggregated by nesting path into
      per-path call counts, wall time and (with {!Trace.set_gc_capture} on)
      Gc quickstat deltas — allocation attributed to the span that did it;
    - {b introspection probes}: named point-in-time readers registered by
      the instrumented layers (domain-pool utilization from
      [Repro_util.Parallel]), sampled when a report is built;
    - a {b report}: ASCII hotspot tables and the [repro-profile/2] JSON
      document, with deterministic fields (counters, histograms, span
      shapes — identical for any [REPRO_DOMAINS]) kept strictly apart from
      nondeterministic ones (wall time, allocated words, probes), so the
      deterministic half can gate regressions byte-for-byte. *)

(** {1 Probes} *)

val register_probe : name:string -> (unit -> (string * int) list) -> unit
(** Register (or replace, by name) an introspection probe. The reader is
    called when a report is built; a raising reader yields an empty list.
    Probes read physical state (how the pool ran), so reports keep them in
    the nondeterministic section. *)

(** {1 Profile tree} *)

type row = {
  p_path : string list; (* span nesting path, outermost first *)
  p_count : int;
  p_wall_us : float;
  p_minor_words : float;
  p_promoted_words : float;
  p_major_words : float;
  p_minor_collections : int;
  p_major_collections : int;
}

val alloc_words : row -> float
(** Net words allocated under the path: minor + major - promoted (promoted
    words appear in both minor and major totals). *)

val rows : unit -> row list
(** The recorded events aggregated by nesting path, sorted by path. Wall
    and Gc fields are inclusive of children, like the spans themselves. *)

val flame_summary : unit -> string
(** ASCII flame summary of {!rows}: one line per nesting path with its
    call count and total wall time, indented by depth; siblings are
    ordered heaviest subtree first, children grouped under their parent. *)

val render_hotspots : ?top:int -> unit -> string
(** Two ASCII tables over the current trace buffer: top-[top] paths by
    wall time and by allocated words. *)

(** {1 Reports} *)

val deterministic_json : unit -> Json.t
(** The deterministic half only — counters, histograms and span shape —
    as one JSON object. Its {!Json.compact} bytes
    are identical across reruns and [REPRO_DOMAINS] settings for the same
    logical run; the determinism tests compare those strings directly. *)

val report_json :
  protocol:string ->
  n:int ->
  beta:float ->
  seed:int ->
  wall_s:float ->
  domains:int ->
  gc:Trace.gc_delta ->
  ?top:int ->
  unit ->
  Json.t
(** The full [repro-profile/2] document: run identity, the
    {!deterministic_json} object under ["deterministic"], and wall time,
    whole-run Gc totals, probes and hotspot lists under
    ["nondeterministic"]. *)
