(** Transcript replay: re-drive a network from a recorded flight-recorder
    log and verify the replayed transcript is byte-identical.

    This makes the determinism contract checkable post-hoc on any captured
    run: serialize the log to JSONL, parse it back, push every recorded
    send through a fresh network at its original round, and compare the
    re-captured event stream against the original — round, src, dst, tag,
    payload digest, charged bits, raw payload bytes, and (where the log
    stamps it) the virtual staging time must all match. *)

val events_of_jsonl : string -> (Repro_obs.Recorder.event list, string) result
(** Parse a recorder JSONL document (see {!Repro_obs.Recorder.event_jsonl});
    blank lines are skipped. [Error] names the first offending line. *)

val replay :
  ?backend:Sched.backend -> n:int -> corrupt:int list ->
  Repro_obs.Recorder.event list -> (Repro_obs.Recorder.t, string) result
(** Re-drive the send events through a fresh [n]-party network, advancing
    rounds so each send is staged at its recorded round, with a
    payload-keeping recorder subscribed. [backend] must be the executor
    configuration the log was recorded under (default: zero knobs): its
    virtual timestamps only reproduce under the same latency config. Fails
    if a send lacks a captured payload ([keep_payloads] was off at record
    time) or rounds regress. *)

val check :
  original:Repro_obs.Recorder.event list -> replayed:Repro_obs.Recorder.t ->
  (int, string) result
(** Compare the original log's send events against the replayed capture,
    in order. [Ok k] is the number of sends verified identical; [Error]
    describes the first divergence. *)

val self_check :
  ?backend:Sched.backend -> n:int -> corrupt:int list ->
  Repro_obs.Recorder.event list -> (int, string) result
(** [replay] then [check] against the same events: the round-trip gate the
    forensic harness runs (JSONL parse -> re-drive -> byte compare). *)
