(** Fixed-size domain pool for data-parallel fan-outs.

    The pool is built from stdlib [Domain] + [Mutex]/[Condition] only. Its
    size defaults to the [REPRO_DOMAINS] environment variable when set, else
    to [Domain.recommended_domain_count ()] capped at 8. With a pool size of
    1 every operation degrades to a plain sequential loop — same code path a
    caller would have written by hand, no domains spawned.

    Determinism contract: all operations assign the result for input index
    [i] to output index [i]; scheduling order never influences outputs.
    Callers must keep their per-index closures independent (thread RNGs by
    index, never by execution order) — then results are bit-identical for
    any pool size.

    Nested calls from inside a pool task run sequentially, so one level of
    parallelism (the outermost) saturates the pool and inner fan-outs do not
    deadlock waiting for workers that are busy with their ancestors. *)

val domains : unit -> int
(** Effective pool size (>= 1). Resolved lazily from [REPRO_DOMAINS] /
    [Domain.recommended_domain_count ()] on first use. *)

val set_domains : int -> unit
(** Reconfigure the pool size (clamped to >= 1), shutting down any existing
    worker domains first. Overrides [REPRO_DOMAINS]. Intended for tests and
    benchmark drivers; not safe to call concurrently with running
    operations. *)

val init : ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [init n f] is [Array.init n f] with chunks of indices evaluated on the
    pool. [chunk] bounds the number of consecutive indices per task
    (default: spread over ~8 tasks per domain). [f] is applied exactly once
    per index; the first exception raised (if any) is re-raised after all
    chunks settle. *)

val map_list : ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f l] is [List.map f l] evaluated on the pool, as {!init}. *)

(** {1 Utilization}

    Every pool task (and every top-level sequential fan-out) is timed into
    its domain's slot: slot 0 is the caller, slots [1..d-1] the workers.
    Also exported as the ["pool"] introspection probe (nondeterministic —
    how chunks land on domains depends on scheduling). *)

val utilization : unit -> (int * float) array
(** Per slot: (tasks executed, busy seconds inside tasks) since the last
    {!reset_utilization}. Empty until the first fan-out (or pool spawn). *)

val reset_utilization : unit -> unit
(** Zero all slots. [set_domains] additionally drops them, since the slot
    count changes with the pool size. *)
