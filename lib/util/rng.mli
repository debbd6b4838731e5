(** Deterministic pseudo-random generator (SplitMix64).

    All randomness in the simulator flows through values of type {!t}, seeded
    explicitly, so that every experiment is reproducible bit-for-bit. *)

type t
(** A generator is its 8-byte SplitMix state, stepped in place; the same
    layout {!bits_at} steps at any offset of a caller's buffer. Drawing
    with {!bits}, {!int} or {!float} allocates nothing. *)

val create : int -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t
(** Independent copy with the same state: drawing from one never moves the
    other. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Uniform non-negative 62-bit integer. *)

val bits_at : bytes -> int -> int
(** [bits_at buf off] steps the generator state stored unboxed at bytes
    [\[off, off + 8)] of [buf] (little-endian) and returns what {!bits}
    would on a generator in that state. Does not allocate. *)

val state_into : t -> bytes -> int -> unit
(** [state_into t buf off] copies [t]'s state to [off], where {!bits_at}
    and {!label_at} step it. *)

val label_at : bytes -> int -> string -> unit
(** [label_at buf off label] turns the state at [off] into that of
    [of_label g label], [g] being a generator in that state. Does not
    allocate. *)

val label_int_at : bytes -> int -> int -> unit
(** [label_int_at buf off i] is [label_at buf off (string_of_int i)] for
    [i >= 0], without building the string. *)

val int_of_bits : int -> int -> int
(** [int_of_bits b bound] is what {!int} returns when {!bits} would have
    returned [b]. *)

val float_lt : int -> float -> bool
(** [float_lt b p] is [f < p], where [f] is what {!float} returns when
    {!bits} would have returned [b]; the float is never boxed. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises on [bound <= 0]. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bytes : t -> int -> bytes
(** [bytes t len] is a fresh uniformly random byte string. *)

val split : t -> t
(** Derive an independent child generator, advancing the parent. *)

val of_label : t -> string -> t
(** Deterministic child generator keyed by a label; does not advance the
    parent, so repeated calls with the same label coincide. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val subset : t -> n:int -> size:int -> int list
(** Uniform [size]-subset of [\[0, n)], sorted ascending. *)
