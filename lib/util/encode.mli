(** Honest wire format: every simulated message is serialized with these
    combinators, and reported communication is the byte length of the result.

    Encoders write into a {!sink}; decoders read from a {!source} and raise
    {!Malformed} on corrupt input (or use {!decode} for an option-typed
    entry point, as protocol code must when parsing adversarial bytes). *)

type sink = Buffer.t

val to_bytes : (sink -> unit) -> bytes
(** [to_bytes f]: the bytes [f] writes. [f] writes into a scratch buffer
    reused across calls (per domain; a [to_bytes] nested inside [f] gets
    its own), so [f] must not keep the sink past its return. *)

val scratch_cap : int
(** A scratch buffer that grew past this many bytes is dropped after its
    encode instead of being kept for reuse. *)

val scratch_free : unit -> int
(** Scratch buffers the calling domain holds for reuse (at most a few). *)

val u8 : sink -> int -> unit
val varint : sink -> int -> unit
val bool : sink -> bool -> unit
val bytes_raw : sink -> bytes -> unit

val bytes : sink -> bytes -> unit
(** Length-prefixed byte string. *)

val string : sink -> string -> unit
val list : sink -> (sink -> 'a -> unit) -> 'a list -> unit
val array : sink -> (sink -> 'a -> unit) -> 'a array -> unit
val option : sink -> (sink -> 'a -> unit) -> 'a option -> unit

exception Malformed of string

type source

val remaining : source -> int
val r_u8 : source -> int
val r_varint : source -> int
val r_bool : source -> bool
val r_bytes_raw : source -> int -> bytes
val r_bytes : source -> bytes
val r_string : source -> string
val r_list : source -> (source -> 'a) -> 'a list
val r_array : source -> (source -> 'a) -> 'a array
val r_option : source -> (source -> 'a) -> 'a option

val decode : bytes -> (source -> 'a) -> 'a option
(** [decode data f] parses with [f], requiring all input consumed; [None] on
    any malformation. This is the entry point for parsing untrusted bytes. *)

val fingerprint : bytes -> int
(** Cheap content hash: length, first and last 8 bytes, mixed. Equal
    contents have equal fingerprints. *)

val memo_decode : (source -> 'a) -> bytes -> 'a option
(** [memo_decode f] is {!decode} memoized by input *content*: the network
    delivers one shared payload buffer to every multicast recipient, and
    distinct senders often encode identical content, so receive loops share
    a single decoded value per distinct content instead of copying per
    delivery. Decoding is deterministic, so sharing never affects results,
    only allocation. A buffer is looked up by physical identity first; a
    buffer not seen before is compared by content, and on a match is kept
    as an alias of that content, so its later lookups hit by pointer. A
    buffer must therefore not be mutated once it has been looked up. The
    cache is unbounded: it keeps one
    decoded value per distinct content and one entry per distinct physical
    buffer, so create the closure per protocol phase (not globally) and
    its lifetime bounds retention. Lookups bump the deterministic
    [encode.memo_hit] / [encode.memo_miss] counters when the
    [Repro_obs.Counters] registry is enabled. *)
