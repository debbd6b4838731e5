(** Domain-separated hashing truncated to the security parameter
    (kappa = 128 bits; see DESIGN.md on toy parameters). *)

val kappa_bytes : int

val hash : tag:string -> bytes list -> bytes
(** [hash ~tag parts] is a kappa-byte digest of the tagged concatenation.
    Small inputs are memoized in a bounded domain-local cache (Merkle-node
    and other small tagged digests repeat across committee members). *)

val clear_cache : unit -> unit
(** Drop this domain's digest cache (memory hygiene between experiments;
    never needed for correctness). *)

val hash_string : tag:string -> string -> bytes

val chain : chain:int -> from_depth:int -> steps:int -> bytes -> bytes
(** The WOTS hash chain: [steps] applications of the one-way function to a
    kappa-byte value, step [d] being
    [hash ~tag:"wots-f" [Bytes.of_string (Printf.sprintf "%d.%d" chain d); v]]
    for [d] from [from_depth]; the result equals that loop byte for byte,
    without its cache, in one compression per step, each counted as one
    [hash] call. Requires [0 <= chain < 35], [from_depth + steps <= 15]
    (WOTS w = 16 at kappa = 128) and a kappa-byte value, which is not
    modified. *)

val equal : bytes -> bytes -> bool

val to_int : bytes -> int
(** First 8 digest bytes as a non-negative integer. *)
