(** Domain-separated hashing truncated to the security parameter
    (kappa = 128 bits; see DESIGN.md on toy parameters). *)

val kappa_bytes : int

val hash : tag:string -> bytes list -> bytes
(** [hash ~tag parts] is a kappa-byte digest of the tagged concatenation,
    SHA-256 of [len(tag) || tag || parts] truncated to kappa. Every call
    hashes; nothing is memoized. *)

val hash_string : tag:string -> string -> bytes

val walk_chains : from:bytes -> upto:bytes -> bytes -> unit
(** The WOTS hash chains, all 35 in one call (WOTS w = 16 at kappa = 128).
    [vals] holds chain [c]'s kappa-byte value at [kappa_bytes * c], and the
    call advances it in place from depth [from.[c]] to depth [upto.[c]]
    (bytes read as integers, [from.[c] <= upto.[c] <= 15]); the step at
    depth [d] is
    [v <- hash ~tag:"wots-f" [Bytes.of_string (Printf.sprintf "%d.%d" c d); v]],
    byte for byte. Each step is one compression from a
    padded template block built once per (chain, depth), inside one C call
    ({!Sha256.walk_chains}), and counts as one [hash] call. Raises
    [Invalid_argument] on other sizes or depths. *)

val equal : bytes -> bytes -> bool

val to_int : bytes -> int
(** First 8 digest bytes as a non-negative integer. *)
