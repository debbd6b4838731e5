(** PRF family from HMAC: seed expansion, keyed hashing, and the
    F_s(i) pseudorandom party subsets of the BA protocol's final round. *)

type key = bytes

val of_seed : bytes -> key
val eval_parts : key:key -> bytes list -> bytes

val expand : key:key -> label:string -> int -> bytes
(** Counter-mode expansion into a pseudorandom byte string. *)

val to_int : key:key -> bytes -> int -> int

val subset : key:key -> index:int -> n:int -> size:int -> int array
(** [subset ~key ~index ~n ~size] is the deterministic pseudorandom set
    F_key(index) ⊆ [0,n) \ [{index}] of the given size, sorted ascending. *)

val mem : int array -> int -> bool
(** Membership in a sorted array (binary search). *)

type subsets
(** A memo of F_s(i) by (s, i) for one run's [n] and [size]. *)

val subsets : n:int -> size:int -> subsets

val subset_of : subsets -> key:key -> index:int -> int array
(** [subset ~key ~index ~n ~size], computed once per (key, index); the
    array is shared, so callers must not mutate it. *)
