(** Fixed-capacity mutable bitset with an honest wire encoding
    (ceil(len/8) bytes — the Θ(n) signer bitmask of the multisignature
    baseline is measured through {!encode}). *)

type t

val create : int -> t
val length : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val reset : t -> unit
(** Clear every bit, in O(length / 62) word stores. *)

val mem : t -> int -> bool
val cardinal : t -> int
val inter : t -> t -> t
val copy : t -> t
val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
val of_list : int -> int list -> t
val encode : Encode.sink -> t -> unit
val decode : Encode.source -> t
