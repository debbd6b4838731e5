(** Prime field GF(2^31 - 1) for Shamir sharing. *)

val p : int

type t = private int

val of_int : int -> t
val to_int : t -> int
val zero : t
val one : t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val inv : t -> t
val div : t -> t -> t
val equal : t -> t -> bool
val random : Repro_util.Rng.t -> t
val eval_poly : t list -> t -> t
val encode : Repro_util.Encode.sink -> t -> unit
val decode : Repro_util.Encode.source -> t
