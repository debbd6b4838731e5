(** Shamir secret sharing over GF(2^31 - 1). *)

type share = { x : Field.t; y : Field.t }

val share :
  Repro_util.Rng.t -> secret:Field.t -> threshold:int -> num_shares:int ->
  share list
(** Degree-[threshold] sharing; share [i] is at [x = i + 1]. *)

val reconstruct : share list -> Field.t
(** Lagrange interpolation at 0; requires > threshold distinct shares. *)

val lagrange_at_zero : Field.t list -> Field.t list
(** The Lagrange coefficients at 0 of distinct points [xs]: [reconstruct]
    of shares at [xs] is the sum of their [y]s weighted by these, so
    callers interpolating many sharings at one point set can compute them
    once. *)

val encode : Repro_util.Encode.sink -> share -> unit
val decode : Repro_util.Encode.source -> share
