(** Integer and statistics helpers. *)

val ceil_div : int -> int -> int
val log2_ceil : int -> int
val log2_floor : int -> int
val pow_int : int -> int -> int
val isqrt : int -> int

val sorted_index : int array -> int -> int
(** [sorted_index a x] is [x]'s index in [a], which must be ascending
    without duplicates, by binary search; [-1] when [x] is absent. *)

val mean : float list -> float
val stddev : float list -> float
val percentile : float -> float list -> float
val median : float list -> float

val loglog_slope : (float * float) list -> float
(** Least-squares slope of [log y] vs [log x]: the empirical growth exponent
    of a measured series. *)
