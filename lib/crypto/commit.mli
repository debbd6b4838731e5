(** Hash-based commitments (hiding + binding under CRH). *)

type commitment = bytes
type opening = { nonce : bytes; value : bytes }

val commit : Repro_util.Rng.t -> bytes -> commitment * opening
val verify : commitment -> opening -> bool
val encode_opening : Repro_util.Encode.sink -> opening -> unit
val decode_opening : Repro_util.Encode.source -> opening
