(** SHA-256 (FIPS 180-4). The collision-resistant hash underlying every
    primitive in this reproduction. *)

type ctx

val init : unit -> ctx
val feed : ctx -> bytes -> int -> int -> unit
val finish : ctx -> bytes

val digest : bytes -> bytes
(** 32-byte digest. *)

val digest_string : string -> bytes

val digest_list : bytes list -> bytes
(** Digest of the concatenation, without materializing it. *)

type midstate
(** The chaining state after a whole number of 64-byte blocks. *)

val midstate_of_block : bytes -> midstate
(** The state after compressing one 64-byte block from the IV (e.g. an HMAC
    key pad). *)

val digest_list_from : midstate -> bytes list -> bytes
(** [digest_list_from (midstate_of_block b) parts] = [digest_list (b :: parts)],
    without compressing [b] again. *)

val max_short : int
(** 55: the longest input whose padding still fits one block. *)

val digest_short_into : bytes -> int -> int -> bytes -> int -> int -> unit
(** [digest_short_into src off len dst dst_off out_len] writes the first
    [out_len] (<= 32) bytes of [digest (Bytes.sub src off len)] into [dst] at
    [dst_off]. One compression, no allocation; [len <= max_short]. *)

val hex : bytes -> string
