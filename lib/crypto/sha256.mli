(** SHA-256 (FIPS 180-4). The collision-resistant hash underlying every
    primitive in this reproduction.

    Every compression runs in one C stub: the x86 SHA extensions when the
    CPU reports them, a portable C kernel otherwise. The kernel is chosen
    once, from CPUID, when the library initialises; nothing configures it.
    Each compression bumps the non-deterministic [sha256.compress] counter
    exactly once. *)

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
    [dst_off]. One compression, no allocation; [len <= max_short]. [src]
    and [dst] may overlap. *)

val hex : bytes -> string

(** The raw compression kernels, for tests and probes. Hashing code never
    needs this: every function above already runs the selected kernel. *)
module Kernel : sig
  val name : string
  (** ["sha-ni"] or ["portable"]: the kernel this process runs. *)

  val portable : int array -> bytes -> int -> unit
  (** [portable h b off] compresses the 64 bytes of [b] at [off] into the
      8-word state [h] (each word < 2^32) with the portable C kernel. Counts
      nothing. Raises [Invalid_argument] on a bad state length or range. *)

  val sha_ni : (int array -> bytes -> int -> unit) option
  (** The same with the SHA extensions; [None] when the CPU lacks them. *)
end
