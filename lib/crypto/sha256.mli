(** SHA-256 (FIPS 180-4). The collision-resistant hash underlying every
    primitive in this reproduction.

    Every compression runs in C: the x86 SHA extensions when the CPU
    reports them, a portable C kernel otherwise. The two batched calls below
    also have a 16-lane AVX-512F kernel, which they run when the CPU reports
    AVX512F and the OS saves its registers. The kernels are chosen once,
    from CPUID and XGETBV, when the library initialises; nothing configures
    them. Each compression bumps the non-deterministic [sha256.compress]
    counter exactly once. *)

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

(** {2 Batched one-block kernels}

    Two C loops of one-block compressions over padded blocks built once, for
    the WOTS hash chains and their HMAC chain starts. On AVX-512 they run
    sixteen chains or messages at a time. Each bumps [sha256.compress] once
    per compression it runs, not per lane it pads. *)

val max_short : int
(** 55: the longest message whose padding still fits one block. *)

val slot : int
(** 16: the width of a chain value and of each truncated output below. *)

type chain_templates
(** Padded one-block messages [prefix ‖ value] for a grid of chains and
    depths, the [slot]-byte value left blank. *)

val chain_templates : bytes array array -> chain_templates
(** [chain_templates prefixes]: chain [c] at depth [d] hashes
    [prefixes.(c).(d) ‖ v]. Every row has the same length (the depth); each
    prefix is at most [slot] bytes. Raises [Invalid_argument] otherwise. *)

val walk_chains : chain_templates -> from:bytes -> upto:bytes -> bytes -> int
(** [walk_chains t ~from ~upto vals] advances every chain [i] of [t] in
    place: its value, bytes [slot * i] to [slot * (i + 1)] of [vals], goes
    from depth [from.[i]] to depth [upto.[i]] (bytes read as integers), and
    the step at depth [d] replaces [v] with the first [slot] bytes of
    [digest (prefixes.(i).(d) ‖ v)]. One C call, one compression per step;
    returns the number of steps. Raises [Invalid_argument] unless [from],
    [upto] have one byte and [vals] [slot] bytes per chain and
    [from.[i] <= upto.[i] <= depth]. *)

type tails
(** Padded last blocks of short messages that each follow one 64-byte
    block. *)

val tails : bytes array -> tails
(** One tail per message, each at most [max_short] bytes. *)

val tails_init : int -> (int -> bytes -> int -> int) -> tails
(** [tails_init count fill] is [tails msgs] for [count] messages that
    [fill k dst pos] writes straight into the tails' buffer: message [k] at
    [pos] of [dst], returning its length and writing nothing else. Raises
    [Invalid_argument] if a length exceeds [max_short]. *)

val nested_into : inner:midstate -> outer:midstate -> tails -> bytes -> unit
(** [nested_into ~inner ~outer (tails msgs) dst] writes, for each [k], the
    first [slot] bytes of
    [digest_list_from outer [ digest_list_from inner [ msgs.(k) ] ]] at
    [slot * k] of [dst] — HMAC from prepared pads, see {!Hmac}. One C call,
    two compressions per message. Both midstates must follow exactly one
    block and [dst] must be [slot] bytes per message. *)

val hex : bytes -> string

(** The raw kernels, for tests and probes. Hashing code never needs this:
    every function above already runs the selected kernel. *)
module Kernel : sig
  val name : string
  (** ["sha-ni"] or ["portable"]: the kernel this process runs for a single
      compression; {!walk_chains} and {!nested_into} run {!avx512} where
      it is [Some _]. *)

  type t = {
    compress : int array -> bytes -> int -> unit;
        (** [compress h b off] compresses the 64 bytes of [b] at [off] into
            the 8-word state [h] (each word < 2^32). Raises
            [Invalid_argument] on a bad state length or range. *)
    walk_chains : chain_templates -> from:bytes -> upto:bytes -> bytes -> unit;
        (** {!walk_chains}, with its checks. *)
    nested_into : inner:midstate -> outer:midstate -> tails -> bytes -> unit;
        (** {!nested_into}, with its checks. *)
  }
  (** One kernel's entry points. They count nothing. *)

  val portable : t
  (** The portable C kernel. *)

  val sha_ni : t option
  (** The SHA extensions; [None] when the CPU lacks them. *)

  val avx512 : t option
  (** The 16-lane AVX-512F kernel, every chain and message on it, however
      few lanes they fill; [None] when the CPU or the OS lacks AVX-512. Its
      [compress] runs one block on all sixteen lanes. *)

  val avx512_min_lanes : int
  (** Where {!walk_chains} and {!nested_into} stop using the 16-lane kernel:
      a walk finishes its chains on the single-block kernel once no chain
      is left to start and fewer than this many are still walking, and the
      last messages of a call go to the 16-lane kernel only when at least
      this many are left. *)
end
