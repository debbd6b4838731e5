(** Winternitz one-time signatures with oblivious key generation — the
    OWF-based one-time signature used by the trusted-PKI SRDS construction
    (stands in for Lamport signatures; same assumption, smaller signatures). *)

type secret_key
type verification_key = bytes
type signature = bytes array

val num_chains : int
val chain_depth : int

val keygen : bytes -> verification_key * secret_key
(** [keygen seed] derives the key pair deterministically from a seed. *)

val keygen_oblivious : Repro_util.Rng.t -> verification_key
(** Sample a verification key with no known signing key; indistinguishable
    from honestly generated keys (paper Sec. 2.2, "oblivious key-generation"). *)

val sign : secret_key -> bytes -> signature
(** Sign a kappa-byte message digest. One-time: signing two different digests
    under the same key degrades security, as with any WOTS/Lamport scheme. *)

val verify : verification_key -> bytes -> signature -> bool
(** Memoized (verification is pure; the simulator re-checks the same
    signature at many parties). *)

val verify_uncached : verification_key -> bytes -> signature -> bool

val clear_cache : unit -> unit
(** Drop the calling domain's verification memo table. Every cell, every
    [games] trial, every [Balanced_ba.make_ctx] and the start of each
    experiment that runs crypto outside a cell call it: a memo hit skips
    the chain steps and the vk hash that [hashx.hash] and [sha256.compress]
    count, so a warm memo would make a cell's counters depend on which
    cells its domain ran first. *)

val signature_size : int

val encode_signature : Repro_util.Encode.sink -> signature -> unit
val decode_signature : Repro_util.Encode.source -> signature
