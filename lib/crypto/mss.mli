(** Merkle signature scheme: stateful many-time signatures from WOTS + a
    Merkle tree (OWF/CRH assumption only). A key signs up to [2^height]
    messages. *)

type secret_key
type verification_key = bytes

type signature = {
  leaf_index : int;
  wots_vk : Wots.verification_key;
  wots_sig : Wots.signature;
  auth_path : bytes list;
}

val keygen : ?height:int -> bytes -> verification_key * secret_key
(** Deterministic from a seed. *)

val signatures_remaining : secret_key -> int

val unused_copy : secret_key -> secret_key
(** The key as {!keygen} returned it: the same leaves, none consumed. One
    key pair can then back several independent runs, each signing with
    its own copy. *)

val sign : secret_key -> bytes -> signature
(** Consumes the next WOTS leaf. Raises once the key is exhausted. *)

val verify : verification_key -> bytes -> signature -> bool

val encode_signature : Repro_util.Encode.sink -> signature -> unit
val decode_signature : Repro_util.Encode.source -> signature
val signature_to_bytes : signature -> bytes
val signature_of_bytes : bytes -> signature option
