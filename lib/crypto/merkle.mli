(** Merkle hash trees with authentication paths. *)

type tree

val build : bytes array -> tree
(** Build over raw leaf data (leaves are hashed internally). *)

val root : tree -> bytes

val path : tree -> int -> bytes list
(** Sibling digests bottom-up for the given leaf index. *)

val verify_path : root:bytes -> index:int -> leaf_data:bytes -> bytes list -> bool

val encode_path : Repro_util.Encode.sink -> bytes list -> unit
val decode_path : Repro_util.Encode.source -> bytes list
