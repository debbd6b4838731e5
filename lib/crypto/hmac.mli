(** HMAC-SHA256 (RFC 2104). *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag. *)

val mac_parts : key:bytes -> bytes list -> bytes
(** The tag of the concatenation of the parts. *)

type prepared
(** A key with its inner and outer pad blocks already compressed. *)

val prepare : bytes -> prepared

val mac_prepared : prepared -> bytes list -> bytes
(** [mac_prepared (prepare key) parts] = [mac_parts ~key parts], two
    compressions cheaper; [mac] and [mac_parts] are defined this way. *)

val mac_tails_into : prepared -> Sha256.tails -> bytes -> unit
(** [mac_tails_into p (Sha256.tails msgs) dst] writes the first 16 bytes of
    [mac_prepared p [ msgs.(k) ]] at [16 * k] of [dst], for every [k], in
    one C call of two compressions per message ({!Sha256.nested_into}). *)

val verify : key:bytes -> data:bytes -> tag:bytes -> bool
