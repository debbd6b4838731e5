(** The one hex codec: SHA-256 digests, the flight recorder's payload
    fields and their replay all go through it. *)

val encode : string -> string
(** Two lowercase hex digits per byte. *)

val encode_bytes : bytes -> string
(** {!encode} of the buffer's current contents. *)

val decode : string -> string
(** Inverse of {!encode}; accepts either case. Raises [Invalid_argument]
    on an odd length or a non-hex character. *)
