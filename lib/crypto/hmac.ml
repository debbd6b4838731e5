(* HMAC-SHA256 (RFC 2104). Used by the PRF and as the authentication tag of
   the simulated SNARK oracle (see lib/snark/snark.ml and DESIGN.md). *)

let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded

let xor_pad key byte =
  Bytes.map (fun c -> Char.chr (Char.code c lxor byte)) key

(* A key is prepared once into the SHA-256 midstates after its inner and
   outer pad blocks; a tag then costs only the compressions over the data
   and the one of the outer hash. [mac] and [mac_parts] prepare and apply in
   one go, so every caller goes through the same code path. *)
type prepared = { inner : Sha256.midstate; outer : Sha256.midstate }

let prepare key =
  let key = normalize_key key in
  {
    inner = Sha256.midstate_of_block (xor_pad key 0x36);
    outer = Sha256.midstate_of_block (xor_pad key 0x5C);
  }

let mac_prepared p parts =
  Sha256.digest_list_from p.outer [ Sha256.digest_list_from p.inner parts ]

let mac_tails_into p tails dst =
  Sha256.nested_into ~inner:p.inner ~outer:p.outer tails dst

let mac_parts ~key parts = mac_prepared (prepare key) parts

let mac ~key data = mac_parts ~key [ data ]

let verify ~key ~data ~tag = Bytes.equal (mac ~key data) tag
