(* Domain-separated, truncated hashing.

   All higher-level primitives call these helpers instead of raw SHA-256 so
   that (a) every use site carries a domain tag — hashes from different roles
   can never collide across roles — and (b) the security parameter kappa is
   set in one place. We run with kappa = 128 bits (16-byte digests), a toy
   parameter documented in DESIGN.md that keeps large-n sweeps tractable;
   nothing else in the code depends on the digest width. *)

let kappa_bytes = 16

let c_hash = Repro_obs.Counters.make "hashx.hash"

(* H(len(tag) || tag || data), truncated to kappa. *)
let hash ~tag parts =
  Repro_obs.Counters.bump c_hash;
  let header = Bytes.of_string tag in
  let len = Bytes.make 1 (Char.chr (String.length tag land 0xFF)) in
  let full = Sha256.digest_list (len :: header :: parts) in
  Bytes.sub full 0 kappa_bytes

let hash_string ~tag s = hash ~tag [ Bytes.of_string s ]

(* The one-way function of the WOTS chains. Step d of chain c is
   [hash ~tag:"wots-f" [label; v]] with label "c.d", byte for byte: the
   message len(tag) ‖ tag ‖ label ‖ v is at most 28 bytes, one block. The
   35 chains × 15 depths of WOTS (w = 16, kappa = 128) get one padded
   template block each, built once, and a walk of all 35 chains is one
   [Sha256.walk_chains] call. Each step counts as one [hashx.hash]. *)
let chain_tag = "wots-f"
let chains = 35
let chain_len = 15

let chain_templates =
  assert (kappa_bytes = Sha256.slot);
  Sha256.chain_templates
    (Array.init chains (fun c ->
         Array.init chain_len (fun d ->
             Bytes.of_string
               (String.make 1 (Char.chr (String.length chain_tag))
               ^ chain_tag ^ Printf.sprintf "%d.%d" c d))))

let walk_chains ~from ~upto vals =
  Repro_obs.Counters.add c_hash (Sha256.walk_chains chain_templates ~from ~upto vals)

let equal = Bytes.equal

(* Interpret the first 8 digest bytes as a non-negative int; used to derive
   pseudorandom indices from digests. *)
let to_int d =
  let v = ref 0 in
  for i = 0 to min 7 (Bytes.length d - 1) do
    v := (!v lsl 8) lor Char.code (Bytes.get d i)
  done;
  !v land max_int
