(* Winternitz one-time signatures (WOTS) with w = 16.

   This is the one-way-function-based one-time signature standing in for
   Lamport signatures [49] in the paper's OWF-based SRDS (Theorem 2.7): same
   assumption (OWF / CRH), ~30x smaller signatures, which keeps the large-n
   communication sweeps tractable. Two properties the SRDS construction needs:

   - *Oblivious key generation* (paper Sec. 2.2): the verification key is a
     single digest, so sampling a uniform string is perfectly oblivious — no
     one, including the sampler, knows a corresponding signing key.
   - Deterministic derivation from a seed, so the trusted PKI can hand each
     party a seed instead of a full key.

   Layout: the 128-bit message digest is split into 32 nibbles; a 3-nibble
   checksum (max 480 < 16^3) prevents forgeries by chain advancement. Each of
   the 35 chains is 15 applications of the one-way function deep; the
   verification key is the hash of all chain ends. *)

let w = 16
let chunk_bits = 4
let msg_chunks = Hashx.kappa_bytes * 8 / chunk_bits (* 32 *)
let checksum_chunks = 3
let num_chains = msg_chunks + checksum_chunks (* 35 *)
let chain_depth = w - 1 (* 15 *)

type secret_key = { seed : bytes }
type verification_key = bytes (* kappa bytes *)
type signature = bytes array (* num_chains values of kappa bytes *)

(* Chain i starts at PRF_seed("wots-chain", i) (the HMAC of [Prf.eval_parts]),
   with the seed prepared once per keygen or sign rather than per chain. The
   label bytes are shared and only ever read. *)
let chain_label = Bytes.of_string "wots-chain"
let chain_indices = Array.init num_chains (fun i -> Bytes.of_string (string_of_int i))

let chain_start prf i =
  Bytes.sub
    (Hmac.mac_prepared prf [ chain_label; chain_indices.(i) ])
    0 Hashx.kappa_bytes

(* Apply the one-way function [steps] times; each step is domain-tagged with
   the chain index and depth so chains cannot be spliced together. *)
let advance ~chain ~from_depth ~steps v = Hashx.chain ~chain ~from_depth ~steps v

let chunks_of_digest digest =
  let msg =
    List.init msg_chunks (fun i ->
        let byte = Char.code (Bytes.get digest (i / 2)) in
        if i mod 2 = 0 then byte lsr 4 else byte land 0xF)
  in
  let sum = List.fold_left (fun acc c -> acc + (chain_depth - c)) 0 msg in
  let checksum =
    List.init checksum_chunks (fun i -> (sum lsr (chunk_bits * i)) land 0xF)
  in
  Array.of_list (msg @ checksum)

let keygen seed =
  let prf = Hmac.prepare seed in
  let ends =
    List.init num_chains (fun i ->
        advance ~chain:i ~from_depth:0 ~steps:chain_depth (chain_start prf i))
  in
  (Hashx.hash ~tag:"wots-vk" ends, { seed })

(* Oblivious key generation: a uniform digest-sized string. Distribution of
   real vks is a hash output, so this is indistinguishable; no signing key
   exists for it (finding one means inverting the OWF). *)
let keygen_oblivious rng : verification_key =
  Repro_util.Rng.bytes rng Hashx.kappa_bytes

let c_sign = Repro_obs.Counters.make "wots.sign"
let c_verify = Repro_obs.Counters.make "wots.verify"
let c_hit = Repro_obs.Counters.make ~deterministic:false "wots.cache_hit"
let c_miss = Repro_obs.Counters.make ~deterministic:false "wots.cache_miss"

let sign sk msg_digest : signature =
  Repro_obs.Counters.bump c_sign;
  if Bytes.length msg_digest <> Hashx.kappa_bytes then
    invalid_arg "Wots.sign: digest size";
  let prf = Hmac.prepare sk.seed in
  let chunks = chunks_of_digest msg_digest in
  Array.init num_chains (fun i ->
      advance ~chain:i ~from_depth:0 ~steps:chunks.(i) (chain_start prf i))

let well_formed msg_digest (sg : signature) =
  Bytes.length msg_digest = Hashx.kappa_bytes
  && Array.length sg = num_chains
  && Array.for_all (fun v -> Bytes.length v = Hashx.kappa_bytes) sg

let verify_uncached vk msg_digest (sg : signature) =
  well_formed msg_digest sg
  &&
  let chunks = chunks_of_digest msg_digest in
  let ends =
    List.init num_chains (fun i ->
        advance ~chain:i ~from_depth:chunks.(i)
          ~steps:(chain_depth - chunks.(i))
          sg.(i))
  in
  Hashx.equal vk (Hashx.hash ~tag:"wots-vk" ends)

(* Verification memoization: in the network simulation the same signature is
   re-verified by every committee member that handles it; verify is a pure
   function, so caching the (vk, digest, signature) -> bool result changes
   nothing observable while collapsing the simulated fleet's redundant work
   onto one computation. Bounded by periodic reset.

   The table is domain-local: concurrent experiment cells each memoize into
   their own table, so there is no cross-domain mutation. The key is the
   content itself — vk, digest and the 35 chain values, each
   length-prefixed — so a hit is exact without relying on collision
   resistance, and a stale or cleared table can only cost a recomputation,
   never a wrong answer. Only well-formed signatures reach the table, so
   keys are ~630 bytes, hence the 2^15-entry bound (~20 MiB at worst, as the
   2^18 16-byte digest keys it replaced). *)
let cache : (string, bool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let cache_limit = 1 lsl 15

let clear_cache () = Hashtbl.reset (Domain.DLS.get cache)

let memo_key vk msg_digest (sg : signature) =
  let b = Buffer.create ((num_chains + 2) * (Hashx.kappa_bytes + 1)) in
  Repro_util.Encode.bytes b vk;
  Repro_util.Encode.bytes b msg_digest;
  Array.iter (Repro_util.Encode.bytes b) sg;
  Buffer.contents b

let verify vk msg_digest (sg : signature) =
  Repro_obs.Counters.bump c_verify;
  well_formed msg_digest sg
  &&
  let cache = Domain.DLS.get cache in
  let key = memo_key vk msg_digest sg in
  match Hashtbl.find_opt cache key with
  | Some r ->
    Repro_obs.Counters.bump c_hit;
    r
  | None ->
    Repro_obs.Counters.bump c_miss;
    let r = verify_uncached vk msg_digest sg in
    if Hashtbl.length cache > cache_limit then Hashtbl.reset cache;
    Hashtbl.add cache key r;
    r

let signature_size = num_chains * Hashx.kappa_bytes
let vk_size = Hashx.kappa_bytes

let encode_signature b (sg : signature) =
  Repro_util.Encode.array b Repro_util.Encode.bytes sg

let decode_signature src : signature =
  let sg = Repro_util.Encode.r_array src Repro_util.Encode.r_bytes in
  if Array.length sg <> num_chains then
    raise (Repro_util.Encode.Malformed "wots signature arity");
  sg
