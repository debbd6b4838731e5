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
   verification key is the hash of all chain ends.

   Keygen, sign and verify each do their hashing in at most two C calls:
   the 35 HMAC chain starts ([Hmac.mac_tails_into]) and one walk of all 35
   chains ([Hashx.walk_chains]), each step a compression of a padded
   template block built once per (chain, depth). The vk is then one more
   hash. *)

let w = 16
let chunk_bits = 4
let msg_chunks = Hashx.kappa_bytes * 8 / chunk_bits (* 32 *)
let checksum_chunks = 3
let num_chains = msg_chunks + checksum_chunks (* 35 *)
let chain_depth = w - 1 (* 15 *)

type secret_key = { seed : bytes }
type verification_key = bytes (* kappa bytes *)
type signature = bytes array (* num_chains values of kappa bytes *)

let kappa = Hashx.kappa_bytes

(* Chain i starts at PRF_seed("wots-chain" ‖ i) (the HMAC of
   [Prf.eval_parts]), truncated to kappa; the 35 messages are padded once,
   and the seed is prepared once per keygen or sign. The chain values live
   in one flat buffer, chain i at [kappa * i], which [Hashx.walk_chains]
   advances in place: one C call for the starts, one for the walk. Each
   step is domain-tagged with the chain index and depth, so chains cannot
   be spliced together. *)
let start_tails =
  Sha256.tails
    (Array.init num_chains (fun i -> Bytes.of_string ("wots-chain" ^ string_of_int i)))

let chain_starts seed =
  let vals = Bytes.create (kappa * num_chains) in
  Hmac.mac_tails_into (Hmac.prepare seed) start_tails vals;
  vals

let bottoms = Bytes.make num_chains '\000'
let tops = Bytes.make num_chains (Char.chr chain_depth)

(* The depth each chain is signed at: the digest's 32 nibbles, then the
   3-nibble checksum of their distances to the top. *)
let chunks_of_digest digest =
  let chunks = Bytes.create num_chains in
  let sum = ref 0 in
  for i = 0 to msg_chunks - 1 do
    let byte = Bytes.get_uint8 digest (i / 2) in
    let c = if i land 1 = 0 then byte lsr 4 else byte land 0xF in
    Bytes.set_uint8 chunks i c;
    sum := !sum + chain_depth - c
  done;
  for i = 0 to checksum_chunks - 1 do
    Bytes.set_uint8 chunks (msg_chunks + i) ((!sum lsr (chunk_bits * i)) land 0xF)
  done;
  chunks

(* The verification key hashes the 35 chain ends as one part: the same
   bytes as one part per chain. *)
let vk_of_ends ends = Hashx.hash ~tag:"wots-vk" [ ends ]

let keygen seed =
  let vals = chain_starts seed in
  Hashx.walk_chains ~from:bottoms ~upto:tops vals;
  (vk_of_ends vals, { seed })

(* Oblivious key generation: a uniform digest-sized string. Distribution of
   real vks is a hash output, so this is indistinguishable; no signing key
   exists for it (finding one means inverting the OWF). *)
let keygen_oblivious rng : verification_key =
  Repro_util.Rng.bytes rng Hashx.kappa_bytes

let c_sign = Repro_obs.Counters.make "wots.sign"
let c_verify = Repro_obs.Counters.make "wots.verify"
let c_hit = Repro_obs.Counters.make "wots.cache_hit"
let c_miss = Repro_obs.Counters.make "wots.cache_miss"

let sign sk msg_digest : signature =
  Repro_obs.Counters.bump c_sign;
  if Bytes.length msg_digest <> Hashx.kappa_bytes then
    invalid_arg "Wots.sign: digest size";
  let vals = chain_starts sk.seed in
  Hashx.walk_chains ~from:bottoms ~upto:(chunks_of_digest msg_digest) vals;
  Array.init num_chains (fun i -> Bytes.sub vals (kappa * i) kappa)

(* A loop of its own: [Array.for_all] would allocate a closure per call. *)
let rec chains_sized (sg : signature) i =
  i = num_chains || (Bytes.length sg.(i) = Hashx.kappa_bytes && chains_sized sg (i + 1))

let well_formed msg_digest (sg : signature) =
  Bytes.length msg_digest = Hashx.kappa_bytes
  && Array.length sg = num_chains
  && chains_sized sg 0

let verify_uncached vk msg_digest (sg : signature) =
  well_formed msg_digest sg
  &&
  let vals = Bytes.create (kappa * num_chains) in
  Array.iteri (fun i v -> Bytes.blit v 0 vals (kappa * i) kappa) sg;
  Hashx.walk_chains ~from:(chunks_of_digest msg_digest) ~upto:tops vals;
  Hashx.equal vk (vk_of_ends vals)

(* Verification memoization: in the network simulation the same signature is
   re-verified by every committee member that handles it; verify is a pure
   function, so caching the (vk, digest, signature) -> bool result changes
   nothing observable while collapsing the simulated fleet's redundant work
   onto one computation. Bounded by periodic reset.

   The table is domain-local: concurrent experiment cells each memoize into
   their own table, so there is no cross-domain mutation. It is keyed by
   content — an entry holds one private flat copy of vk ‖ digest ‖ the 35
   chain values — so a hit is exact without relying on collision
   resistance, and a stale or cleared table can only cost a recomputation,
   never a wrong answer. A probe builds nothing: it hashes a few words of
   the caller's own buffers and compares an entry's bytes against them in
   place, and only a miss allocates, for the copy it stores. Only
   well-formed signatures reach the table, so the digest and chain lengths
   are fixed and the copy's length tells the vk's length. Open addressing
   with linear probing, at most half full; at [cache_limit] entries
   (~20 MiB at worst) it starts over. *)
type memo = {
  mutable keys : bytes array; (* flat copies; [Bytes.empty] = free slot *)
  mutable verdicts : bool array;
  mutable entries : int;
}

let memo_slots = 4096
let cache_limit = 1 lsl 15

let fresh_memo () =
  {
    keys = Array.make memo_slots Bytes.empty;
    verdicts = Array.make memo_slots false;
    entries = 0;
  }

let cache : memo Domain.DLS.key = Domain.DLS.new_key fresh_memo

let reset_memo m =
  let f = fresh_memo () in
  m.keys <- f.keys;
  m.verdicts <- f.verdicts;
  m.entries <- 0

let clear_cache () = reset_memo (Domain.DLS.get cache)

let tail_bytes = kappa * (1 + num_chains) (* digest and chains, after the vk *)

let[@inline] word b off = Int64.to_int (Bytes.get_int64_le b off)

let mix_hash v d0 d8 s0 s1 =
  let h =
    (v * 0x9E3779B1) lxor (d0 * 0x85EBCA77) lxor (d8 * 0x2545F491)
    lxor (s0 * 0x7FEB352D) lxor (s1 * 0x27D4EB2F)
  in
  h lxor (h lsr 29)

(* A few words of the vk, the digest and the first and last chains. *)
let memo_hash vk msg_digest (sg : signature) =
  mix_hash
    (if Bytes.length vk >= 8 then word vk 0 else Bytes.length vk)
    (word msg_digest 0) (word msg_digest 8) (word sg.(0) 0)
    (word sg.(num_chains - 1) 8)

(* The same hash, read off a flat copy. *)
let flat_hash key =
  let l = Bytes.length key - tail_bytes in
  mix_hash
    (if l >= 8 then word key 0 else l)
    (word key l) (word key (l + 8)) (word key (l + kappa))
    (word key (l + (kappa * num_chains) + 8))

(* [b] equals [key]'s bytes from [off] on, compared a word at a time. *)
let rec eq_at key off b i =
  let len = Bytes.length b in
  i >= len
  ||
  if i + 8 <= len then
    Bytes.get_int64_le key (off + i) = Bytes.get_int64_le b i
    && eq_at key off b (i + 8)
  else Bytes.get key (off + i) = Bytes.get b i && eq_at key off b (i + 1)

let rec chains_eq key l (sg : signature) i =
  i = num_chains
  || (eq_at key (l + (kappa * (i + 1))) sg.(i) 0 && chains_eq key l sg (i + 1))

let matches key vk msg_digest sg =
  let l = Bytes.length vk in
  Bytes.length key = l + tail_bytes
  && eq_at key l msg_digest 0
  && eq_at key 0 vk 0
  && chains_eq key l sg 0

(* The slot holding the entry for (vk, digest, sg), or the free slot
   where it belongs. *)
let rec probe keys mask vk msg_digest sg i =
  let k = keys.(i) in
  if Bytes.length k = 0 || matches k vk msg_digest sg then i
  else probe keys mask vk msg_digest sg ((i + 1) land mask)

let flat_copy vk msg_digest (sg : signature) =
  let l = Bytes.length vk in
  let key = Bytes.create (l + tail_bytes) in
  Bytes.blit vk 0 key 0 l;
  Bytes.blit msg_digest 0 key l kappa;
  Array.iteri (fun i v -> Bytes.blit v 0 key (l + (kappa * (i + 1))) kappa) sg;
  key

let rec free_slot keys mask i =
  if Bytes.length keys.(i) = 0 then i else free_slot keys mask ((i + 1) land mask)

let memo_grow m =
  let keys = m.keys and verdicts = m.verdicts in
  let cap = 2 * Array.length keys in
  let keys' = Array.make cap Bytes.empty and verdicts' = Array.make cap false in
  Array.iteri
    (fun slot key ->
      if Bytes.length key > 0 then begin
        let i = free_slot keys' (cap - 1) (flat_hash key land (cap - 1)) in
        keys'.(i) <- key;
        verdicts'.(i) <- verdicts.(slot)
      end)
    keys;
  m.keys <- keys';
  m.verdicts <- verdicts'

(* Store a verdict that [probe] just missed. *)
let memo_add m vk msg_digest sg r =
  if m.entries >= cache_limit then reset_memo m;
  if 2 * (m.entries + 1) > Array.length m.keys then memo_grow m;
  let mask = Array.length m.keys - 1 in
  let i = free_slot m.keys mask (memo_hash vk msg_digest sg land mask) in
  m.keys.(i) <- flat_copy vk msg_digest sg;
  m.verdicts.(i) <- r;
  m.entries <- m.entries + 1

let verify vk msg_digest (sg : signature) =
  Repro_obs.Counters.bump c_verify;
  well_formed msg_digest sg
  &&
  let m = Domain.DLS.get cache in
  let mask = Array.length m.keys - 1 in
  let i = probe m.keys mask vk msg_digest sg (memo_hash vk msg_digest sg land mask) in
  if Bytes.length m.keys.(i) > 0 then begin
    Repro_obs.Counters.bump c_hit;
    m.verdicts.(i)
  end
  else begin
    Repro_obs.Counters.bump c_miss;
    let r = verify_uncached vk msg_digest sg in
    memo_add m vk msg_digest sg r;
    r
  end

let signature_size = num_chains * Hashx.kappa_bytes

let encode_signature b (sg : signature) =
  Repro_util.Encode.array b Repro_util.Encode.bytes sg

let decode_signature src : signature =
  let sg = Repro_util.Encode.r_array src Repro_util.Encode.r_bytes in
  if Array.length sg <> num_chains then
    raise (Repro_util.Encode.Malformed "wots signature arity");
  sg
