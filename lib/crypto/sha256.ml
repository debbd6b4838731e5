(* SHA-256 (FIPS 180-4).

   This is the collision-resistant hash underlying every other primitive in
   the reproduction: WOTS/Merkle signatures, commitments, the PRF/HMAC, and
   the CRH digest chaining inside the SNARK-based SRDS. Tested against the
   NIST example vectors in test/test_crypto.ml.

   The compression function is one C stub (sha256_stubs.c). It runs the x86
   SHA extensions when the CPU reports them and a portable C kernel
   otherwise. Two more stubs loop one-block compressions over blocks padded
   here once: the WOTS chain walk and the HMAC chain starts. Those two run
   sixteen blocks at a time on a third kernel, 16 lanes of AVX-512F, when
   the CPU reports AVX512F and the OS saves its registers, and hand the last
   few chains or tails, too few to fill the lanes, to the one-block
   kernel. Every choice is made once at library initialisation. This file
   keeps the streaming glue, the padding, every bounds check and the
   compression counter. The chaining state is an 8-word [int array] (each
   word < 2^32) inside the [ctx], so contexts are independent and hashing
   is safe to run from multiple domains concurrently. *)

external select_kernels : unit -> int = "repro_sha256_select" [@@noalloc]

(* Chooses the kernels; must run before any domain is spawned, which module
   initialisation guarantees. Bit 0: SHA extensions, bit 1: AVX-512F. *)
let kernels = select_kernels ()
let has_sha_ni = kernels land 1 <> 0
let has_avx512 = kernels land 2 <> 0

(* What a batched call asks the stub for: the single-block kernels, the
   selected mix, or 16 lanes for everything (the stub's [KERNEL_*]). *)
let k_portable = 0
let k_sha_ni = 1
let k_selected = 2
let k_avx512 = 3

(* Compress the 64-byte block of [b] at [off] into the 8-word state. No
   bounds checks: the callers below pass complete in-range blocks. *)
external compress_block : int array -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_compress_byte" "repro_sha256_compress"
[@@noalloc]

external walk_chains_stub :
  bytes -> bytes -> (int[@untagged]) -> bytes -> bytes -> bytes ->
  (int[@untagged]) -> unit
  = "repro_sha256_walk_chains_byte" "repro_sha256_walk_chains"
[@@noalloc]

external nested_stub :
  int array -> int array -> bytes -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_nested_byte" "repro_sha256_nested"
[@@noalloc]

external compress_portable : int array -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_compress_portable_byte" "repro_sha256_compress_portable"
[@@noalloc]

external compress_sha_ni : int array -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_compress_sha_ni_byte" "repro_sha256_compress_sha_ni"
[@@noalloc]

external compress_avx512 : int array -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_compress_zmm_byte" "repro_sha256_compress_zmm"
[@@noalloc]

external zmm_min_lanes : unit -> int = "repro_sha256_zmm_min_lanes" [@@noalloc]

type ctx = {
  h : int array; (* 8 chaining words, each < 2^32 *)
  block : Bytes.t; (* 64-byte working block *)
  mutable block_len : int;
  mutable total_len : int; (* bytes fed so far (fits: native int is 63-bit) *)
}

(* The chaining state after a whole number of blocks. Never mutated:
   starting a hash copies [m_h] into the context. *)
type midstate = { m_h : int array; m_len : int }

let iv =
  {
    m_h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    m_len = 0;
  }

let init () =
  { h = Array.copy iv.m_h; block = Bytes.create 64; block_len = 0; total_len = 0 }

(* Physical compression-function invocations. Exact like every counter:
   the one cache above this module, the [Wots.verify] memo, starts empty at
   every cell, so the hashes that reach the compression function are a
   function of the logical work. *)
let c_compress = Repro_obs.Counters.make "sha256.compress"

let compress ctx b off =
  Repro_obs.Counters.bump c_compress;
  compress_block ctx.h b off

let feed ctx data off len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Sha256.feed: out of range";
  ctx.total_len <- ctx.total_len + len;
  let pos = ref off in
  let remaining = ref len in
  (* Fill a partial block first. *)
  if ctx.block_len > 0 then begin
    let take = min !remaining (64 - ctx.block_len) in
    Bytes.blit data !pos ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.block_len = 64 then begin
      compress ctx ctx.block 0;
      ctx.block_len <- 0
    end
  end;
  (* Whole blocks straight from the caller's buffer, no copy. *)
  while !remaining >= 64 do
    compress ctx data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.block 0 !remaining;
    ctx.block_len <- !remaining
  end

let finish ctx =
  let bitlen = ctx.total_len * 8 in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_start = ctx.block_len in
  Bytes.set ctx.block pad_start '\x80';
  if pad_start + 1 > 56 then begin
    Bytes.fill ctx.block (pad_start + 1) (64 - pad_start - 1) '\000';
    compress ctx ctx.block 0;
    Bytes.fill ctx.block 0 64 '\000'
  end
  else Bytes.fill ctx.block (pad_start + 1) (56 - pad_start - 1) '\000';
  for i = 0 to 7 do
    let shift = (7 - i) * 8 in
    Bytes.set ctx.block (56 + i) (Char.chr ((bitlen lsr shift) land 0xFF))
  done;
  compress ctx ctx.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  out

let start ctx m =
  Array.blit m.m_h 0 ctx.h 0 8;
  ctx.block_len <- 0;
  ctx.total_len <- m.m_len

(* One-shot digests reuse a per-domain scratch context: most hashes in the
   repository are over kappa-sized inputs (one or two blocks), where
   allocating a fresh ctx per call would otherwise show. Domain-local
   storage keeps this safe under parallel execution; [finish] leaves no
   residual state that [start] does not clear. *)
let scratch = Domain.DLS.new_key init

let digest_list_from m parts =
  let ctx = Domain.DLS.get scratch in
  start ctx m;
  List.iter (fun p -> feed ctx p 0 (Bytes.length p)) parts;
  finish ctx

let digest_list parts = digest_list_from iv parts

let digest data = digest_list [ data ]

(* Reading only, so viewing the string as bytes without a copy is safe. *)
let digest_string s = digest (Bytes.unsafe_of_string s)

let midstate_of_block b =
  if Bytes.length b <> 64 then invalid_arg "Sha256.midstate_of_block: size";
  let ctx = Domain.DLS.get scratch in
  start ctx iv;
  compress ctx b 0;
  { m_h = Array.copy ctx.h; m_len = 64 }

(* --- Batched one-block kernels (the WOTS chains and chain starts) ---

   Each call is one C loop over padded blocks built here once. The checks
   and the counter stay on this side: a call bumps [sha256.compress] once
   per compression it runs. *)

let max_short = 55
let slot = 16

(* [msg] (at most [max_short] bytes) padded into one block, for a message
   of [bytes_before + |msg|] bytes. *)
let padded_block ~bytes_before msg =
  let len = Bytes.length msg in
  let b = Bytes.make 64 '\000' in
  Bytes.blit msg 0 b 0 len;
  Bytes.set b len '\x80';
  Bytes.set_uint16_be b 62 ((bytes_before + len) * 8);
  b

(* [words] holds words 0..8 and 15 of every block, word-major, as native
   integers: block [c * depth + d]'s word [planes.(p)] at index
   [p * chains * depth + c * depth + d]. The 16-lane kernel gathers them
   from there; words 9..14 of a template are always zero. *)
type chain_templates = { blocks : bytes; words : bytes; chains : int; depth : int }

let planes = [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 15 |]

let word_planes blocks cells =
  let w = Bytes.create (4 * Array.length planes * cells) in
  Array.iteri
    (fun p k ->
      for cell = 0 to cells - 1 do
        Bytes.set_int32_ne w
          (4 * ((p * cells) + cell))
          (Bytes.get_int32_be blocks ((64 * cell) + (4 * k)))
      done)
    planes;
  w

let chain_templates prefixes =
  let chains = Array.length prefixes in
  let depth = if chains = 0 then 0 else Array.length prefixes.(0) in
  let block c d =
    let p = prefixes.(c).(d) in
    if Bytes.length p > slot then invalid_arg "Sha256.chain_templates: prefix";
    padded_block ~bytes_before:0 (Bytes.cat p (Bytes.make slot '\000'))
  in
  Array.iter
    (fun row ->
      if Array.length row <> depth then invalid_arg "Sha256.chain_templates: depth")
    prefixes;
  let blocks =
    Bytes.concat Bytes.empty
      (List.init (chains * depth) (fun k -> block (k / depth) (k mod depth)))
  in
  { blocks; words = word_planes blocks (chains * depth); chains; depth }

(* The number of steps, after the checks. *)
let walk_chains_with ~kernel t ~from ~upto vals =
  if Bytes.length from <> t.chains || Bytes.length upto <> t.chains
     || Bytes.length vals <> slot * t.chains
  then invalid_arg "Sha256.walk_chains: sizes";
  let steps = ref 0 in
  for i = 0 to t.chains - 1 do
    let lo = Bytes.get_uint8 from i and hi = Bytes.get_uint8 upto i in
    if lo > hi || hi > t.depth then invalid_arg "Sha256.walk_chains: depths";
    steps := !steps + hi - lo
  done;
  walk_chains_stub t.blocks t.words t.depth vals from upto kernel;
  !steps

let walk_chains t ~from ~upto vals =
  let steps = walk_chains_with ~kernel:k_selected t ~from ~upto vals in
  Repro_obs.Counters.add c_compress steps;
  steps

type tails = bytes (* 64 bytes per message *)

(* Each message is written into its zeroed block in place; the padding
   follows it as in [padded_block ~bytes_before:64]. *)
let tails_init count fill =
  let b = Bytes.make (64 * count) '\000' in
  for k = 0 to count - 1 do
    let pos = 64 * k in
    let len = fill k b pos in
    if len < 0 || len > max_short then invalid_arg "Sha256.tails_init: message";
    Bytes.set b (pos + len) '\x80';
    Bytes.set_uint16_be b (pos + 62) ((64 + len) * 8)
  done;
  b

let tails msgs =
  tails_init (Array.length msgs) (fun k dst pos ->
      let m = msgs.(k) in
      let len = Bytes.length m in
      if len > max_short then invalid_arg "Sha256.tails: message";
      Bytes.blit m 0 dst pos len;
      len)

(* The number of messages, after the checks. *)
let nested_with ~kernel ~inner ~outer tails dst =
  let n = Bytes.length tails / 64 in
  if inner.m_len <> 64 || outer.m_len <> 64 then
    invalid_arg "Sha256.nested_into: midstates";
  if Bytes.length dst <> slot * n then invalid_arg "Sha256.nested_into: output";
  nested_stub inner.m_h outer.m_h tails dst kernel;
  n

let nested_into ~inner ~outer tails dst =
  Repro_obs.Counters.add c_compress
    (2 * nested_with ~kernel:k_selected ~inner ~outer tails dst)

module Kernel = struct
  let name = if has_sha_ni then "sha-ni" else "portable"
  let avx512_min_lanes = zmm_min_lanes ()

  type t = {
    compress : int array -> bytes -> int -> unit;
    walk_chains : chain_templates -> from:bytes -> upto:bytes -> bytes -> unit;
    nested_into : inner:midstate -> outer:midstate -> tails -> bytes -> unit;
  }

  let checked f h b off =
    if Array.length h <> 8 || off < 0 || off > Bytes.length b - 64 then
      invalid_arg "Sha256.Kernel: state or block out of range";
    f h b off

  let make ~kernel compress =
    {
      compress = checked compress;
      walk_chains =
        (fun t ~from ~upto vals -> ignore (walk_chains_with ~kernel t ~from ~upto vals));
      nested_into =
        (fun ~inner ~outer tails dst -> ignore (nested_with ~kernel ~inner ~outer tails dst));
    }

  let portable = make ~kernel:k_portable compress_portable
  let sha_ni = if has_sha_ni then Some (make ~kernel:k_sha_ni compress_sha_ni) else None
  let avx512 = if has_avx512 then Some (make ~kernel:k_avx512 compress_avx512) else None
end

let hex = Repro_obs.Hex.encode_bytes
