(* SHA-256 (FIPS 180-4).

   This is the collision-resistant hash underlying every other primitive in
   the reproduction: WOTS/Merkle signatures, commitments, the PRF/HMAC, and
   the CRH digest chaining inside the SNARK-based SRDS. Tested against the
   NIST example vectors in test/test_crypto.ml.

   The compression function is one C stub (sha256_stubs.c). It runs the x86
   SHA extensions when the CPU reports them and a portable C kernel
   otherwise, chosen once at library initialisation. This file keeps the
   streaming glue, the padding, every bounds check and the compression
   counter. The chaining state is an 8-word [int array] (each word < 2^32)
   inside the [ctx], so contexts are independent and hashing is safe to run
   from multiple domains concurrently. *)

external select_kernel : unit -> bool = "repro_sha256_select" [@@noalloc]

(* Chooses the kernel; must run before any domain is spawned, which module
   initialisation guarantees. *)
let has_sha_ni = select_kernel ()

(* Compress the 64-byte block of [b] at [off] into the 8-word state. No
   bounds checks: the callers below pass complete in-range blocks. *)
external compress_block : int array -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_compress_byte" "repro_sha256_compress"
[@@noalloc]

external short_into :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> bytes -> (int[@untagged]) ->
  (int[@untagged]) -> unit
  = "repro_sha256_short_into_byte" "repro_sha256_short_into"
[@@noalloc]

external compress_portable : int array -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_compress_portable_byte" "repro_sha256_compress_portable"
[@@noalloc]

external compress_sha_ni : int array -> bytes -> (int[@untagged]) -> unit
  = "repro_sha256_compress_sha_ni_byte" "repro_sha256_compress_sha_ni"
[@@noalloc]

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

(* Physical compression-function invocations. Not pool-size independent:
   the digest caches above this module (Hashx, Wots) are domain-local, so
   how many hashes reach the compression function depends on scheduling. *)
let c_compress = Repro_obs.Counters.make ~deterministic:false "sha256.compress"

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

(* The one-block fast path for the hash chains: the message and its padding
   fit one block, which the C stub builds on its own stack and compresses
   once from the IV, with no streaming state and no digest allocation. *)
let max_short = 55

let digest_short_into src off len dst dst_off out_len =
  if len < 0 || len > max_short || off < 0 || off + len > Bytes.length src
  then invalid_arg "Sha256.digest_short_into: input";
  if out_len < 0 || out_len > 32 || dst_off < 0
     || dst_off + out_len > Bytes.length dst
  then invalid_arg "Sha256.digest_short_into: output";
  Repro_obs.Counters.bump c_compress;
  short_into src off len dst dst_off out_len

module Kernel = struct
  let name = if has_sha_ni then "sha-ni" else "portable"

  let checked f h b off =
    if Array.length h <> 8 || off < 0 || off > Bytes.length b - 64 then
      invalid_arg "Sha256.Kernel: state or block out of range";
    f h b off

  let portable = checked compress_portable
  let sha_ni = if has_sha_ni then Some (checked compress_sha_ni) else None
end

let hex_chars = "0123456789abcdef"

let hex d =
  let n = Bytes.length d in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.get d i) in
    Bytes.set out (2 * i) hex_chars.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_chars.[c land 0xF]
  done;
  Bytes.unsafe_to_string out
