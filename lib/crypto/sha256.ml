(* SHA-256 (FIPS 180-4), implemented from the specification.

   This is the collision-resistant hash underlying every other primitive in
   the reproduction: WOTS/Merkle signatures, commitments, the PRF/HMAC, and
   the CRH digest chaining inside the SNARK-based SRDS. Tested against the
   NIST example vectors in test/test_crypto.ml.

   The compression loop runs on native [int] arithmetic masked to 32 bits
   (OCaml ints are 63-bit on every platform we target) instead of boxed
   [Int32] values: no allocation per round, immediate arrays for the message
   schedule and chaining state. All mutable working state lives inside the
   [ctx], so contexts are independent and hashing is safe to run from
   multiple domains concurrently. *)

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let mask32 = 0xFFFFFFFF

type ctx = {
  h : int array; (* 8 chaining words, each < 2^32 *)
  w : int array; (* 64-entry message schedule, private to this ctx *)
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
  {
    h = Array.copy iv.m_h;
    w = Array.make 64 0;
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
  }

(* The 64 rounds as a tail-recursive walk so the eight working variables
   live in registers instead of heap-allocated refs. Three deliberate
   deviations from a textbook loop, all because the build has no flambda
   and this is the hottest path in the repository:

   - rotations use a doubled operand: for clean x < 2^32, the low 32 bits
     of [(x lor (x lsl 32)) lsr n] equal rotr32(x, n) for 1 <= n <= 30
     (bit 31 of x falls off the 63-bit top, but it only ever lands at doubled
     bit 63, which no shift here reads). One shared doubling then makes each
     of the three rotations in a sigma a single shift, instead of the
     longhand [(x lsr n) lor (x lsl (32-n))] pair per rotation — a helper
     would also be a real call per use without flambda;
   - eight rounds are peeled per recursive call, renaming registers instead
     of shifting them: a' = t1 + t2, e' = d + t1, rest rotate a position;
   - masking to 32 bits is deferred. Only the values that feed rotations
     (each new a and e) are masked; sigma/ch/maj/t1 stay "dirty" above bit
     31, which is sound because every operand is < 2^32 after its own mask
     and native ints are 63-bit: the widest sum here stays under 2^61.
   The message schedule is extended inline: each call first produces
   w[i..i+7] (for i >= 16) and then runs its eight rounds. The extension
   chain only depends on [w], never on the working variables, so the
   out-of-order core executes it in the shadow of the serial a/e chain
   instead of in a separate, latency-exposed pass. The k.(idx) + w.(idx)
   fold sits off the critical chain for the same reason. *)
let rec rounds hh w i a b c d e f g h =
  if i = 64 then begin
    Array.unsafe_set hh 0 ((Array.unsafe_get hh 0 + a) land mask32);
    Array.unsafe_set hh 1 ((Array.unsafe_get hh 1 + b) land mask32);
    Array.unsafe_set hh 2 ((Array.unsafe_get hh 2 + c) land mask32);
    Array.unsafe_set hh 3 ((Array.unsafe_get hh 3 + d) land mask32);
    Array.unsafe_set hh 4 ((Array.unsafe_get hh 4 + e) land mask32);
    Array.unsafe_set hh 5 ((Array.unsafe_get hh 5 + f) land mask32);
    Array.unsafe_set hh 6 ((Array.unsafe_get hh 6 + g) land mask32);
    Array.unsafe_set hh 7 ((Array.unsafe_get hh 7 + h) land mask32)
  end
  else begin
    if i >= 16 then
      for j = i to i + 7 do
        let x15 = Array.unsafe_get w (j - 15) in
        let x2 = Array.unsafe_get w (j - 2) in
        (* doubled-operand rotations, dirty above bit 31 until the mask *)
        let x15d = x15 lor (x15 lsl 32) in
        let s0 = (x15d lsr 7) lxor (x15d lsr 18) lxor (x15 lsr 3) in
        let x2d = x2 lor (x2 lsl 32) in
        let s1 = (x2d lsr 17) lxor (x2d lsr 19) lxor (x2 lsr 10) in
        Array.unsafe_set w j
          ((Array.unsafe_get w (j - 16) + s0 + Array.unsafe_get w (j - 7) + s1)
          land mask32)
      done;
    (* round i: (a..h) -> (a1, a, b, c, e1, e, f, g) *)
    let ex = e lor (e lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = g lxor (e land (f lxor g)) in
    let t1 = (h + (Array.unsafe_get k i + Array.unsafe_get w i)) + (s1 + ch) in
    let ax = a lor (a lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a land b) lor (c land (a lor b)) in
    let a1 = (t1 + (s0 + maj)) land mask32 in
    let e1 = (d + t1) land mask32 in
    (* round i+1 *)
    let ex = e1 lor (e1 lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = f lxor (e1 land (e lxor f)) in
    let t1 = (g + (Array.unsafe_get k (i + 1) + Array.unsafe_get w (i + 1))) + (s1 + ch) in
    let ax = a1 lor (a1 lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a1 land a) lor (b land (a1 lor a)) in
    let a2 = (t1 + (s0 + maj)) land mask32 in
    let e2 = (c + t1) land mask32 in
    (* round i+2 *)
    let ex = e2 lor (e2 lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = e lxor (e2 land (e1 lxor e)) in
    let t1 = (f + (Array.unsafe_get k (i + 2) + Array.unsafe_get w (i + 2))) + (s1 + ch) in
    let ax = a2 lor (a2 lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a2 land a1) lor (a land (a2 lor a1)) in
    let a3 = (t1 + (s0 + maj)) land mask32 in
    let e3 = (b + t1) land mask32 in
    (* round i+3 *)
    let ex = e3 lor (e3 lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = e1 lxor (e3 land (e2 lxor e1)) in
    let t1 = (e + (Array.unsafe_get k (i + 3) + Array.unsafe_get w (i + 3))) + (s1 + ch) in
    let ax = a3 lor (a3 lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a3 land a2) lor (a1 land (a3 lor a2)) in
    let a4 = (t1 + (s0 + maj)) land mask32 in
    let e4 = (a + t1) land mask32 in
    (* round i+4: state is now (a4, a3, a2, a1, e4, e3, e2, e1) *)
    let ex = e4 lor (e4 lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = e2 lxor (e4 land (e3 lxor e2)) in
    let t1 = (e1 + (Array.unsafe_get k (i + 4) + Array.unsafe_get w (i + 4))) + (s1 + ch) in
    let ax = a4 lor (a4 lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a4 land a3) lor (a2 land (a4 lor a3)) in
    let a5 = (t1 + (s0 + maj)) land mask32 in
    let e5 = (a1 + t1) land mask32 in
    (* round i+5 *)
    let ex = e5 lor (e5 lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = e3 lxor (e5 land (e4 lxor e3)) in
    let t1 = (e2 + (Array.unsafe_get k (i + 5) + Array.unsafe_get w (i + 5))) + (s1 + ch) in
    let ax = a5 lor (a5 lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a5 land a4) lor (a3 land (a5 lor a4)) in
    let a6 = (t1 + (s0 + maj)) land mask32 in
    let e6 = (a2 + t1) land mask32 in
    (* round i+6 *)
    let ex = e6 lor (e6 lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = e4 lxor (e6 land (e5 lxor e4)) in
    let t1 = (e3 + (Array.unsafe_get k (i + 6) + Array.unsafe_get w (i + 6))) + (s1 + ch) in
    let ax = a6 lor (a6 lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a6 land a5) lor (a4 land (a6 lor a5)) in
    let a7 = (t1 + (s0 + maj)) land mask32 in
    let e7 = (a3 + t1) land mask32 in
    (* round i+7 *)
    let ex = e7 lor (e7 lsl 32) in
    let s1 = (ex lsr 6) lxor (ex lsr 11) lxor (ex lsr 25) in
    let ch = e5 lxor (e7 land (e6 lxor e5)) in
    let t1 = (e4 + (Array.unsafe_get k (i + 7) + Array.unsafe_get w (i + 7))) + (s1 + ch) in
    let ax = a7 lor (a7 lsl 32) in
    let s0 = (ax lsr 2) lxor (ax lsr 13) lxor (ax lsr 22) in
    let maj = (a7 land a6) lor (a5 land (a7 lor a6)) in
    let a8 = (t1 + (s0 + maj)) land mask32 in
    let e8 = (a4 + t1) land mask32 in
    rounds hh w (i + 8) a8 a7 a6 a5 e8 e7 e6 e5
  end

(* Physical compression-function invocations. Not pool-size independent:
   the digest caches above this module (Hashx, Wots) are domain-local, so
   how many hashes reach the compression loop depends on scheduling. *)
let c_compress = Repro_obs.Counters.make ~deterministic:false "sha256.compress"

(* Compress one 64-byte block read from [b] at [off]; bounds are the
   caller's obligation ([feed] only passes complete in-range blocks). *)
let compress ctx b off =
  Repro_obs.Counters.bump c_compress;
  let w = ctx.w in
  for i = 0 to 15 do
    let o = off + (i * 4) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get b o) lsl 24)
      lor (Char.code (Bytes.unsafe_get b (o + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (o + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get b (o + 3)))
  done;
  let hh = ctx.h in
  rounds hh w 0 (Array.unsafe_get hh 0) (Array.unsafe_get hh 1)
    (Array.unsafe_get hh 2) (Array.unsafe_get hh 3) (Array.unsafe_get hh 4)
    (Array.unsafe_get hh 5) (Array.unsafe_get hh 6) (Array.unsafe_get hh 7)

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

(* Big-endian bytes of the first [len] (<= 32) digest bytes of [h]. *)
let store h dst off len =
  for i = 0 to len - 1 do
    let v = Array.unsafe_get h (i lsr 2) in
    Bytes.unsafe_set dst (off + i)
      (Char.unsafe_chr ((v lsr (24 - ((i land 3) * 8))) land 0xFF))
  done

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
  store ctx.h out 0 32;
  out

let start ctx m =
  Array.blit m.m_h 0 ctx.h 0 8;
  ctx.block_len <- 0;
  ctx.total_len <- m.m_len

(* One-shot digests reuse a per-domain scratch context: most hashes in the
   repository are over kappa-sized inputs (one or two blocks), where the
   ~1.2 KB of per-call ctx allocation would otherwise dominate. Domain-local
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
   fit one block, so the block is built in place — message, 0x80, zeros, and
   a bit length that fits the last two bytes (at most 440) — and compressed
   once from the IV, with no streaming state and no digest allocation. *)
let max_short = 55

let digest_short_into src off len dst dst_off out_len =
  if len < 0 || len > max_short || off < 0 || off + len > Bytes.length src
  then invalid_arg "Sha256.digest_short_into: input";
  if out_len < 0 || out_len > 32 || dst_off < 0
     || dst_off + out_len > Bytes.length dst
  then invalid_arg "Sha256.digest_short_into: output";
  let ctx = Domain.DLS.get scratch in
  let b = ctx.block in
  Bytes.blit src off b 0 len;
  Bytes.unsafe_set b len '\x80';
  Bytes.unsafe_fill b (len + 1) (62 - len - 1) '\000';
  Bytes.unsafe_set b 62 (Char.unsafe_chr ((len * 8) lsr 8));
  Bytes.unsafe_set b 63 (Char.unsafe_chr ((len * 8) land 0xFF));
  start ctx iv;
  compress ctx b 0;
  store ctx.h dst dst_off out_len

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
