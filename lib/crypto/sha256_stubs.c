/* SHA-256 compression (FIPS 180-4) for Sha256.

   Three kernels:
   - the x86 SHA extensions (sha256rnds2 / sha256msg1 / sha256msg2), one
     block at a time;
   - 16 lanes of AVX-512F, sixteen independent blocks per instruction;
   - a portable C loop, everywhere.
   All compute the same function; the test suite checks each against the
   portable one and the portable one against the NIST vectors.

   The entry points are one compression, and two batched loops of one-block
   compressions: the WOTS hash chain walks and their HMAC chain starts. A
   single compression runs the SHA extensions if the CPU reports them and
   the portable loop otherwise. The two batched loops run on the 16-lane
   kernel if the CPU reports AVX512F and the OS saves the zmm state (XGETBV);
   the last few chains or tails, too few to fill the lanes, go to the
   single-block kernel. Without AVX-512 they run on the single-block kernel
   alone. The 16-lane kernel serves only these two loops.

   The kernels are chosen once, by [repro_sha256_select] at library
   initialisation (before any domain can be spawned), and stored in statics
   that are never written again. Every other piece of state lives on the C
   stack or in the caller's OCaml values, so the stubs are safe to call from
   several domains at once. The stubs allocate nothing and raise nothing:
   bounds are checked on the OCaml side, and so is the compression counter. */

#include <stdint.h>
#include <string.h>

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static const uint32_t IV[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
};

/* --- Portable kernel --- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

/* One round, written for renamed rather than shifted registers: the caller
   rotates the argument list, so only [d] and [h] are assigned. */
#define ROUND(a, b, c, d, e, f, g, h, i)                                   \
  do {                                                                     \
    uint32_t t1_ = (h) + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))          \
                   + ((g) ^ ((e) & ((f) ^ (g)))) + K[i] + w[i];            \
    (d) += t1_;                                                            \
    (h) = t1_ + (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))                   \
          + (((a) & (b)) | ((c) & ((a) | (b))));                           \
  } while (0)

static void compress_portable(uint32_t st[8], const unsigned char *p)
{
  uint32_t w[64];
  int i;
  for (i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
  for (i = 16; i < 64; i++) {
    uint32_t x15 = w[i - 15], x2 = w[i - 2];
    uint32_t s0 = ROTR(x15, 7) ^ ROTR(x15, 18) ^ (x15 >> 3);
    uint32_t s1 = ROTR(x2, 17) ^ ROTR(x2, 19) ^ (x2 >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
  uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
  for (i = 0; i < 64; i += 8) {
    ROUND(a, b, c, d, e, f, g, h, i);
    ROUND(h, a, b, c, d, e, f, g, i + 1);
    ROUND(g, h, a, b, c, d, e, f, i + 2);
    ROUND(f, g, h, a, b, c, d, e, i + 3);
    ROUND(e, f, g, h, a, b, c, d, i + 4);
    ROUND(d, e, f, g, h, a, b, c, i + 5);
    ROUND(c, d, e, f, g, h, a, b, i + 6);
    ROUND(b, c, d, e, f, g, h, a, i + 7);
  }
  st[0] += a; st[1] += b; st[2] += c; st[3] += d;
  st[4] += e; st[5] += f; st[6] += g; st[7] += h;
}

/* --- SHA extensions kernel (x86-64 only) --- */

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_SHA_NI_KERNEL 1
#include <cpuid.h>
#include <immintrin.h>

/* Four rounds: [w] holds W[4i..4i+3]; sha256rnds2 does two rounds from the
   low half of its message operand. */
#define QROUND(w, i)                                                       \
  do {                                                                     \
    __m128i m_ = _mm_add_epi32((w), _mm_loadu_si128((const __m128i *)&K[4 * (i)])); \
    s1 = _mm_sha256rnds2_epu32(s1, s0, m_);                                \
    m_ = _mm_shuffle_epi32(m_, 0x0E);                                      \
    s0 = _mm_sha256rnds2_epu32(s0, s1, m_);                                \
  } while (0)

/* W[j..j+3] from the four previous quads, oldest first, into [w0]. */
#define SCHED(w0, w1, w2, w3)                                              \
  (w0) = _mm_sha256msg2_epu32(                                             \
      _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)),                      \
                    _mm_alignr_epi8((w3), (w2), 4)),                       \
      (w3))

#define SHA_NI __attribute__((target("sha,sse4.1")))
#define SHA_NI_INLINE static inline __attribute__((always_inline)) SHA_NI

/* Big-endian 32-bit words from bytes, within each 16-byte lane. */
#define BSWAP32 _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL)

/* The state as the rounds instruction wants it: ABEF / CDGH. */
SHA_NI_INLINE void ni_load(const uint32_t st[8], __m128i *abef, __m128i *cdgh)
{
  __m128i t = _mm_loadu_si128((const __m128i *)&st[0]);   /* DCBA */
  __m128i s1 = _mm_loadu_si128((const __m128i *)&st[4]);  /* HGFE */
  t = _mm_shuffle_epi32(t, 0xB1);                          /* CDAB */
  s1 = _mm_shuffle_epi32(s1, 0x1B);                        /* EFGH */
  *abef = _mm_alignr_epi8(t, s1, 8);                       /* ABEF */
  *cdgh = _mm_blend_epi16(s1, t, 0xF0);                    /* CDGH */
}

/* Back to word order: lane 0 of [dcba] is A, lane 0 of [hgfe] is E. */
SHA_NI_INLINE void ni_words(__m128i abef, __m128i cdgh, __m128i *dcba,
                            __m128i *hgfe)
{
  __m128i t = _mm_shuffle_epi32(abef, 0x1B);               /* FEBA */
  __m128i s = _mm_shuffle_epi32(cdgh, 0xB1);               /* DCHG */
  *dcba = _mm_blend_epi16(t, s, 0xF0);
  *hgfe = _mm_alignr_epi8(s, t, 8);
}

/* The 64 rounds over the message words W[0..15] (lane j of [wk] is
   W[4k + j]), added into the ABEF / CDGH state. */
SHA_NI_INLINE void ni_rounds(__m128i *abef, __m128i *cdgh, __m128i w0,
                             __m128i w1, __m128i w2, __m128i w3)
{
  __m128i s0 = *abef, s1 = *cdgh;
  QROUND(w0, 0);
  QROUND(w1, 1);
  QROUND(w2, 2);
  QROUND(w3, 3);
  for (int i = 4; i < 16; i += 4) {
    SCHED(w0, w1, w2, w3);
    QROUND(w0, i);
    SCHED(w1, w2, w3, w0);
    QROUND(w1, i + 1);
    SCHED(w2, w3, w0, w1);
    QROUND(w2, i + 2);
    SCHED(w3, w0, w1, w2);
    QROUND(w3, i + 3);
  }
  *abef = _mm_add_epi32(s0, *abef);
  *cdgh = _mm_add_epi32(s1, *cdgh);
}

#define LOAD_BE(p) \
  _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p)), BSWAP32)

SHA_NI static void compress_sha_ni(uint32_t st[8], const unsigned char *p)
{
  __m128i abef, cdgh, dcba, hgfe;
  ni_load(st, &abef, &cdgh);
  ni_rounds(&abef, &cdgh, LOAD_BE(p), LOAD_BE(p + 16), LOAD_BE(p + 32),
            LOAD_BE(p + 48));
  ni_words(abef, cdgh, &dcba, &hgfe);
  _mm_storeu_si128((__m128i *)&st[0], dcba);
  _mm_storeu_si128((__m128i *)&st[4], hgfe);
}

/* CPUID: leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3), 19 (SSE4.1). */
static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & (1u << 29)) != 0;
}
#endif

/* --- 16-lane AVX-512F kernel (x86-64 only) ---

   Lane l of every vector belongs to message l: a state word, a message
   word, a chain value word. AVX512F alone suffices: rotates (vprord),
   three-input logic (vpternlogd), per-lane shifts, masked gathers and
   scatters. */

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_ZMM_KERNEL 1

#define ZMM __attribute__((target("avx512f")))
#define ZMM_INLINE static inline __attribute__((always_inline)) ZMM

typedef __m512i zv;

#define ZADD _mm512_add_epi32
#define ZROR _mm512_ror_epi32
#define ZSET _mm512_set1_epi32
#define ZXOR3(a, b, c) _mm512_ternarylogic_epi32((a), (b), (c), 0x96)
#define ZCH(e, f, g) _mm512_ternarylogic_epi32((e), (f), (g), 0xCA)
#define ZMAJ(a, b, c) _mm512_ternarylogic_epi32((a), (b), (c), 0xE8)

/* Round [r + j] on message word [w[j]], renamed like [ROUND]. */
#define ZROUND(a, b, c, d, e, f, g, h, j)                                  \
  do {                                                                     \
    zv t1_ = ZADD(ZADD((h), ZXOR3(ZROR((e), 6), ZROR((e), 11), ZROR((e), 25))), \
                  ZADD(ZCH((e), (f), (g)),                                 \
                       ZADD(w[j], ZSET((int)K[r + (j)]))));                \
    (d) = ZADD((d), t1_);                                                  \
    (h) = ZADD(t1_, ZADD(ZXOR3(ZROR((a), 2), ZROR((a), 13), ZROR((a), 22)), \
                         ZMAJ((a), (b), (c))));                            \
  } while (0)

/* W[t] into w[j] (t = j mod 16), over the W[t - 16] it holds. */
#define ZSCHED(j)                                                          \
  do {                                                                     \
    zv x15_ = w[((j) + 1) & 15], x2_ = w[((j) + 14) & 15];                 \
    w[j] = ZADD(ZADD(w[j], w[((j) + 9) & 15]),                             \
                ZADD(ZXOR3(ZROR(x15_, 7), ZROR(x15_, 18),                  \
                           _mm512_srli_epi32(x15_, 3)),                    \
                     ZXOR3(ZROR(x2_, 17), ZROR(x2_, 19),                   \
                           _mm512_srli_epi32(x2_, 10))));                  \
  } while (0)

#define ZROUND8(j)                                                         \
  ZROUND(a, b, c, d, e, f, g, h, (j));                                     \
  ZROUND(h, a, b, c, d, e, f, g, (j) + 1);                                 \
  ZROUND(g, h, a, b, c, d, e, f, (j) + 2);                                 \
  ZROUND(f, g, h, a, b, c, d, e, (j) + 3);                                 \
  ZROUND(e, f, g, h, a, b, c, d, (j) + 4);                                 \
  ZROUND(d, e, f, g, h, a, b, c, (j) + 5);                                 \
  ZROUND(c, d, e, f, g, h, a, b, (j) + 6);                                 \
  ZROUND(b, c, d, e, f, g, h, a, (j) + 7)

/* The 64 rounds of sixteen blocks over their message words [w] (clobbered),
   added into the state [s]. */
ZMM_INLINE void zmm_rounds(zv s[8], zv w[16])
{
  zv a = s[0], b = s[1], c = s[2], d = s[3];
  zv e = s[4], f = s[5], g = s[6], h = s[7];
  for (int r = 0; r < 64; r += 16) {
    if (r > 0) {
      ZSCHED(0); ZSCHED(1); ZSCHED(2); ZSCHED(3);
      ZSCHED(4); ZSCHED(5); ZSCHED(6); ZSCHED(7);
      ZSCHED(8); ZSCHED(9); ZSCHED(10); ZSCHED(11);
      ZSCHED(12); ZSCHED(13); ZSCHED(14); ZSCHED(15);
    }
    ZROUND8(0);
    ZROUND8(8);
  }
  s[0] = ZADD(s[0], a); s[1] = ZADD(s[1], b);
  s[2] = ZADD(s[2], c); s[3] = ZADD(s[3], d);
  s[4] = ZADD(s[4], e); s[5] = ZADD(s[5], f);
  s[6] = ZADD(s[6], g); s[7] = ZADD(s[7], h);
}

/* Big-endian words from little-endian loads and back: bytes 0 and 2 of
   the right rotation, 1 and 3 of the left one. */
ZMM_INLINE zv zmm_bswap(zv x)
{
  return _mm512_ternarylogic_epi32(ZROR(x, 8), _mm512_rol_epi32(x, 8),
                                   ZSET((int)0xFF00FF00u), 0xE4);
}

ZMM_INLINE void zmm_broadcast(zv s[8], const uint32_t st[8])
{
  for (int i = 0; i < 8; i++) s[i] = ZSET((int)st[i]);
}

/* One block on all sixteen lanes; lane 0 is the result. For the tests and
   probes: the batched loops below are what the kernel is for. */
ZMM static void compress_zmm(uint32_t st[8], const unsigned char *p)
{
  zv s[8], w[16];
  zmm_broadcast(s, st);
  for (int k = 0; k < 16; k++) w[k] = ZSET((int)load_be32(p + 4 * k));
  zmm_rounds(s, w);
  for (int i = 0; i < 8; i++)
    st[i] = (uint32_t)_mm_cvtsi128_si32(_mm512_castsi512_si128(s[i]));
}

/* CPUID leaf 1 ECX bit 27 (OSXSAVE), then XCR0 bits 1, 2, 5, 6 and 7 (the
   OS saves the SSE, AVX, opmask and both zmm halves), then leaf 7 EBX bit
   16 (AVX512F). */
static int cpu_has_avx512f(void)
{
  unsigned int a, b, c, d, lo, hi;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & (1u << 27))) return 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  (void)hi;
  if ((lo & 0xE6) != 0xE6) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & (1u << 16)) != 0;
}
#endif

/* Written once by [repro_sha256_select], read-only afterwards. */
static int use_sha_ni = 0;
static int use_zmm = 0;

static inline void compress(uint32_t st[8], const unsigned char *p)
{
#ifdef HAVE_SHA_NI_KERNEL
  if (use_sha_ni) {
    compress_sha_ni(st, p);
    return;
  }
#endif
  compress_portable(st, p);
}

/* Bit 0: the SHA extensions run here; bit 1: the 16-lane kernel does. */
CAMLprim value repro_sha256_select(value unit)
{
  (void)unit;
#ifdef HAVE_SHA_NI_KERNEL
  use_sha_ni = cpu_has_sha_ni();
#endif
#ifdef HAVE_ZMM_KERNEL
  use_zmm = cpu_has_avx512f();
#endif
  return Val_int(use_sha_ni | (use_zmm << 1));
}

/* --- OCaml entry points --- */

/* The chaining state is an OCaml int array of 8 words, each < 2^32. Its
   fields are immediates, so plain stores need no write barrier. */
static inline void load_state(value h, uint32_t st[8])
{
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
}

static inline void store_state(value h, const uint32_t st[8])
{
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
}

#define DEFINE_COMPRESS(name, kernel)                                      \
  CAMLprim value name(value h, value b, intnat off)                        \
  {                                                                        \
    uint32_t st[8];                                                        \
    load_state(h, st);                                                     \
    kernel(st, Bytes_val(b) + off);                                        \
    store_state(h, st);                                                    \
    return Val_unit;                                                       \
  }                                                                        \
  CAMLprim value name##_byte(value h, value b, value off)                  \
  {                                                                        \
    return name(h, b, Long_val(off));                                      \
  }

DEFINE_COMPRESS(repro_sha256_compress, compress)
DEFINE_COMPRESS(repro_sha256_compress_portable, compress_portable)

/* The hardware kernels are never called unless [select] said they run. */
#ifdef HAVE_SHA_NI_KERNEL
DEFINE_COMPRESS(repro_sha256_compress_sha_ni, compress_sha_ni)
#else
DEFINE_COMPRESS(repro_sha256_compress_sha_ni, compress_portable)
#endif
#ifdef HAVE_ZMM_KERNEL
DEFINE_COMPRESS(repro_sha256_compress_zmm, compress_zmm)
#else
DEFINE_COMPRESS(repro_sha256_compress_zmm, compress_portable)
#endif

/* --- Batched one-block kernels (WOTS) ---

   Two calls, each a loop of one-block compressions whose blocks are never
   assembled byte by byte: they start from padded 64-byte blocks the OCaml
   side built once, so no load of a block waits on a run of narrow stores.

   A chain template is one padded block whose message is a prefix of at most
   16 bytes and then a zeroed 16-byte slot; its bit length, in bytes 62..63,
   tells where the slot starts. A chain step writes the chain value into the
   slot, compresses from the IV and takes the first 16 digest bytes as the
   next value. A tail is the padded last block of a message that follows one
   64-byte block (an HMAC key pad).

   The OCaml side names the kernel of a call: */
enum {
  KERNEL_PORTABLE,
  KERNEL_SHA_NI,
  KERNEL_SELECTED, /* 16 lanes where they pay, else the single-block one */
  KERNEL_ZMM       /* 16 lanes for every chain and tail */
};

static inline long slot_offset(const unsigned char *t)
{
  return (long)((((unsigned)t[62] << 8) | t[63]) >> 3) - 16;
}

static inline void store_be32(unsigned char *p, uint32_t x)
{
  p[0] = (unsigned char)(x >> 24);
  p[1] = (unsigned char)(x >> 16);
  p[2] = (unsigned char)(x >> 8);
  p[3] = (unsigned char)x;
}

/* One chain: its 16-byte value [v] goes from depth [from] to [upto], and
   step [d] compresses block [d] of the chain's template row [row]. */
typedef void walk_one_fn(const unsigned char *row, unsigned char *v,
                         long from, long upto);

/* For each of [n] tails: the first 16 bytes of the digest from the [outer]
   midstate of the 32-byte digest from the [inner] midstate of the tail's
   message, into [dst + 16 k]. */
typedef void nested_fn(const uint32_t inner[8], const uint32_t outer[8],
                       const unsigned char *tails, long n, unsigned char *dst);

static void walk_one_portable(const unsigned char *row, unsigned char *v,
                              long from, long upto)
{
  unsigned char block[64];
  uint32_t st[8];
  for (long d = from; d < upto; d++) {
    const unsigned char *t = row + 64 * d;
    memcpy(block, t, 64);
    memcpy(block + slot_offset(t), v, 16);
    memcpy(st, IV, sizeof st);
    compress_portable(st, block);
    for (int j = 0; j < 4; j++) store_be32(v + 4 * j, st[j]);
  }
}

static void nested_portable(const uint32_t inner[8], const uint32_t outer[8],
                            const unsigned char *tails, long n,
                            unsigned char *dst)
{
  unsigned char block[64] = { 0 };
  uint32_t st[8];
  block[32] = 0x80;
  block[62] = (unsigned char)((96 * 8) >> 8); /* 64 + 32 bytes */
  for (long k = 0; k < n; k++) {
    memcpy(st, inner, sizeof st);
    compress_portable(st, tails + 64 * k);
    for (int j = 0; j < 8; j++) store_be32(block + 4 * j, st[j]);
    memcpy(st, outer, sizeof st);
    compress_portable(st, block);
    for (int j = 0; j < 4; j++) store_be32(dst + 16 * k + 4 * j, st[j]);
  }
}

#ifdef HAVE_SHA_NI_KERNEL
/* The same two loops with every block built in registers: the value enters
   the template's lanes through two byte shuffles, whose masks are 16-byte
   windows of [slide] (0x80 zeroes a byte). */
static const unsigned char slide[48] = {
  0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
  0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
  0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
  0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
  0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80
};

SHA_NI static void walk_one_sha_ni(const unsigned char *row, unsigned char *v,
                                   long from, long upto)
{
  __m128i iv_abef, iv_cdgh, dcba, hgfe;
  __m128i x = _mm_loadu_si128((const __m128i *)v);
  ni_load(IV, &iv_abef, &iv_cdgh);
  for (long d = from; d < upto; d++) {
    const unsigned char *t = row + 64 * d;
    const unsigned char *m = slide + 16 - slot_offset(t);
    __m128i b0 = _mm_or_si128(
        _mm_loadu_si128((const __m128i *)t),
        _mm_shuffle_epi8(x, _mm_loadu_si128((const __m128i *)m)));
    __m128i b1 = _mm_or_si128(
        _mm_loadu_si128((const __m128i *)(t + 16)),
        _mm_shuffle_epi8(x, _mm_loadu_si128((const __m128i *)(m + 16))));
    __m128i abef = iv_abef, cdgh = iv_cdgh;
    ni_rounds(&abef, &cdgh, _mm_shuffle_epi8(b0, BSWAP32),
              _mm_shuffle_epi8(b1, BSWAP32), LOAD_BE(t + 32),
              LOAD_BE(t + 48));
    ni_words(abef, cdgh, &dcba, &hgfe);
    x = _mm_shuffle_epi8(dcba, BSWAP32);
  }
  _mm_storeu_si128((__m128i *)v, x);
}

SHA_NI static void nested_sha_ni(const uint32_t inner[8],
                                 const uint32_t outer[8],
                                 const unsigned char *tails, long n,
                                 unsigned char *dst)
{
  /* W[8] = 0x80000000 and W[15] = the bit length of 64 + 32 bytes. */
  const __m128i pad_lo = _mm_set_epi32(0, 0, 0, (int)0x80000000u);
  const __m128i pad_hi = _mm_set_epi32(96 * 8, 0, 0, 0);
  __m128i in_abef, in_cdgh, out_abef, out_cdgh, dcba, hgfe;
  ni_load(inner, &in_abef, &in_cdgh);
  ni_load(outer, &out_abef, &out_cdgh);
  for (long k = 0; k < n; k++) {
    const unsigned char *t = tails + 64 * k;
    __m128i abef = in_abef, cdgh = in_cdgh;
    ni_rounds(&abef, &cdgh, LOAD_BE(t), LOAD_BE(t + 16), LOAD_BE(t + 32),
              LOAD_BE(t + 48));
    ni_words(abef, cdgh, &dcba, &hgfe);
    abef = out_abef;
    cdgh = out_cdgh;
    ni_rounds(&abef, &cdgh, dcba, hgfe, pad_lo, pad_hi);
    ni_words(abef, cdgh, &dcba, &hgfe);
    _mm_storeu_si128((__m128i *)(dst + 16 * k), _mm_shuffle_epi8(dcba, BSWAP32));
  }
}
#endif

/* Where the 16-lane kernel pays. A walk keeps all 16 lanes busy while
   chains are left to start, and finishes on the single-block kernel (SHA-NI
   or portable) once fewer than this many chains are still walking; the
   last tails of an HMAC batch go to the 16-lane kernel when at least this
   many are left. Each value is the measured break-even rounded up: one
   16-lane step costs what 7.1-8.4 steps cost on SHA-NI and 1.4 on the
   portable kernel (Xeon with SHA-NI and AVX-512, gcc 12).
   bench/sha_speed.exe prints the value in use and the break-even measured
   on the host it runs on. */
#define ZMM_MIN_LANES_SHA_NI 8
#define ZMM_MIN_LANES_PORTABLE 2

CAMLprim value repro_sha256_zmm_min_lanes(value unit)
{
  (void)unit;
  return Val_int(use_sha_ni ? ZMM_MIN_LANES_SHA_NI : ZMM_MIN_LANES_PORTABLE);
}

#ifdef HAVE_ZMM_KERNEL
/* One step of every lane in [act] of the 16-lane walk. Lane l walks one
   chain, kept transposed in registers: the chain value is words l of
   [v], which go into the next block's message words 0..8 (wherever the slot
   puts them) and come back as the digest's first four state words. The
   lane's template block is cell [cur] (chain * depth + d) of [words], a
   word-major table: plane p < 9 holds word p and plane 9 word 15 of every
   template block (words 9..14 are always zero), as native integers, at
   [p * cells + cell]. The slot offset, read off word 15's bit length, is
   4 q + s bytes: the value's words go in shifted right by 8 s bits (the
   rest of each word shifted left into the next) at words q..q + 4. */
ZMM_INLINE void zmm_walk_step(const uint32_t *words, long cells,
                              __mmask16 act, zv cur, zv v[4])
{
  const zv zero = _mm512_setzero_si512();
  zv w[16], s[8], p[5];
#define ZPLANE(k) \
  _mm512_mask_i32gather_epi32(zero, act, cur, words + (k) * cells, 4)
  w[0] = ZPLANE(0); w[1] = ZPLANE(1); w[2] = ZPLANE(2);
  w[3] = ZPLANE(3); w[4] = ZPLANE(4); w[5] = ZPLANE(5);
  w[6] = ZPLANE(6); w[7] = ZPLANE(7); w[8] = ZPLANE(8);
  w[9] = w[10] = w[11] = w[12] = w[13] = w[14] = zero;
  w[15] = ZPLANE(9);
#undef ZPLANE
  zv off = _mm512_sub_epi32(_mm512_srli_epi32(w[15], 3), ZSET(16));
  zv rs = _mm512_slli_epi32(_mm512_and_si512(off, ZSET(3)), 3);
  zv ls = _mm512_sub_epi32(ZSET(32), rs); /* a shift by 32 gives 0 */
  zv q = _mm512_srli_epi32(off, 2);
  p[0] = _mm512_srlv_epi32(v[0], rs);
  p[1] = _mm512_or_si512(_mm512_sllv_epi32(v[0], ls), _mm512_srlv_epi32(v[1], rs));
  p[2] = _mm512_or_si512(_mm512_sllv_epi32(v[1], ls), _mm512_srlv_epi32(v[2], rs));
  p[3] = _mm512_or_si512(_mm512_sllv_epi32(v[2], ls), _mm512_srlv_epi32(v[3], rs));
  p[4] = _mm512_sllv_epi32(v[3], ls);
#define ZPLACE(qq)                                                          \
  do {                                                                      \
    __mmask16 m_ = _mm512_mask_cmpeq_epi32_mask(act, q, ZSET(qq));          \
    if (m_) {                                                               \
      w[qq] = _mm512_mask_or_epi32(w[qq], m_, w[qq], p[0]);                 \
      w[qq + 1] = _mm512_mask_or_epi32(w[qq + 1], m_, w[qq + 1], p[1]);     \
      w[qq + 2] = _mm512_mask_or_epi32(w[qq + 2], m_, w[qq + 2], p[2]);     \
      w[qq + 3] = _mm512_mask_or_epi32(w[qq + 3], m_, w[qq + 3], p[3]);     \
      w[qq + 4] = _mm512_mask_or_epi32(w[qq + 4], m_, w[qq + 4], p[4]);     \
    }                                                                       \
  } while (0)
  ZPLACE(0); ZPLACE(1); ZPLACE(2); ZPLACE(3); ZPLACE(4);
#undef ZPLACE
  zmm_broadcast(s, IV);
  zmm_rounds(s, w);
  for (int j = 0; j < 4; j++) v[j] = _mm512_mask_mov_epi32(v[j], act, s[j]);
}

/* Chains start longest first, in windows of [ZMM_WINDOW] chains: a lane
   whose chain ends takes the next one, so the 16 lanes stay busy until no
   chain is left to start, and the last few chains, once fewer than
   [min_lanes] are walking, finish on [one]. Each lane's value is gathered
   from [vals] when its chain starts and scattered back when it ends. */
#define ZMM_WINDOW 64

ZMM static void walk_zmm(const unsigned char *tmpl, const uint32_t *words,
                         long depth, unsigned char *vals,
                         const unsigned char *from, const unsigned char *upto,
                         long n, long min_lanes, walk_one_fn *one)
{
  const long cells = n * depth;
  const zv zero = _mm512_setzero_si512();
  int order[ZMM_WINDOW], chain[16];
  uint32_t cur_a[16], end_a[16], val_a[16];
  for (long w0 = 0; w0 < n; w0 += ZMM_WINDOW) {
    int m = n - w0 < ZMM_WINDOW ? (int)(n - w0) : ZMM_WINDOW, started = 0, k = 0;
    for (int i = 0; i < m; i++) {
      int c = (int)(w0 + i), len = upto[c] - from[c], j = i;
      for (; j > 0 && upto[order[j - 1]] - from[order[j - 1]] < len; j--)
        order[j] = order[j - 1];
      order[j] = c;
    }
    while (k < m && upto[order[k]] > from[order[k]]) k++; /* non-empty */
    __mmask16 live = 0;
    zv cur = zero, end = zero, vidx = zero, v[4] = { zero, zero, zero, zero };
    for (;;) {
      __mmask16 fresh = 0;
      for (int l = 0; l < 16 && started < k; l++) {
        if ((live >> l) & 1) continue;
        int c = order[started++];
        chain[l] = c;
        cur_a[l] = (uint32_t)(c * depth + from[c]);
        end_a[l] = (uint32_t)(c * depth + upto[c]);
        val_a[l] = (uint32_t)(4 * c);
        fresh |= (__mmask16)(1u << l);
      }
      if (fresh) {
        cur = _mm512_mask_loadu_epi32(cur, fresh, cur_a);
        end = _mm512_mask_loadu_epi32(end, fresh, end_a);
        vidx = _mm512_mask_loadu_epi32(vidx, fresh, val_a);
        for (int j = 0; j < 4; j++)
          v[j] = _mm512_mask_mov_epi32(
              v[j], fresh,
              zmm_bswap(_mm512_mask_i32gather_epi32(
                  zero, fresh, ZADD(vidx, ZSET(j)), vals, 4)));
        live |= fresh;
      }
      if (!live) break;
      if (started == k && __builtin_popcount(live) < min_lanes) {
        _mm512_storeu_si512(cur_a, cur);
        for (int j = 0; j < 4; j++)
          _mm512_mask_i32scatter_epi32(vals, live, ZADD(vidx, ZSET(j)),
                                       zmm_bswap(v[j]), 4);
        for (int l = 0; l < 16; l++) {
          if (!((live >> l) & 1)) continue;
          int c = chain[l];
          one(tmpl + 64 * c * depth, vals + 16 * c, cur_a[l] - c * depth, upto[c]);
        }
        break;
      }
      zmm_walk_step(words, cells, live, cur, v);
      cur = _mm512_mask_add_epi32(cur, live, cur, ZSET(1));
      __mmask16 done = _mm512_mask_cmpeq_epi32_mask(live, cur, end);
      if (done) {
        for (int j = 0; j < 4; j++)
          _mm512_mask_i32scatter_epi32(vals, done, ZADD(vidx, ZSET(j)),
                                       zmm_bswap(v[j]), 4);
        live &= (__mmask16)~done;
      }
    }
  }
}

/* Sixteen tails (or the first [lanes]) from one pair of midstates: the
   tails' words are gathered transposed, and the inner digest is the outer
   block's first eight words without leaving the registers. */
ZMM static void nested_zmm_pass(const uint32_t inner[8],
                                const uint32_t outer[8],
                                const unsigned char *tails, int lanes,
                                unsigned char *dst)
{
  const __mmask16 live = (__mmask16)((1u << lanes) - 1);
  const zv zero = _mm512_setzero_si512();
  const zv lane = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4,
                                   3, 2, 1, 0);
  const zv tail_idx = _mm512_slli_epi32(lane, 4); /* 16 words per tail */
  zv w[16], s[8];
  for (int k = 0; k < 16; k++)
    w[k] = zmm_bswap(_mm512_mask_i32gather_epi32(
        zero, live, ZADD(tail_idx, ZSET(k)), tails, 4));
  zmm_broadcast(s, inner);
  zmm_rounds(s, w);
  for (int k = 0; k < 8; k++) w[k] = s[k];
  w[8] = ZSET((int)0x80000000u);
  w[9] = w[10] = w[11] = w[12] = w[13] = w[14] = zero;
  w[15] = ZSET(96 * 8); /* 64 + 32 bytes */
  zmm_broadcast(s, outer);
  zmm_rounds(s, w);
  const zv out_idx = _mm512_slli_epi32(lane, 2); /* 4 words per output */
  for (int j = 0; j < 4; j++)
    _mm512_mask_i32scatter_epi32(dst, live, ZADD(out_idx, ZSET(j)),
                                 zmm_bswap(s[j]), 4);
}

static void nested_zmm(const uint32_t inner[8], const uint32_t outer[8],
                       const unsigned char *tails, long n, unsigned char *dst,
                       long min_lanes, nested_fn *one)
{
  long k = 0;
  for (; k + 16 <= n; k += 16)
    nested_zmm_pass(inner, outer, tails + 64 * k, 16, dst + 16 * k);
  if (k == n) return;
  if (n - k >= min_lanes)
    nested_zmm_pass(inner, outer, tails + 64 * k, (int)(n - k), dst + 16 * k);
  else
    one(inner, outer, tails + 64 * k, n - k, dst + 16 * k);
}

static long zmm_min_lanes(long kernel)
{
  if (kernel == KERNEL_ZMM) return 1;
  return use_sha_ni ? ZMM_MIN_LANES_SHA_NI : ZMM_MIN_LANES_PORTABLE;
}
#endif

/* The chain count is [from]'s length; [words] is the word-major copy of
   [tmpl] that the 16-lane kernel reads. */
CAMLprim value repro_sha256_walk_chains(value tmpl, value words, intnat depth,
                                        value vals, value from, value upto,
                                        intnat kernel)
{
  long n = (long)caml_string_length(from);
  const unsigned char *t = Bytes_val(tmpl), *lo = Bytes_val(from),
                      *hi = Bytes_val(upto);
  unsigned char *v = Bytes_val(vals);
  walk_one_fn *one = walk_one_portable;
#ifdef HAVE_SHA_NI_KERNEL
  if (kernel != KERNEL_PORTABLE && use_sha_ni) one = walk_one_sha_ni;
#endif
#ifdef HAVE_ZMM_KERNEL
  if (kernel >= KERNEL_SELECTED && use_zmm) {
    walk_zmm(t, (const uint32_t *)Bytes_val(words), depth, v, lo, hi, n,
             zmm_min_lanes(kernel), one);
    return Val_unit;
  }
#endif
  (void)words;
  (void)kernel;
  for (long i = 0; i < n; i++) one(t + 64 * i * depth, v + 16 * i, lo[i], hi[i]);
  return Val_unit;
}

CAMLprim value repro_sha256_walk_chains_byte(value *argv, int argn)
{
  (void)argn;
  return repro_sha256_walk_chains(argv[0], argv[1], Long_val(argv[2]),
                                  argv[3], argv[4], argv[5],
                                  Long_val(argv[6]));
}

/* The tail count is [tails]' length / 64. */
CAMLprim value repro_sha256_nested(value inner, value outer, value tails,
                                   value dst, intnat kernel)
{
  uint32_t in[8], out[8];
  long n = (long)(caml_string_length(tails) / 64);
  nested_fn *one = nested_portable;
  load_state(inner, in);
  load_state(outer, out);
#ifdef HAVE_SHA_NI_KERNEL
  if (kernel != KERNEL_PORTABLE && use_sha_ni) one = nested_sha_ni;
#endif
#ifdef HAVE_ZMM_KERNEL
  if (kernel >= KERNEL_SELECTED && use_zmm) {
    nested_zmm(in, out, Bytes_val(tails), n, Bytes_val(dst),
               zmm_min_lanes(kernel), one);
    return Val_unit;
  }
#endif
  (void)kernel;
  one(in, out, Bytes_val(tails), n, Bytes_val(dst));
  return Val_unit;
}

CAMLprim value repro_sha256_nested_byte(value inner, value outer, value tails,
                                        value dst, value kernel)
{
  return repro_sha256_nested(inner, outer, tails, dst, Long_val(kernel));
}
