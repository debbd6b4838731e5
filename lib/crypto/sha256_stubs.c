/* SHA-256 compression (FIPS 180-4) for Sha256.

   Two kernels behind each entry point: the x86 SHA extensions
   (sha256rnds2 / sha256msg1 / sha256msg2) where the CPU reports them, and a
   portable C loop everywhere else. Both compute the same function; the test
   suite checks them against each other and against the NIST vectors. The
   entry points are one compression, and two batched loops of one-block
   compressions for the WOTS hash chains and their HMAC chain starts.

   The kernel is chosen once, by [repro_sha256_select] at library
   initialisation (before any domain can be spawned), and stored in a static
   that is never written again. Every other piece of state lives on the C
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

/* Written once by [repro_sha256_select], read-only afterwards. */
static int use_sha_ni = 0;

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

CAMLprim value repro_sha256_select(value unit)
{
  (void)unit;
#ifdef HAVE_SHA_NI_KERNEL
  use_sha_ni = cpu_has_sha_ni();
#endif
  return Val_bool(use_sha_ni);
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

#ifdef HAVE_SHA_NI_KERNEL
DEFINE_COMPRESS(repro_sha256_compress_sha_ni, compress_sha_ni)
#else
/* Never called: the OCaml side only reaches it when [select] said yes. */
DEFINE_COMPRESS(repro_sha256_compress_sha_ni, compress_portable)
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
   64-byte block (an HMAC key pad). */

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

/* Chain [i]'s 16-byte value [vals + 16 i] goes from depth [from[i]] to
   [upto[i]]: step [d] compresses template [i * depth + d]. */
static void walk_portable(const unsigned char *tmpl, long depth,
                          unsigned char *vals, const unsigned char *from,
                          const unsigned char *upto, long n)
{
  unsigned char block[64];
  uint32_t st[8];
  for (long i = 0; i < n; i++) {
    unsigned char *v = vals + 16 * i;
    for (long d = from[i]; d < upto[i]; d++) {
      const unsigned char *t = tmpl + 64 * (i * depth + d);
      memcpy(block, t, 64);
      memcpy(block + slot_offset(t), v, 16);
      memcpy(st, IV, sizeof st);
      compress_portable(st, block);
      for (int j = 0; j < 4; j++) store_be32(v + 4 * j, st[j]);
    }
  }
}

/* For each tail [k]: the first 16 bytes of the digest from the [outer]
   midstate of the 32-byte digest from the [inner] midstate of the tail's
   message, into [dst + 16 k]. */
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

SHA_NI static void walk_sha_ni(const unsigned char *tmpl, long depth,
                               unsigned char *vals, const unsigned char *from,
                               const unsigned char *upto, long n)
{
  __m128i iv_abef, iv_cdgh, dcba, hgfe;
  ni_load(IV, &iv_abef, &iv_cdgh);
  for (long i = 0; i < n; i++) {
    __m128i v = _mm_loadu_si128((const __m128i *)(vals + 16 * i));
    for (long d = from[i]; d < upto[i]; d++) {
      const unsigned char *t = tmpl + 64 * (i * depth + d);
      const unsigned char *m = slide + 16 - slot_offset(t);
      __m128i b0 = _mm_or_si128(
          _mm_loadu_si128((const __m128i *)t),
          _mm_shuffle_epi8(v, _mm_loadu_si128((const __m128i *)m)));
      __m128i b1 = _mm_or_si128(
          _mm_loadu_si128((const __m128i *)(t + 16)),
          _mm_shuffle_epi8(v, _mm_loadu_si128((const __m128i *)(m + 16))));
      __m128i abef = iv_abef, cdgh = iv_cdgh;
      ni_rounds(&abef, &cdgh, _mm_shuffle_epi8(b0, BSWAP32),
                _mm_shuffle_epi8(b1, BSWAP32), LOAD_BE(t + 32),
                LOAD_BE(t + 48));
      ni_words(abef, cdgh, &dcba, &hgfe);
      v = _mm_shuffle_epi8(dcba, BSWAP32);
    }
    _mm_storeu_si128((__m128i *)(vals + 16 * i), v);
  }
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

/* [sha_ni] asks for the SHA extensions, which run only if the CPU has them.
   The chain count is [from]'s length. */
CAMLprim value repro_sha256_walk_chains(value tmpl, intnat depth, value vals,
                                        value from, value upto, intnat sha_ni)
{
  long n = (long)caml_string_length(from);
#ifdef HAVE_SHA_NI_KERNEL
  if (sha_ni && use_sha_ni) {
    walk_sha_ni(Bytes_val(tmpl), depth, Bytes_val(vals), Bytes_val(from),
                Bytes_val(upto), n);
    return Val_unit;
  }
#endif
  (void)sha_ni;
  walk_portable(Bytes_val(tmpl), depth, Bytes_val(vals), Bytes_val(from),
                Bytes_val(upto), n);
  return Val_unit;
}

CAMLprim value repro_sha256_walk_chains_byte(value *argv, int argn)
{
  (void)argn;
  return repro_sha256_walk_chains(argv[0], Long_val(argv[1]), argv[2],
                                  argv[3], argv[4], Long_val(argv[5]));
}

/* The tail count is [tails]' length / 64. */
CAMLprim value repro_sha256_nested(value inner, value outer, value tails,
                                   value dst, intnat sha_ni)
{
  uint32_t in[8], out[8];
  long n = (long)(caml_string_length(tails) / 64);
  load_state(inner, in);
  load_state(outer, out);
#ifdef HAVE_SHA_NI_KERNEL
  if (sha_ni && use_sha_ni) {
    nested_sha_ni(in, out, Bytes_val(tails), n, Bytes_val(dst));
    return Val_unit;
  }
#endif
  (void)sha_ni;
  nested_portable(in, out, Bytes_val(tails), n, Bytes_val(dst));
  return Val_unit;
}

CAMLprim value repro_sha256_nested_byte(value inner, value outer, value tails,
                                        value dst, value sha_ni)
{
  return repro_sha256_nested(inner, outer, tails, dst, Long_val(sha_ni));
}
