#include "common/crc32.hpp"

#include <array>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define ABFTC_CRC32_CLMUL 1
#endif

namespace abftc::common {

namespace {

/// Slice-by-8 tables: t[0] is the classic byte-at-a-time table; t[k][v] is
/// the CRC of byte v followed by k zero bytes, so eight table lookups advance
/// the CRC over eight input bytes at once (Intel's slicing-by-8 scheme).
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kT = make_tables();

inline std::uint32_t load_le32(const std::byte* p) noexcept {
  // Byte-compose so the code is endian-independent; compilers fold this to a
  // single 32-bit load on little-endian targets.
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

#ifdef ABFTC_CRC32_CLMUL

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ", Intel 2009), over the same
/// bit-reflected 0xEDB88320 polynomial as the tables above — so the values
/// are bit-identical to slice-by-8, only faster. `c` is the raw register
/// (pre-/post-inversion stays with the caller); `n` is a multiple of 16 and
/// at least 64. Four 128-bit accumulators each absorb one 16-byte lane of a
/// 64-byte block per round: multiplying a lane's two 64-bit halves by the
/// 64-byte-shift constants (x^k mod P) moves it 64 bytes forward, where it
/// is xor-ed into the next block. The four lanes then fold into one with
/// the 16-byte-shift constants, the remaining 16-byte blocks fold into it,
/// and a 64-bit fold plus a Barrett reduction yield the 32-bit remainder.
/// The constants are the reflected-domain x^k mod P folding constants and
/// the Barrett pair (P, μ = floor(x^64 / P)) of that paper.
#define ABFTC_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

ABFTC_CLMUL_TARGET inline __m128i load128(const std::byte* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: lo(lane)·k_lo ⊕ hi(lane)·k_hi ⊕ next.
ABFTC_CLMUL_TARGET inline __m128i fold128(__m128i lane, __m128i k,
                                          __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

ABFTC_CLMUL_TARGET std::uint32_t crc32_clmul(const std::byte* p,
                                             std::size_t n,
                                             std::uint32_t c) noexcept {
  const __m128i k_fold4 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k_fold1 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k_fold64 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i k_barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold128(x0, k_fold4, load128(p));
    x1 = fold128(x1, k_fold4, load128(p + 16));
    x2 = fold128(x2, k_fold4, load128(p + 32));
    x3 = fold128(x3, k_fold4, load128(p + 48));
  }
  x0 = fold128(x0, k_fold1, x1);
  x0 = fold128(x0, k_fold1, x2);
  x0 = fold128(x0, k_fold1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold128(x0, k_fold1, load128(p));

  // 128 → 96 bits: the low half times x^64, xor-ed into the high half.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x0, 8),
                            _mm_clmulepi64_si128(x0, k_fold1, 0x10));
  // 96 → 64 bits: the low word times x^32.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_fold64,
                                         0x00));
  // Barrett: q = floor(x / P) via μ = floor(x^64 / P), then x ⊕ q·P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k_barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k_barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

bool have_clmul() noexcept {
  static const bool ok =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return ok;
}

#undef ABFTC_CLMUL_TARGET
#endif  // ABFTC_CRC32_CLMUL

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
#ifdef ABFTC_CRC32_CLMUL
  // The carry-less fold takes the 16-byte-aligned body of anything ≥ 64
  // bytes; slice-by-8 finishes the tail (and everything on CPUs without
  // PCLMULQDQ).
  if (n >= 64 && have_clmul()) {
    const std::size_t body = n & ~std::size_t{15};
    c = crc32_clmul(p, body, c);
    p += body;
    n -= body;
  }
#endif
  while (n >= 8) {
    c ^= load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kT[7][c & 0xFFu] ^ kT[6][(c >> 8) & 0xFFu] ^ kT[5][(c >> 16) & 0xFFu] ^
        kT[4][c >> 24] ^ kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
        kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p)
    c = kT[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

namespace {

/// Polynomial arithmetic modulo P in the CRC's bit-reflected domain: bit 31
/// holds the coefficient of x^0, bit 0 that of x^31 (zlib ≥ 1.2.12).
constexpr std::uint32_t kPoly = 0xEDB88320u;

/// a·b mod P: shift-and-add over a's set bits, multiplying b by x per bit.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t m = 1u << 31, p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// kX2n[k] = x^(2^k) mod P. The sequence has period 32 (x^(2^32) ≡ x mod
/// P), so 32 entries cover every exponent.
constexpr std::array<std::uint32_t, 32> make_x2n_table() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
  return t;
}

constexpr auto kX2n = make_x2n_table();

/// x^(n·2^k) mod P: one table multiply per set bit of n.
std::uint32_t x2nmodp(std::uint64_t n, unsigned k) noexcept {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k)
    if ((n & 1) != 0) p = multmodp(kX2n[k & 31], p);
  return p;
}

}  // namespace

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) {
  if (len_b == 0) return crc_a;
  // Appending |B| bytes multiplies A's register by x^(8·|B|) mod P; B's own
  // CRC then adds in (the pre/post inversions cancel across the seam).
  return multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b;
}

}  // namespace abftc::common
