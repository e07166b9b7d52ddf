#include "store/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ssdfail::store {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slicing-by-8 (Intel's table-driven method): table[0] is the classic
// byte-at-a-time table; table[k][b] extends a byte b by k additional zero
// bytes.  Eight lookups consume one 8-byte load per step.  This is the
// portable path and the oracle for the folding path below; on hosts with
// PCLMULQDQ it handles only spans under 64 bytes and the last <16 bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    tables[0][i] = c;
  }
  for (std::size_t t = 1; t < 8; ++t)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[t][i] = tables[0][tables[t - 1][i] & 0xFFu] ^ (tables[t - 1][i] >> 8);
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kTables = make_tables();

inline std::uint32_t step_byte(std::uint32_t c, char byte) noexcept {
  return kTables[0][(c ^ static_cast<std::uint8_t>(byte)) & 0xFFu] ^ (c >> 8);
}

/// Advance the inverted CRC state `c` over `n` bytes at `p` by table.
std::uint32_t table_update(std::uint32_t c, const char* p, std::size_t n) noexcept {
  // Align to 8 so the wide loop's memcpy loads are aligned on strict
  // targets; correctness does not depend on alignment.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = step_byte(c, *p++);
    --n;
  }
  // The wide loop folds the running CRC into the low word of the 64-bit
  // load, which is the FIRST four input bytes only on little-endian; other
  // byte orders take the (correct, slower) tail loop for everything.
  while (std::endian::native == std::endian::little && n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= c;
    c = kTables[7][chunk & 0xFFu] ^ kTables[6][(chunk >> 8) & 0xFFu] ^
        kTables[5][(chunk >> 16) & 0xFFu] ^ kTables[4][(chunk >> 24) & 0xFFu] ^
        kTables[3][(chunk >> 32) & 0xFFu] ^ kTables[2][(chunk >> 40) & 0xFFu] ^
        kTables[1][(chunk >> 48) & 0xFFu] ^ kTables[0][(chunk >> 56) & 0xFFu];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    c = step_byte(c, *p++);
    --n;
  }
  return c;
}

#if defined(__x86_64__)

inline __m128i load16(const char* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Fold lane `x` forward by the distance `k` encodes, onto the next 16
/// bytes `next`.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(__m128i x, __m128i k,
                                                               __m128i next) noexcept {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
      next);
}

/// Advance the inverted CRC state `c` over `n` bytes at `p` by
/// carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
/// bit-reflected domain of kPoly.  Four lanes fold 64 bytes per step, then
/// fold into one lane, which folds 16 bytes per step over the rest; a
/// Barrett reduction leaves the 32-bit remainder.  `n` is a multiple of 16
/// and at least 64.  The constants are the paper's, reflected: k1/k2 move a
/// lane forward by 512 bits, k3/k4 by 128 bits, k5 reduces 64 bits to 32,
/// and mu = floor(x^64 / P) with P drives the reduction.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_update(
    std::uint32_t c, const char* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i mu_poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32 + 32 ready for the reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Whether this host runs fold_update (checked once per process).
bool has_pclmul() noexcept {
  static const bool supported =
      __builtin_cpu_supports("pclmul") != 0 && __builtin_cpu_supports("sse4.1") != 0;
  return supported;
}

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32(std::uint32_t crc, std::span<const char> bytes) noexcept {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
#if defined(__x86_64__)
  if (n >= 64 && has_pclmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = fold_update(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return table_update(c, p, n) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t crc32_table(std::uint32_t crc, std::span<const char> bytes) noexcept {
  return table_update(crc ^ 0xFFFFFFFFu, bytes.data(), bytes.size()) ^ 0xFFFFFFFFu;
}

}  // namespace detail
}  // namespace ssdfail::store
