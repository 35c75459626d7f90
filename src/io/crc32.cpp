#include "io/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "io/crc32_detail.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define CTJ_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace ctj::io {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: tables[0] is the classic bytewise table; tables[k][i]
// is the CRC of byte i followed by k zero bytes, so eight table lookups
// advance the CRC over eight input bytes at once.
constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

/// The next four input bytes as a little-endian word, whatever the host.
std::uint32_t load_le32(const unsigned char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }
}

/// Advance the register (the complemented CRC) over `size` bytes.
std::uint32_t slice8(std::uint32_t reg, const unsigned char* bytes,
                     std::size_t size) {
  const auto& t = kTables;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = load_le32(bytes) ^ reg;
    const std::uint32_t hi = load_le32(bytes + 4);
    reg = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    reg = t[0][(reg ^ *bytes) & 0xFFu] ^ (reg >> 8);
  }
  return reg;
}

#ifdef CTJ_CRC32_CLMUL

/// One fold step: carry `acc` forward by the distance whose constants `k`
/// holds (low qword for acc's low half, high qword for its high half) and
/// add the 128 input bits that sit there.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(
    __m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Advance the register over `size` bytes, size ≥ 64 and a multiple of 16.
/// Constants are the bit-reflected ones for polynomial 0x04C11DB7 from the
/// Intel paper: k1/k2 fold across four lanes (x^(4·128±32) mod P), k3/k4
/// across one lane, k5 folds 96 bits to 64, and P'/μ drive the Barrett
/// reduction to 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_fold(
    std::uint32_t reg, const unsigned char* p, std::size_t size) {
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = fold(x0, k3k4, load(p));

  // 128 → 64 bits: multiply the low qword by k4 into the high one.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 → 32 bits (carried in the upper half) with k5.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // CTJ_CRC32_CLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_slicing(std::uint32_t crc, const void* data,
                            std::size_t size) {
  return ~slice8(~crc, static_cast<const unsigned char*>(data), size);
}

std::uint32_t crc32_clmul(std::uint32_t crc, const void* data,
                          std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t reg = ~crc;
#ifdef CTJ_CRC32_CLMUL
  if (size >= 64) {
    const std::size_t run = size & ~static_cast<std::size_t>(15);
    reg = clmul_fold(reg, bytes, run);
    bytes += run;
    size -= run;
  }
#endif
  return ~slice8(reg, bytes, size);
}

bool has_clmul() {
#ifdef CTJ_CRC32_CLMUL
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return yes;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size) {
  return detail::has_clmul() ? detail::crc32_clmul(crc, data, size)
                             : detail::crc32_slicing(crc, data, size);
}

}  // namespace ctj::io
