// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-chunk
// integrity check of the CTJS container format and the serve layer's state
// and reward-stream digests. The value is the standard one, whatever the
// host; only the speed differs:
//
// - On x86 hosts with PCLMULQDQ (checked once at run time, so a portable
//   -DCTJ_NATIVE=OFF build takes the fast path too), each run of 64 or more
//   bytes is folded four 128-bit lanes at a time with carry-less multiplies
//   (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//   PCLMULQDQ Instruction", Intel, 2009), then Barrett-reduced to 32 bits.
//   A 2.4 MB serialized Q table takes ~0.14 ms instead of ~1.5 ms
//   (4-vCPU AVX-512 Xeon).
// - The remaining tail (under 16 bytes), short inputs and other hosts use
//   slicing-by-8: eight table lookups per eight input bytes.
//
// io/crc32_detail.hpp exposes both paths so the tests can compare them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ctj::io {

/// Incremental CRC-32: feed `crc` from a previous call (or 0 to start).
std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size);

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32(const void* data, std::size_t size) {
  return crc32_update(0, data, size);
}

inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(bytes.data(), bytes.size());
}

}  // namespace ctj::io
