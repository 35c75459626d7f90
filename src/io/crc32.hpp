// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-chunk
// integrity check of the CTJS container format and the serve layer's state
// and reward-stream digests. Computed slicing-by-8 (eight table lookups per
// eight input bytes); the value is the standard one, whatever the host.
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
