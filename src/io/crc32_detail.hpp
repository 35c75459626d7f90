// The two CRC-32 implementations behind io::crc32_update, exposed for the
// parity tests. Both take and return the same values as crc32_update.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ctj::io::detail {

/// Slicing-by-8 over the whole input; runs on every host.
std::uint32_t crc32_slicing(std::uint32_t crc, const void* data,
                            std::size_t size);

/// Carry-less-multiply folding over each run of 64 or more bytes, slicing
/// for the rest. Call it only when has_clmul() is true; in builds for
/// non-x86-64 targets it is the slicing path.
std::uint32_t crc32_clmul(std::uint32_t crc, const void* data,
                          std::size_t size);

/// True when this CPU has PCLMULQDQ and SSE4.1, i.e. crc32_update folds.
bool has_clmul();

}  // namespace ctj::io::detail
