// Little-endian byte-buffer codec for CTJS chunk payloads.
//
// ByteWriter appends primitives to an in-memory buffer; ByteReader decodes
// the same sequence and throws a typed IoError (kBadPayload) the moment a
// read would run past the end — a truncated or corrupted payload can never
// yield silently wrong values. A digest writer (ByteWriter::digest()) takes
// the same calls but folds each append into a running CRC-32 and keeps no
// bytes, so a payload's checksum comes from its one encoder without the
// payload ever being held in memory. Doubles travel as their IEEE-754 bit
// patterns, so serialization is exact: save → load → save is byte-identical
// and restored training state is bit-identical, not merely close.
//
// Arrays of doubles (f64_array / f64_vec) are encoded in bulk: on a
// little-endian host the wire layout is the in-memory layout, so a whole
// array is one append or one memcpy rather than a loop over bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/crc32.hpp"
#include "io/format.hpp"

namespace ctj::io {

inline constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

class ByteWriter {
 public:
  ByteWriter() = default;

  /// A writer that keeps no bytes: every append folds into crc() instead
  /// of the buffer, which stays empty.
  static ByteWriter digest() {
    ByteWriter out;
    out.digest_ = true;
    return out;
  }

  void u8(std::uint8_t v) { append(&v, 1); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t size) { append(data, size); }

  /// Length-prefixed string (u64 byte count + raw bytes).
  void str(std::string_view s) {
    u64(s.size());
    append(s.data(), s.size());
  }

  /// Doubles back to back with no length prefix: the same bytes as calling
  /// f64() on each element.
  void f64_array(std::span<const double> v) {
    if constexpr (kLittleEndianHost) {
      bytes(v.data(), v.size_bytes());
    } else {
      for (double x : v) f64(x);
    }
  }

  /// Length-prefixed vector of doubles.
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    f64_array(v);
  }

  /// Make room for `extra` more bytes, so a large payload of known size is
  /// written into one allocation instead of a regrown one (a no-op for a
  /// digest writer).
  void reserve(std::size_t extra) {
    if (!digest_) buf_.reserve(buf_.size() + extra);
  }

  /// CRC-32 of every byte written so far, in either mode.
  std::uint32_t crc() const { return digest_ ? crc_ : crc32(buf_); }

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void append(const void* data, std::size_t size) {
    if (digest_) {
      crc_ = crc32_update(crc_, data, size);
    } else {
      buf_.append(static_cast<const char*>(data), size);
    }
  }

  template <typename T>
  void put_le(T v) {
    char le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
    append(le, sizeof(T));
  }

  std::string buf_;
  bool digest_ = false;
  std::uint32_t crc_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(next(1)[0]); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(get_le<std::uint32_t>()); }
  double f64() { return std::bit_cast<double>(get_le<std::uint64_t>()); }

  std::string str() {
    const std::uint64_t n = u64();
    const std::string_view s = next(checked_size(n));
    return std::string(s);
  }

  std::vector<double> f64_vec() {
    const std::uint64_t n = u64();
    if (n > remaining() / 8) {
      throw IoError(ErrorKind::kBadPayload,
                    "f64 vector of " + std::to_string(n) +
                        " elements exceeds remaining payload " +
                        std::to_string(remaining()));
    }
    std::vector<double> v(static_cast<std::size_t>(n));
    f64_array(v);
    return v;
  }

  /// Fill `out` with the next out.size() doubles (written by
  /// ByteWriter::f64_array).
  void f64_array(std::span<double> out) {
    if (out.size() > remaining() / 8) {
      throw IoError(ErrorKind::kBadPayload,
                    "f64 array of " + std::to_string(out.size()) +
                        " elements exceeds remaining payload " +
                        std::to_string(remaining()));
    }
    if constexpr (kLittleEndianHost) {
      if (!out.empty()) {
        std::memcpy(out.data(), next(out.size_bytes()).data(),
                    out.size_bytes());
      }
    } else {
      for (double& x : out) x = f64();
    }
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }

  /// Decoders call this after consuming a payload: trailing garbage means
  /// the payload does not have the structure its tag promises.
  void expect_end() const {
    if (!at_end()) {
      throw IoError(ErrorKind::kBadPayload,
                    "trailing bytes after payload (" +
                        std::to_string(remaining()) + " left)");
    }
  }

 private:
  std::string_view next(std::size_t n) {
    if (n > remaining()) {
      throw IoError(ErrorKind::kBadPayload,
                    "payload ends mid-field (wanted " + std::to_string(n) +
                        " bytes, have " + std::to_string(remaining()) + ")");
    }
    const std::string_view s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  /// A length prefix larger than the remaining payload is corruption, not a
  /// request to allocate petabytes.
  std::size_t checked_size(std::uint64_t n) {
    if (n > remaining()) {
      throw IoError(ErrorKind::kBadPayload,
                    "length prefix " + std::to_string(n) +
                        " exceeds remaining payload " +
                        std::to_string(remaining()));
    }
    return static_cast<std::size_t>(n);
  }

  template <typename T>
  T get_le() {
    const std::string_view s = next(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(s[i])) << (8 * i);
    }
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace ctj::io
