// CTJS container: a versioned, CRC32-checksummed, little-endian chunk file
// (format.hpp documents the byte layout).
//
// ContainerWriter accumulates tagged payloads and writes them atomically —
// the file is first written to `<path>.tmp` and renamed into place only
// after every byte is flushed, so a crash mid-write can never leave a
// half-written checkpoint under the final name (the previous checkpoint, if
// any, survives intact).
//
// ContainerReader slurps and fully validates a file up front: magic,
// version, file size, and every chunk's CRC are checked before any payload
// is handed out, each failure mode with its own IoError kind.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "io/format.hpp"

namespace ctj::io {

class ByteWriter;

class ContainerWriter {
 public:
  /// Append a chunk; tag must be 1..8 ASCII bytes (space padded on disk).
  /// Chunk order is preserved, so identical state yields identical files.
  void add_chunk(std::string_view tag, std::string payload);

  bool has_chunk(std::string_view tag) const;

  /// Serialize the container to a stream.
  void write(std::ostream& os) const;

  /// Serialize to `<path>.tmp`, flush, then rename over `path`.
  void write_file(const std::string& path) const;

  /// The serialized container as a byte string (for tests and diffing).
  std::string to_bytes() const;

  /// CRC-32 of to_bytes(), folded as it is encoded, with no buffer built.
  std::uint32_t crc() const;

 private:
  struct Chunk {
    std::string tag;  // padded to kTagSize
    std::string payload;
  };

  /// Encode the container into `out`: the one encoder behind every output.
  void encode(ByteWriter& out) const;

  std::vector<Chunk> chunks_;
};

struct ChunkInfo {
  std::string tag;          // trailing padding stripped
  std::uint64_t size = 0;   // payload bytes
  std::uint32_t crc32 = 0;  // stored (and verified) tag+payload CRC
  std::uint64_t offset = 0; // payload offset within the file
};

class ContainerReader {
 public:
  /// Parse and fully validate a CTJS byte string (throws IoError).
  static ContainerReader from_bytes(std::string bytes);
  /// Read and validate a CTJS file (throws IoError).
  static ContainerReader from_file(const std::string& path);

  std::uint16_t format_version() const { return version_; }
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }

  bool has_chunk(std::string_view tag) const;
  /// Payload of the chunk with this tag; throws kMissingChunk otherwise.
  std::string_view chunk(std::string_view tag) const;

 private:
  ContainerReader() = default;

  std::string bytes_;
  std::uint16_t version_ = 0;
  std::vector<ChunkInfo> chunks_;
};

/// Pad a tag to the on-disk kTagSize with spaces (validates length/ASCII).
std::string padded_tag(std::string_view tag);

// Key=value metadata codec for the META chunk: one `key=value\n` line per
// entry, keys sorted, values free-form single-line text.
std::string encode_meta(const std::map<std::string, std::string>& meta);
std::map<std::string, std::string> decode_meta(std::string_view payload);

}  // namespace ctj::io
