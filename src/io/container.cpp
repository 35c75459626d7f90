#include "io/container.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/bytes.hpp"
#include "io/crc32.hpp"

namespace ctj::io {

const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kOpenFailed: return "open failed";
    case ErrorKind::kWriteFailed: return "write failed";
    case ErrorKind::kBadMagic: return "bad magic";
    case ErrorKind::kVersionMismatch: return "format version mismatch";
    case ErrorKind::kTruncated: return "truncated file";
    case ErrorKind::kCrcMismatch: return "CRC mismatch";
    case ErrorKind::kMissingChunk: return "missing chunk";
    case ErrorKind::kBadPayload: return "bad chunk payload";
    case ErrorKind::kStateMismatch: return "state mismatch";
  }
  return "unknown io error";
}

std::string padded_tag(std::string_view tag) {
  if (tag.empty() || tag.size() > kTagSize) {
    throw IoError(ErrorKind::kBadPayload,
                  "chunk tag must be 1.." + std::to_string(kTagSize) +
                      " bytes, got \"" + std::string(tag) + "\"");
  }
  for (char c : tag) {
    if (static_cast<unsigned char>(c) < 0x20 ||
        static_cast<unsigned char>(c) > 0x7E) {
      throw IoError(ErrorKind::kBadPayload, "chunk tag must be printable ASCII");
    }
  }
  std::string padded(tag);
  padded.resize(kTagSize, ' ');
  return padded;
}

namespace {

std::string strip_tag(std::string_view padded) {
  std::size_t end = padded.size();
  while (end > 0 && padded[end - 1] == ' ') --end;
  return std::string(padded.substr(0, end));
}

}  // namespace

void ContainerWriter::add_chunk(std::string_view tag, std::string payload) {
  Chunk chunk;
  chunk.tag = padded_tag(tag);
  chunk.payload = std::move(payload);
  chunks_.push_back(std::move(chunk));
}

bool ContainerWriter::has_chunk(std::string_view tag) const {
  const std::string padded = padded_tag(tag);
  for (const Chunk& c : chunks_) {
    if (c.tag == padded) return true;
  }
  return false;
}

void ContainerWriter::encode(ByteWriter& out) const {
  std::uint64_t file_size = kHeaderSize;
  for (const Chunk& c : chunks_) {
    file_size += kChunkHeaderSize + c.payload.size();
  }

  // The header's CRC covers the header fields before it, so they are built
  // in a buffer of their own, whatever kind of writer `out` is.
  ByteWriter header;
  header.bytes(kMagic, sizeof(kMagic));
  header.u16(kFormatVersion);
  header.u16(0);  // flags
  header.u32(static_cast<std::uint32_t>(chunks_.size()));
  header.u64(file_size);
  header.u32(header.crc());
  out.bytes(header.buffer().data(), header.buffer().size());

  for (const Chunk& c : chunks_) {
    std::uint32_t crc = crc32(c.tag);
    crc = crc32_update(crc, c.payload.data(), c.payload.size());
    out.bytes(c.tag.data(), c.tag.size());
    out.u64(c.payload.size());
    out.u32(crc);
    out.u32(0);  // reserved
    out.bytes(c.payload.data(), c.payload.size());
  }
}

std::string ContainerWriter::to_bytes() const {
  ByteWriter out;
  encode(out);
  return out.take();
}

std::uint32_t ContainerWriter::crc() const {
  ByteWriter out = ByteWriter::digest();
  encode(out);
  return out.crc();
}

void ContainerWriter::write(std::ostream& os) const {
  const std::string bytes = to_bytes();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void ContainerWriter::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.is_open()) {
      throw IoError(ErrorKind::kOpenFailed, "cannot open " + tmp);
    }
    write(os);
    os.flush();
    if (!os.good()) {
      std::remove(tmp.c_str());
      throw IoError(ErrorKind::kWriteFailed, "short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError(ErrorKind::kWriteFailed,
                  "cannot rename " + tmp + " to " + path);
  }
}

ContainerReader ContainerReader::from_bytes(std::string bytes) {
  ContainerReader reader;
  reader.bytes_ = std::move(bytes);
  const std::string& buf = reader.bytes_;

  if (buf.size() < kHeaderSize) {
    throw IoError(ErrorKind::kTruncated,
                  "file is " + std::to_string(buf.size()) +
                      " bytes, smaller than the " +
                      std::to_string(kHeaderSize) + "-byte header");
  }
  if (std::string_view(buf.data(), 4) != std::string_view(kMagic, 4)) {
    throw IoError(ErrorKind::kBadMagic, "not a CTJS container");
  }

  ByteReader header(std::string_view(buf.data() + 4, kHeaderSize - 4));
  const std::uint16_t version = header.u16();
  header.u16();  // flags (reserved; ignored in v1)
  const std::uint32_t chunk_count = header.u32();
  const std::uint64_t file_size = header.u64();
  const std::uint32_t header_crc = header.u32();

  const std::uint32_t actual_header_crc = crc32(buf.data(), kHeaderSize - 4);
  if (header_crc != actual_header_crc) {
    throw IoError(ErrorKind::kCrcMismatch, "file header CRC");
  }
  if (version != kFormatVersion) {
    throw IoError(ErrorKind::kVersionMismatch,
                  "file is format v" + std::to_string(version) +
                      ", this build reads v" +
                      std::to_string(kFormatVersion));
  }
  if (file_size != buf.size()) {
    throw IoError(ErrorKind::kTruncated,
                  "header promises " + std::to_string(file_size) +
                      " bytes, file has " + std::to_string(buf.size()));
  }

  std::size_t pos = kHeaderSize;
  for (std::uint32_t i = 0; i < chunk_count; ++i) {
    if (buf.size() - pos < kChunkHeaderSize) {
      throw IoError(ErrorKind::kTruncated,
                    "chunk " + std::to_string(i) + " header out of bounds");
    }
    const std::string_view tag(buf.data() + pos, kTagSize);
    ByteReader chunk_header(
        std::string_view(buf.data() + pos + kTagSize, kChunkHeaderSize - kTagSize));
    const std::uint64_t payload_size = chunk_header.u64();
    const std::uint32_t stored_crc = chunk_header.u32();
    const std::uint32_t reserved = chunk_header.u32();
    if (reserved != 0) {
      throw IoError(ErrorKind::kBadPayload,
                    "chunk " + strip_tag(tag) + " reserved field is non-zero");
    }
    pos += kChunkHeaderSize;
    if (payload_size > buf.size() - pos) {
      throw IoError(ErrorKind::kTruncated,
                    "chunk " + strip_tag(tag) + " payload out of bounds");
    }

    std::uint32_t crc = crc32(tag.data(), tag.size());
    crc = crc32_update(crc, buf.data() + pos,
                       static_cast<std::size_t>(payload_size));
    if (crc != stored_crc) {
      throw IoError(ErrorKind::kCrcMismatch, "chunk " + strip_tag(tag));
    }

    ChunkInfo info;
    info.tag = strip_tag(tag);
    info.size = payload_size;
    info.crc32 = stored_crc;
    info.offset = pos;
    reader.chunks_.push_back(std::move(info));
    pos += static_cast<std::size_t>(payload_size);
  }
  if (pos != buf.size()) {
    throw IoError(ErrorKind::kTruncated,
                  "trailing bytes after the last chunk");
  }
  reader.version_ = version;
  return reader;
}

ContainerReader ContainerReader::from_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    throw IoError(ErrorKind::kOpenFailed, "cannot open " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) {
    throw IoError(ErrorKind::kOpenFailed, "cannot read " + path);
  }
  return from_bytes(std::move(buf).str());
}

bool ContainerReader::has_chunk(std::string_view tag) const {
  const std::string wanted = strip_tag(padded_tag(tag));
  for (const ChunkInfo& c : chunks_) {
    if (c.tag == wanted) return true;
  }
  return false;
}

std::string_view ContainerReader::chunk(std::string_view tag) const {
  const std::string wanted = strip_tag(padded_tag(tag));
  for (const ChunkInfo& c : chunks_) {
    if (c.tag == wanted) {
      return std::string_view(bytes_.data() + c.offset,
                              static_cast<std::size_t>(c.size));
    }
  }
  throw IoError(ErrorKind::kMissingChunk, wanted);
}

std::string encode_meta(const std::map<std::string, std::string>& meta) {
  std::string out;
  for (const auto& [key, value] : meta) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

std::map<std::string, std::string> decode_meta(std::string_view payload) {
  std::map<std::string, std::string> meta;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) eol = payload.size();
    const std::string_view line = payload.substr(pos, eol - pos);
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw IoError(ErrorKind::kBadPayload, "META line without '='");
    }
    meta.emplace(std::string(line.substr(0, eq)),
                 std::string(line.substr(eq + 1)));
    pos = eol + 1;
  }
  return meta;
}

}  // namespace ctj::io
