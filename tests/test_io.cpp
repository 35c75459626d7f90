// CTJS container format tests: byte codec, CRC32, chunk round trips, atomic
// writes, and the corruption matrix — every single-byte flip, every
// truncation point, and a bumped version must yield a typed io::IoError,
// never UB or a silently wrong read.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "io/bytes.hpp"
#include "io/container.hpp"
#include "io/crc32.hpp"
#include "io/crc32_detail.hpp"
#include "io/tensors.hpp"

using namespace ctj;
using namespace ctj::io;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

ContainerWriter small_container() {
  ContainerWriter out;
  ByteWriter a;
  a.u64(42);
  a.f64(3.5);
  a.str("hello");
  out.add_chunk(tags::kMeta, a.take());
  ByteWriter b;
  b.f64_vec({1.0, -2.0, 0.25});
  out.add_chunk(tags::kTrainProgress, b.take());
  return out;
}

}  // namespace

TEST(Crc32, KnownVector) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t crc = 0;
  for (char c : data) crc = crc32_update(crc, &c, 1);
  EXPECT_EQ(crc, crc32(data));
  // Two pieces split anywhere, so both pieces cross 8-byte steps at every
  // alignment.
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32(data.data(), split);
    EXPECT_EQ(crc32_update(head, data.data() + split, data.size() - split),
              crc32(data))
        << "split at " << split;
  }
}

TEST(Crc32, SlicingMatchesBitwiseReference) {
  // The CRC consumes eight bytes per step plus a bytewise tail, so sweep
  // every length across several steps at every start alignment.
  const auto bitwise = [](const unsigned char* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return ~crc;
  };
  std::vector<unsigned char> data(96);
  std::uint32_t x = 12345;
  for (unsigned char& c : data) {
    x = x * 1103515245u + 12345u;
    c = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; offset + size <= data.size(); ++size) {
      EXPECT_EQ(crc32(data.data() + offset, size),
                bitwise(data.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Crc32, ClmulFoldMatchesSlicing) {
  if (!io::detail::has_clmul()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ/SSE4.1; only slicing runs";
  }
  // The fold takes each run of 64+ bytes in 16-byte blocks and leaves the
  // rest to slicing, so sweep every length across the 64-byte threshold and
  // many blocks, at every start offset within a block.
  std::vector<unsigned char> data(3 << 20);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (unsigned char& c : data) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<unsigned char>(x >> 56);
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t size = 0; size <= 1100; ++size) {
      const unsigned char* p = data.data() + offset;
      ASSERT_EQ(io::detail::crc32_clmul(0, p, size),
                io::detail::crc32_slicing(0, p, size))
          << "offset " << offset << " size " << size;
    }
  }
  // A running CRC carried in: continue from a non-zero value.
  EXPECT_EQ(io::detail::crc32_clmul(0xDEADBEEFu, data.data() + 3, 777),
            io::detail::crc32_slicing(0xDEADBEEFu, data.data() + 3, 777));
  // A serialized-Q-table-sized buffer.
  const std::uint32_t whole =
      io::detail::crc32_slicing(0, data.data(), data.size());
  EXPECT_EQ(io::detail::crc32_clmul(0, data.data(), data.size()), whole);
  EXPECT_EQ(crc32(data.data(), data.size()), whole);
  // 4 KiB fed through crc32_update in two pieces, split at every 16th
  // byte, so each piece gives the fold a different head and tail.
  const std::uint32_t page = io::detail::crc32_slicing(0, data.data(), 4096);
  for (std::size_t split = 0; split <= 4096; split += 16) {
    const std::uint32_t head = crc32_update(0, data.data(), split);
    ASSERT_EQ(crc32_update(head, data.data() + split, 4096 - split), page)
        << "split at " << split;
  }
}

TEST(Bytes, F64ArrayIsLittleEndianIeee754) {
  // The bulk path must produce exactly the per-element layout: a u64 count,
  // then each double's IEEE-754 bit pattern, least significant byte first.
  ByteWriter w;
  w.f64_vec({1.0, -2.0});
  const unsigned char expected[] = {
      2, 0, 0, 0, 0, 0, 0,    0,     // count
      0, 0, 0, 0, 0, 0, 0xF0, 0x3F,  // 1.0
      0, 0, 0, 0, 0, 0, 0x00, 0xC0,  // -2.0
  };
  ASSERT_EQ(w.buffer().size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(static_cast<unsigned char>(w.buffer()[i]), expected[i])
        << "byte " << i;
  }
  ByteWriter scalar;
  scalar.u64(2);
  scalar.f64(1.0);
  scalar.f64(-2.0);
  EXPECT_EQ(w.buffer(), scalar.buffer());
}

TEST(Bytes, F64ArrayReadIsAllOrNothing) {
  ByteWriter w;
  w.f64(1.5);
  w.f64(2.5);
  ByteReader r(w.buffer());
  std::vector<double> out(3, 9.0);
  try {
    r.f64_array(out);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadPayload);
  }
  EXPECT_EQ(out, (std::vector<double>(3, 9.0)));  // nothing half-written
  out.resize(2);
  r.f64_array(out);
  EXPECT_EQ(out, (std::vector<double>{1.5, 2.5}));
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-7);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.str("chunky");
  w.f64_vec({1.5, 2.5});

  ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(std::signbit(r.f64()), true);  // -0.0 bit pattern preserved
  EXPECT_TRUE(std::isnan(r.f64()));        // NaN survives (bit-exact travel)
  EXPECT_EQ(r.str(), "chunky");
  EXPECT_EQ(r.f64_vec(), (std::vector<double>{1.5, 2.5}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Bytes, DigestWriterCrcsWhatABufferWouldHold) {
  // One call sequence over every writer method, on a buffering writer and
  // on a digest writer: the digest is the CRC-32 of the buffered bytes, and
  // the digest writer holds none of them. The long array crosses the
  // CRC's 64-byte folding threshold between short appends.
  std::vector<double> long_row(300);
  for (std::size_t i = 0; i < long_row.size(); ++i) {
    long_row[i] = std::ldexp(static_cast<double>(i) - 150.0, -3);
  }
  const auto write_all = [&](ByteWriter& w) {
    w.reserve(4096);
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-7);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    const char raw[] = {'\x00', '\xff', 'c', 't', 'j'};
    w.bytes(raw, sizeof(raw));
    w.bytes(raw, 0);
    w.str("chunky");
    w.str("");
    w.f64_array(long_row);
    w.u8(1);
    w.f64_vec(long_row);
    w.f64_vec({});
    w.reserve(16);
    w.u8(2);
  };
  ByteWriter buffered;
  write_all(buffered);
  ByteWriter digest = ByteWriter::digest();
  write_all(digest);
  EXPECT_GT(buffered.buffer().size(), 4800u);
  EXPECT_EQ(digest.crc(), crc32(buffered.buffer()));
  EXPECT_EQ(buffered.crc(), crc32(buffered.buffer()));
  EXPECT_TRUE(digest.buffer().empty());
  EXPECT_TRUE(digest.take().empty());
  EXPECT_EQ(ByteWriter::digest().crc(), crc32(""));
}

TEST(Bytes, OverReadThrowsBadPayload) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.buffer());
  r.u16();
  try {
    r.u32();
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadPayload);
  }
}

TEST(Bytes, TrailingBytesThrow) {
  ByteWriter w;
  w.u64(5);
  w.u8(9);
  ByteReader r(w.buffer());
  r.u64();
  try {
    r.expect_end();
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadPayload);
  }
}

TEST(Bytes, HugeVectorLengthThrowsInsteadOfAllocating) {
  ByteWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max() / 2);  // absurd count
  ByteReader r(w.buffer());
  EXPECT_THROW(r.f64_vec(), IoError);
}

TEST(Container, RoundTripPreservesChunksAndOrder) {
  const std::string bytes = small_container().to_bytes();
  const ContainerReader in = ContainerReader::from_bytes(bytes);
  EXPECT_EQ(in.format_version(), kFormatVersion);
  ASSERT_EQ(in.chunks().size(), 2u);
  EXPECT_EQ(in.chunks()[0].tag, "META");
  EXPECT_EQ(in.chunks()[1].tag, "TRAINPRG");
  ByteReader meta(in.chunk(tags::kMeta));
  EXPECT_EQ(meta.u64(), 42u);
  EXPECT_EQ(meta.f64(), 3.5);
  EXPECT_EQ(meta.str(), "hello");
}

TEST(Container, SaveLoadSaveIsByteIdentical) {
  const std::string first = small_container().to_bytes();
  const ContainerReader in = ContainerReader::from_bytes(first);
  ContainerWriter out;
  for (const ChunkInfo& chunk : in.chunks()) {
    out.add_chunk(chunk.tag, std::string(in.chunk(chunk.tag)));
  }
  EXPECT_EQ(out.to_bytes(), first);
}

TEST(Container, MissingChunkThrows) {
  const std::string bytes = small_container().to_bytes();
  const ContainerReader in = ContainerReader::from_bytes(bytes);
  EXPECT_FALSE(in.has_chunk(tags::kReplay));
  try {
    in.chunk(tags::kReplay);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMissingChunk);
  }
}

TEST(Container, BadMagicThrows) {
  std::string bytes = small_container().to_bytes();
  bytes[0] = 'X';
  try {
    ContainerReader::from_bytes(bytes);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadMagic);
  }
}

TEST(Container, VersionBumpThrowsVersionMismatch) {
  std::string bytes = small_container().to_bytes();
  // Bump format_version (offset 4, u16 LE) and re-stamp the header CRC so
  // only the version check can fire.
  bytes[4] = 2;
  const std::uint32_t crc = crc32(bytes.data(), 20);
  for (int i = 0; i < 4; ++i) {
    bytes[20 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  try {
    ContainerReader::from_bytes(bytes);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kVersionMismatch);
  }
}

TEST(Container, EveryTruncationPointThrows) {
  const std::string bytes = small_container().to_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(ContainerReader::from_bytes(bytes.substr(0, len)), IoError)
        << "silently accepted a file truncated to " << len << " bytes";
  }
}

TEST(Container, EverySingleByteFlipThrows) {
  const std::string bytes = small_container().to_bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (unsigned char flip : {0x01, 0x80}) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      EXPECT_THROW(ContainerReader::from_bytes(corrupt), IoError)
          << "flip of bit in byte " << i << " went undetected";
    }
  }
}

TEST(Container, AppendedTrailingBytesThrow) {
  std::string bytes = small_container().to_bytes();
  bytes.push_back('\0');
  try {
    ContainerReader::from_bytes(bytes);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTruncated);
  }
}

TEST(Container, WriteFileIsAtomicAndLeavesNoTemp) {
  const std::string path = temp_path("ctj_io_atomic.ctjs");
  std::filesystem::remove(path);
  small_container().write_file(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(read_file(path), small_container().to_bytes());
  // from_file sees exactly what from_bytes sees.
  const ContainerReader in = ContainerReader::from_file(path);
  EXPECT_EQ(in.chunks().size(), 2u);
  std::filesystem::remove(path);
}

TEST(Container, WriteToUnwritablePathThrowsAndLeavesTargetAlone) {
  const std::string path = temp_path("ctj_io_noexist_dir") + "/sub/out.ctjs";
  EXPECT_THROW(small_container().write_file(path), IoError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Container, OpenMissingFileThrowsOpenFailed) {
  try {
    ContainerReader::from_file(temp_path("ctj_io_does_not_exist.ctjs"));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kOpenFailed);
  }
}

TEST(Meta, EncodeDecodeRoundTrip) {
  std::map<std::string, std::string> meta;
  meta["format"] = "ctjs";
  meta["simd_level"] = "avx2";
  meta["type"] = "model";
  EXPECT_EQ(decode_meta(encode_meta(meta)), meta);
}

TEST(Tensors, RoundTrip) {
  std::vector<NamedTensor> tensors(2);
  tensors[0] = {"w", 2, 3, {1, 2, 3, 4, 5, 6}};
  tensors[1] = {"b", 1, 3, {0.5, -0.5, 0.0}};
  ByteWriter w;
  write_tensors(w, tensors);
  ByteReader r(w.buffer());
  const auto back = read_tensors(r);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "w");
  EXPECT_EQ(back[0].rows, 2u);
  EXPECT_EQ(back[0].cols, 3u);
  EXPECT_EQ(back[0].data, tensors[0].data);
  EXPECT_EQ(back[1].data, tensors[1].data);
}

TEST(Tensors, ElementCountMismatchThrows) {
  ByteWriter w;
  w.u32(1);
  w.str("w");
  w.u64(2);
  w.u64(2);
  w.u64(3);  // 3 doubles declared for a 2x2 tensor
  w.f64(0);
  w.f64(0);
  w.f64(0);
  ByteReader r(w.buffer());
  try {
    read_tensors(r);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadPayload);
  }
}

TEST(Tensors, HostileCountThrowsInsteadOfAllocating) {
  // The tensor count is read from the payload before anything backs it: a
  // count no remaining bytes could hold must fail as a typed IoError, not
  // reserve hundreds of gigabytes first.
  ByteWriter w;
  w.u32(std::numeric_limits<std::uint32_t>::max());
  w.str("w");
  ByteReader r(w.buffer());
  try {
    read_tensors(r);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kBadPayload);
  }
}

// Satellite regression: non-finite doubles must never leak "nan"/"inf" into
// JSON output. Release builds emit null; debug builds trip a CTJ_CHECK.
TEST(Json, NonFiniteNumbersNeverProduceInvalidJson) {
  JsonValue doc = JsonValue::object();
  doc["bad"] = std::numeric_limits<double>::quiet_NaN();
  doc["worse"] = std::numeric_limits<double>::infinity();
#ifdef NDEBUG
  std::ostringstream os;
  doc.dump(os, 0);
  const std::string text = os.str();
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_NE(text.find("null"), std::string::npos) << text;
#else
  std::ostringstream os;
  EXPECT_THROW(doc.dump(os, 0), CheckFailure);
#endif
}
