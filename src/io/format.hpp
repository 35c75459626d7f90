// The CTJS checkpoint container format: constants, chunk tags and the typed
// error hierarchy every loader in the persistence subsystem throws.
//
// On-disk layout (all integers little-endian):
//
//   file header (24 bytes)
//     [0]  u8[4]  magic "CTJS"
//     [4]  u16    format_version (currently 1)
//     [6]  u16    flags (0; reserved)
//     [8]  u32    chunk_count
//     [12] u64    file_size — total size of the file in bytes, so a
//                 truncated tail is detected before any chunk is parsed
//     [20] u32    CRC32 of header bytes [0, 20)
//
//   chunk_count × chunk, laid out back to back:
//     [0]  u8[8]  tag — ASCII, space padded (see tags:: below)
//     [8]  u64    payload_size
//     [16] u32    CRC32 over tag (8 bytes) + payload, so a flipped byte in
//                 either the tag or the payload fails verification
//     [20] u32    reserved (0)
//     [24] payload bytes
//
// Chunk order is preserved by the writer, so saving the same state twice
// produces byte-identical files (the round-trip guarantee ctj_ckpt checks).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace ctj::io {

/// What went wrong while reading or writing a CTJS file. Every failure mode
/// is distinct so callers (and tests) can assert the exact cause.
enum class ErrorKind {
  kOpenFailed,       // cannot open the file for reading/writing
  kWriteFailed,      // short write or failed atomic rename
  kBadMagic,         // first four bytes are not "CTJS"
  kVersionMismatch,  // format_version is not one this build understands
  kTruncated,        // file shorter than its header/chunk table promises
  kCrcMismatch,      // stored CRC32 does not match the bytes on disk
  kMissingChunk,     // a required chunk tag is absent
  kBadPayload,       // a chunk payload fails structural decoding
  kStateMismatch,    // decoded state is incompatible with the live object
};

const char* to_string(ErrorKind kind);

/// Thrown by the persistence subsystem; never leaves a partially-loaded
/// object behind (loaders decode into temporaries and commit last).
class IoError : public std::runtime_error {
 public:
  IoError(ErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind) {}

  ErrorKind kind() const { return kind_; }

 private:
  ErrorKind kind_;
};

inline constexpr char kMagic[4] = {'C', 'T', 'J', 'S'};
inline constexpr std::uint16_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
inline constexpr std::size_t kChunkHeaderSize = 24;
inline constexpr std::size_t kTagSize = 8;

// Chunk tags (8 ASCII bytes, space padded). The inspector keys its decoding
// off these, so they are part of the format.
namespace tags {
inline constexpr char kMeta[] = "META    ";      // key=value text
inline constexpr char kSchemeCfg[] = "SCHMCFG ";  // DqnScheme::Config
inline constexpr char kSchemeState[] = "SCHMST  ";  // scheme dynamic state
inline constexpr char kNetOnline[] = "NETONLN ";  // tensor blob
inline constexpr char kNetTarget[] = "NETTGT  ";  // tensor blob
inline constexpr char kAdam[] = "ADAMOPT ";       // u64 step + tensor blob
inline constexpr char kReplay[] = "REPLAY  ";     // replay ring + cursor
inline constexpr char kRngAgent[] = "RNGAGNT ";   // mt19937_64 text state
inline constexpr char kAgentCounters[] = "AGCNTRS ";  // env/grad steps + cfg
inline constexpr char kEnvState[] = "ENVSTATE";   // environment replicas
inline constexpr char kJammerCfg[] = "JAMRCFG ";  // adversary JammerSpec
inline constexpr char kObsWindows[] = "OBSWIN  ";  // batched rollout windows
inline constexpr char kTrainProgress[] = "TRAINPRG";  // trainer loop state
inline constexpr char kServeJob[] = "SRVJOB  ";       // serve tenant JobSpec
inline constexpr char kServeProgress[] = "SRVPRG  ";  // serve tenant progress
inline constexpr char kQlState[] = "QLSTATE ";        // tabular QL scheme state
inline constexpr char kFhState[] = "FHSTATE ";        // FH baseline scheme state
inline constexpr char kArenaProgress[] = "ARENAPRG";  // self-play generation progress
inline constexpr char kJammerPolicy[] = "JAMPOLCY";   // learned jammer full state
inline constexpr char kOpponentPool[] = "OPPPOOL ";   // frozen opponent pools
}  // namespace tags

}  // namespace ctj::io
