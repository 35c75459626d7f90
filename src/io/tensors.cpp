#include "io/tensors.hpp"

#include <algorithm>

namespace ctj::io {

void write_tensors(ByteWriter& out, const std::vector<NamedTensor>& tensors) {
  out.u32(static_cast<std::uint32_t>(tensors.size()));
  for (const NamedTensor& t : tensors) {
    out.str(t.name);
    out.u64(t.rows);
    out.u64(t.cols);
    out.f64_vec(t.data);
  }
}

std::vector<NamedTensor> read_tensors(ByteReader& in) {
  const std::uint32_t count = in.u32();
  std::vector<NamedTensor> tensors;
  // The count is untrusted: reserve no more tensors than the payload can
  // hold (a name length, rows, cols and an element count each).
  tensors.reserve(std::min<std::size_t>(count, in.remaining() / 32));
  for (std::uint32_t i = 0; i < count; ++i) {
    NamedTensor t;
    t.name = in.str();
    t.rows = in.u64();
    t.cols = in.u64();
    t.data = in.f64_vec();
    if (t.data.size() != t.rows * t.cols) {
      throw IoError(ErrorKind::kBadPayload,
                    "tensor " + t.name + " has " +
                        std::to_string(t.data.size()) + " elements for shape " +
                        std::to_string(t.rows) + "x" + std::to_string(t.cols));
    }
    tensors.push_back(std::move(t));
  }
  return tensors;
}

}  // namespace ctj::io
