#include "core/reward_window.hpp"

namespace ctj::core {

void RewardWindow::encode(io::ByteWriter& out) const {
  out.f64(sum_);
  out.u64(values_.size());
  for (double v : values_) out.f64(v);
}

RewardWindow RewardWindow::decode(io::ByteReader& in, std::size_t capacity,
                                  std::uint64_t slots, io::ErrorKind kind) {
  RewardWindow window(capacity);
  window.sum_ = in.f64();
  const std::uint64_t count = in.u64();
  if (count > capacity || count > slots) {
    throw io::IoError(kind,
                      "reward window longer than its capacity or the slots "
                      "that fed it");
  }
  for (std::uint64_t i = 0; i < count; ++i) window.values_.push_back(in.f64());
  return window;
}

}  // namespace ctj::core
