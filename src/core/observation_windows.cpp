#include "core/observation_windows.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"

namespace ctj::core {

ObservationWindows::ObservationWindows(std::size_t replicas,
                                       std::size_t history, int num_channels,
                                       std::size_t num_power_levels)
    : replicas_(replicas),
      history_(history),
      num_channels_(num_channels),
      num_power_levels_(num_power_levels) {
  CTJ_CHECK(replicas > 0);
  CTJ_CHECK(history > 0);
  CTJ_CHECK(num_channels >= 1);
  CTJ_CHECK(num_power_levels >= 1);
  reset();
}

void ObservationWindows::reset() {
  states_.resize(replicas_, 3 * history_, 0.0);
}

void ObservationWindows::push(std::size_t r, bool success, int channel,
                              std::size_t power_index) {
  CTJ_CHECK(r < replicas_);
  double* row = states_.data() + r * states_.cols();
  // Slide left by one slot record and append the new one (oldest first).
  std::copy(row + 3, row + states_.cols(), row);
  double* rec = row + 3 * (history_ - 1);
  rec[0] = success ? 1.0 : 0.0;
  rec[1] = num_channels_ <= 1 ? 0.0
                              : static_cast<double>(channel) /
                                    static_cast<double>(num_channels_ - 1);
  rec[2] = num_power_levels_ <= 1
               ? 0.0
               : static_cast<double>(power_index) /
                     static_cast<double>(num_power_levels_ - 1);
}

std::span<const double> ObservationWindows::row(std::size_t r) const {
  CTJ_CHECK(r < replicas_);
  return {states_.data() + r * states_.cols(), states_.cols()};
}

void ObservationWindows::set_row(std::size_t r,
                                 std::span<const double> values) {
  CTJ_CHECK(r < replicas_);
  CTJ_CHECK(values.size() == states_.cols());
  std::copy(values.begin(), values.end(), states_.data() + r * states_.cols());
}

void ObservationWindows::save_state(io::ByteWriter& out) const {
  out.u64(replicas_);
  out.u64(history_);
  out.i32(num_channels_);
  out.u64(num_power_levels_);
  out.u64(states_.size());
  out.f64_array({states_.data(), states_.size()});
}

void ObservationWindows::load_state(io::ByteReader& in) {
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "checkpoint observation windows differ in " + what);
  };
  if (in.u64() != replicas_) throw mismatch("replica count");
  if (in.u64() != history_) throw mismatch("history length");
  if (in.i32() != num_channels_) throw mismatch("channel count");
  if (in.u64() != num_power_levels_) throw mismatch("power level count");
  const std::uint64_t size = in.u64();
  if (size != states_.size()) throw mismatch("window matrix size");
  in.f64_array({states_.data(), states_.size()});  // all or nothing
}

}  // namespace ctj::core
