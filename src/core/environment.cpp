#include "core/environment.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ctj::core {

namespace {

/// Seed salt for the behavioural jammer's stream: a fixed constant (not an
/// rng_ fork) so adding the jammer leaves the environment's own draw
/// sequence untouched.
constexpr std::uint64_t kJammerSeedSalt = 0x4A414D52ULL;  // "JAMR"

}  // namespace

EnvironmentConfig EnvironmentConfig::defaults() {
  EnvironmentConfig c;
  for (int v = 6; v <= 15; ++v) c.tx_levels.push_back(v);
  for (int v = 11; v <= 20; ++v) c.jam_levels.push_back(v);
  return c;
}

int EnvironmentConfig::sweep_cycle() const {
  CTJ_CHECK(num_channels > 0 && channels_per_sweep > 0);
  return (num_channels + channels_per_sweep - 1) / channels_per_sweep;
}

double EnvironmentConfig::success_prob(std::size_t power_index) const {
  CTJ_CHECK(power_index < tx_levels.size());
  return duel_success_prob(tx_levels[power_index], jam_levels, mode);
}

const char* to_string(SlotOutcome outcome) {
  switch (outcome) {
    case SlotOutcome::kClear: return "clear";
    case SlotOutcome::kJammedSurvived: return "jammed-survived";
    case SlotOutcome::kJammedFailed: return "jammed-failed";
  }
  return "?";
}

CompetitionEnvironment::CompetitionEnvironment(EnvironmentConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  CTJ_CHECK(!config_.tx_levels.empty());
  CTJ_CHECK(!config_.jam_levels.empty());
  if (config_.jammer.is_kernel()) {
    // The closed-form hazard 1/(N − n) needs at least two groups; a
    // single-group network is only meaningful against a behavioural jammer
    // (whose boundary handling the zoo tests pin down).
    CTJ_CHECK_MSG(config_.sweep_cycle() >= 2,
                  "sweep cycle must be >= 2 (got " << config_.sweep_cycle()
                                                   << ")");
  } else {
    // Sync the adversary spec to the environment's geometry and power model
    // so one source of truth (this config) shapes both sides of the duel.
    config_.jammer.num_channels = config_.num_channels;
    config_.jammer.channels_per_sweep = config_.channels_per_sweep;
    config_.jammer.power_levels = config_.jam_levels;
    config_.jammer.mode = config_.mode;
    jam_ = jammer::make_jammer(config_.jammer, config_.seed ^ kJammerSeedSalt);
  }
  reset();
}

CompetitionEnvironment::CompetitionEnvironment(
    const CompetitionEnvironment& other)
    : config_(other.config_),
      rng_(other.rng_),
      channel_(other.channel_),
      kind_(other.kind_),
      n_(other.n_),
      jam_(other.jam_ ? other.jam_->clone() : nullptr) {}

CompetitionEnvironment& CompetitionEnvironment::operator=(
    const CompetitionEnvironment& other) {
  if (this != &other) {
    config_ = other.config_;
    rng_ = other.rng_;
    channel_ = other.channel_;
    kind_ = other.kind_;
    n_ = other.n_;
    jam_ = other.jam_ ? other.jam_->clone() : nullptr;
  }
  return *this;
}

void CompetitionEnvironment::reset() {
  channel_ = 0;
  kind_ = HiddenKind::kCounting;
  n_ = 1;
  if (jam_) jam_->reset();
}

void CompetitionEnvironment::save_state(io::ByteWriter& out) const {
  // Config digest first: every field that shapes the trajectory.
  out.i32(config_.num_channels);
  out.i32(config_.channels_per_sweep);
  out.f64_vec(config_.tx_levels);
  out.f64_vec(config_.jam_levels);
  out.u8(config_.mode == JammerPowerMode::kMaxPower ? 0 : 1);
  out.f64(config_.loss_jam);
  out.f64(config_.loss_hop);
  out.u64(config_.seed);
  config_.jammer.encode(out);
  // Dynamic state.
  out.str(rng_.serialize_state());
  out.i32(channel_);
  out.u8(static_cast<std::uint8_t>(kind_));
  out.i32(n_);
  if (jam_) jam_->save_state(out);
}

void CompetitionEnvironment::load_state(io::ByteReader& in) {
  const auto mismatch = [](const std::string& what) -> io::IoError {
    return io::IoError(io::ErrorKind::kStateMismatch,
                       "checkpoint EnvironmentConfig differs in " + what);
  };
  if (in.i32() != config_.num_channels) throw mismatch("num_channels");
  if (in.i32() != config_.channels_per_sweep) {
    throw mismatch("channels_per_sweep");
  }
  if (in.f64_vec() != config_.tx_levels) throw mismatch("tx_levels");
  if (in.f64_vec() != config_.jam_levels) throw mismatch("jam_levels");
  if (in.u8() != (config_.mode == JammerPowerMode::kMaxPower ? 0 : 1)) {
    throw mismatch("mode");
  }
  if (in.f64() != config_.loss_jam) throw mismatch("loss_jam");
  if (in.f64() != config_.loss_hop) throw mismatch("loss_hop");
  if (in.u64() != config_.seed) throw mismatch("seed");
  if (jammer::JammerSpec::decode(in) != config_.jammer) {
    throw mismatch("jammer");
  }

  const std::string rng_text = in.str();
  Rng rng;
  try {
    rng.restore_state(rng_text);
  } catch (const CheckFailure&) {
    throw io::IoError(io::ErrorKind::kBadPayload, "environment RNG state");
  }
  const int channel = in.i32();
  if (channel < 0 || channel >= config_.num_channels) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "environment channel out of range");
  }
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(HiddenKind::kJ)) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "environment hidden kind out of range");
  }
  const int n = in.i32();
  const HiddenKind hidden = static_cast<HiddenKind>(kind);
  const int max_n = std::max(config_.sweep_cycle() - 1, 1);
  if (hidden == HiddenKind::kCounting && (n < 1 || n > max_n)) {
    throw io::IoError(io::ErrorKind::kBadPayload,
                      "environment hidden counter out of range");
  }
  std::unique_ptr<jammer::Jammer> jam;
  if (jam_) {
    jam = jam_->clone();
    jam->load_state(in);
  }

  rng_ = rng;
  channel_ = channel;
  kind_ = hidden;
  n_ = n;
  if (jam) jam_ = std::move(jam);
}

EnvStep CompetitionEnvironment::step(int channel, std::size_t power_index) {
  CTJ_CHECK_MSG(channel >= 0 && channel < config_.num_channels,
                "channel " << channel << " out of range");
  CTJ_CHECK(power_index < config_.num_power_levels());

  const bool hop = channel != channel_;
  // A hop only escapes the jammer when it leaves the m-channel group the
  // jammer's (Wi-Fi-wide) emission covers; hopping inside the group pays
  // L_H without changing the jamming odds.
  const bool effective_hop =
      channel / config_.channels_per_sweep !=
      channel_ / config_.channels_per_sweep;
  const int N = config_.sweep_cycle();

  HiddenKind next_kind = HiddenKind::kCounting;
  int next_n = 1;
  if (jam_) {
    // Behavioural mode: the live adversary senses/emits for real and the
    // outcome is the actual power duel against its reported emission. The
    // hidden n is bookkeeping only (consecutive unjammed slots, capped at
    // the kernel's N − 1 range) so hidden-state inspection stays meaningful.
    const jammer::JammerSlotReport report = jam_->step(channel);
    if (report.hit) {
      next_kind = config_.tx_levels[power_index] >= report.power
                      ? HiddenKind::kTj
                      : HiddenKind::kJ;
    } else {
      next_kind = HiddenKind::kCounting;
      next_n = kind_ == HiddenKind::kCounting
                   ? std::min(n_ + 1, std::max(N - 1, 1))
                   : 1;
    }
  } else if (kind_ == HiddenKind::kCounting) {
    const double q = config_.success_prob(power_index);
    if (!effective_hop) {
      // Cases 1–2: the sweeping jammer finds the victim with hazard
      // 1/(N − n); survival of the attempt depends on the power duel.
      const double p_found = 1.0 / static_cast<double>(N - n_);
      if (rng_.bernoulli(p_found)) {
        next_kind = rng_.bernoulli(q) ? HiddenKind::kTj : HiddenKind::kJ;
      } else {
        next_kind = HiddenKind::kCounting;
        next_n = n_ + 1;
        CTJ_CHECK(next_n <= N - 1);
      }
    } else {
      // Cases 3–4: hopping lands in the jammer's next swept group with
      // probability (N−n−1) / ((N−1)(N−n)).
      const double r = static_cast<double>(N - n_ - 1) /
                       (static_cast<double>(N - 1) * static_cast<double>(N - n_));
      if (rng_.bernoulli(r)) {
        next_kind = rng_.bernoulli(q) ? HiddenKind::kTj : HiddenKind::kJ;
      } else {
        next_kind = HiddenKind::kCounting;
        next_n = 1;
      }
    }
  } else {
    const double q = config_.success_prob(power_index);
    if (!effective_hop) {
      // Case 5: the jammer dwells; only the power duel decides.
      next_kind = rng_.bernoulli(q) ? HiddenKind::kTj : HiddenKind::kJ;
    } else {
      // Case 6: escaping a dwelling jammer always works for one slot.
      next_kind = HiddenKind::kCounting;
      next_n = 1;
    }
  }

  kind_ = next_kind;
  n_ = next_kind == HiddenKind::kCounting ? next_n : 0;
  channel_ = channel;

  EnvStep result;
  result.hopped = hop;
  result.channel = channel;
  switch (next_kind) {
    case HiddenKind::kCounting: result.outcome = SlotOutcome::kClear; break;
    case HiddenKind::kTj: result.outcome = SlotOutcome::kJammedSurvived; break;
    case HiddenKind::kJ: result.outcome = SlotOutcome::kJammedFailed; break;
  }
  result.success = result.outcome != SlotOutcome::kJammedFailed;
  result.reward = -config_.tx_levels[power_index] -
                  (hop ? config_.loss_hop : 0.0) -
                  (result.success ? 0.0 : config_.loss_jam);
  return result;
}

SlotPlay play_slot(AntiJammingScheme& scheme, CompetitionEnvironment& env) {
  SlotPlay play;
  play.decision = scheme.decide();
  play.step = env.step(play.decision.channel, play.decision.power_index);
  SlotFeedback feedback;
  feedback.success = play.step.success;
  feedback.jammed = play.step.outcome != SlotOutcome::kClear;
  feedback.channel = play.step.channel;
  feedback.power_index = play.decision.power_index;
  feedback.reward = play.step.reward;
  scheme.feedback(feedback);
  return play;
}

}  // namespace ctj::core
