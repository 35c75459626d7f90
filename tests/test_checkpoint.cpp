// Checkpoint & resume tests for the training stack: RNG stream round trips,
// agent/scheme state round trips with the strong no-mutation-on-failure
// guarantee, the replay ring (ring order, sampling, its REPLAY chunk and
// decoder), and the headline property — a killed and resumed training run
// is bit-identical to an uninterrupted one, for both the sequential and the
// batched trainer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/environment.hpp"
#include "core/qlearning_scheme.hpp"
#include "core/trainer.hpp"
#include "io/container.hpp"
#include "rl/dqn.hpp"
#include "rl/qlearning.hpp"
#include "rl/replay.hpp"

#include "dense_ql_reference.hpp"

using namespace ctj;
using namespace ctj::core;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

DqnScheme::Config small_scheme_config() {
  DqnScheme::Config config;
  config.history = 2;
  config.hidden = {8};
  config.epsilon_decay_steps = 200;
  config.seed = 99;
  return config;
}

EnvironmentConfig small_env_config() {
  auto config = EnvironmentConfig::defaults();
  config.seed = 5;
  return config;
}

std::string scheme_bytes(const DqnScheme& scheme) {
  io::ContainerWriter out;
  scheme.save_state(out);
  return out.to_bytes();
}

rl::Transition make_transition(double tag) {
  rl::Transition t;
  t.state = {tag, tag + 0.25};
  t.action = static_cast<std::size_t>(tag) % 3;
  t.reward = -tag;
  t.next_state = {tag + 0.5, tag + 0.75};
  t.done = false;
  return t;
}

/// Drive a scheme for `slots` slots on synthetic feedback (every third slot
/// fails) and return the feedback it saw.
std::vector<SlotFeedback> feed(AntiJammingScheme& scheme, int slots) {
  std::vector<SlotFeedback> fed;
  for (int i = 0; i < slots; ++i) {
    const SchemeDecision d = scheme.decide();
    SlotFeedback fb;
    fb.success = i % 3 != 0;
    fb.channel = d.channel;
    fb.power_index = d.power_index;
    fb.reward = fb.success ? 1.0 : -100.0;
    scheme.feedback(fb);
    fed.push_back(fb);
  }
  return fed;
}

/// The 3·I observation window the last `history` slots of `fed` leave:
/// oldest first, (success, channel/(C−1), power/(PL−1)) per slot.
std::vector<double> expected_window(const std::vector<SlotFeedback>& fed,
                                    std::size_t history, int channels,
                                    std::size_t power_levels) {
  std::vector<double> window;
  for (std::size_t i = fed.size() - history; i < fed.size(); ++i) {
    window.push_back(fed[i].success ? 1.0 : 0.0);
    window.push_back(static_cast<double>(fed[i].channel) /
                     static_cast<double>(channels - 1));
    window.push_back(static_cast<double>(fed[i].power_index) /
                     static_cast<double>(power_levels - 1));
  }
  return window;
}

/// Slot i of a ring, unpacked.
rl::Transition transition_at(const rl::ReplayRing& ring, std::size_t i) {
  const rl::TransitionRow row =
      rl::unpack_transition(ring.row(i), ring.state_dim());
  return {{row.state.begin(), row.state.end()},
          row.action,
          row.reward,
          {row.next_state.begin(), row.next_state.end()},
          row.done};
}

double first_state(const rl::ReplayRing& ring, std::size_t i) {
  return transition_at(ring, i).state[0];
}

void expect_same_transition(const rl::Transition& a, const rl::Transition& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.next_state, b.next_state);
  EXPECT_EQ(a.done, b.done);
}

}  // namespace

TEST(RngState, RoundTripPreservesDrawStream) {
  Rng rng(1234);
  rng.uniform();
  // One normal draw primes the Box–Muller spare — the half of the
  // distribution state a naive engine-only serialization would lose.
  rng.normal();

  const std::string state = rng.serialize_state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) {
    expected.push_back(rng.uniform());
    expected.push_back(rng.normal());
    expected.push_back(static_cast<double>(rng.index(1000)));
  }

  Rng restored(1);  // different seed: state must come wholly from the text
  restored.restore_state(state);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.uniform(), expected[3 * i]);
    EXPECT_EQ(restored.normal(), expected[3 * i + 1]);
    EXPECT_EQ(static_cast<double>(restored.index(1000)), expected[3 * i + 2]);
  }
}

TEST(RngState, MalformedStateThrowsWithoutMutating) {
  Rng rng(7);
  const std::string before = rng.serialize_state();
  EXPECT_THROW(rng.restore_state("not an rng state"), CheckFailure);
  EXPECT_EQ(rng.serialize_state(), before);
}

// ---------------------------------------------------------- replay ring ----
// The DqnAgent's replay ring and its REPLAY chunk: ring order, sampling,
// and the decoder.

TEST(Replay, PushAndSize) {
  rl::ReplayRing ring(4, 1, 1);
  for (int i = 0; i < 3; ++i) ring.push({{1.0}, 0, 0.0, {1.0}, false});
  EXPECT_EQ(ring.size(), 3u);
}

TEST(Replay, RingOverwritesOldest) {
  rl::ReplayRing ring(3, 1, 1);
  for (int i = 0; i < 5; ++i) {
    ring.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  EXPECT_EQ(ring.size(), 3u);
  // Entries 0 and 1 must have been overwritten by 3 and 4.
  std::set<double> seen;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    seen.insert(first_state(ring, i));
  }
  EXPECT_EQ(seen.count(0.0), 0u);
  EXPECT_EQ(seen.count(1.0), 0u);
  EXPECT_EQ(seen.count(4.0), 1u);
}

TEST(Replay, WraparoundReplacesOldestFirst) {
  rl::ReplayRing ring(3, 1, 1);
  for (int i = 0; i < 4; ++i) {
    ring.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  // The ring cursor starts at slot 0 once full: pushing 3 evicts 0 (the
  // oldest), leaving 1 and 2 in place.
  EXPECT_DOUBLE_EQ(first_state(ring, 0), 3.0);
  EXPECT_DOUBLE_EQ(first_state(ring, 1), 1.0);
  EXPECT_DOUBLE_EQ(first_state(ring, 2), 2.0);
  ring.push({{4.0}, 0, 0.0, {0.0}, false});  // evicts 1
  ring.push({{5.0}, 0, 0.0, {0.0}, false});  // evicts 2
  ring.push({{6.0}, 0, 0.0, {0.0}, false});  // cursor wrapped: evicts 3
  EXPECT_DOUBLE_EQ(first_state(ring, 0), 6.0);
  EXPECT_DOUBLE_EQ(first_state(ring, 1), 4.0);
  EXPECT_DOUBLE_EQ(first_state(ring, 2), 5.0);
}

TEST(Replay, SampleIsDeterministicGivenSeed) {
  rl::ReplayRing ring(8, 1, 1);
  for (int i = 0; i < 8; ++i) {
    ring.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  Rng a(42);
  Rng b(42);
  rl::Minibatch sample_a, sample_b;
  ring.sample_into(64, a, sample_a);
  ring.sample_into(64, b, sample_b);
  ASSERT_EQ(sample_a.states.rows(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(sample_a.states.data()[i], sample_b.states.data()[i]);
  }
}

TEST(Replay, SampleFromEmptyThrows) {
  rl::ReplayRing ring(2, 1, 1);
  Rng rng(1);
  rl::Minibatch batch;
  EXPECT_THROW(ring.sample_into(1, rng, batch), CheckFailure);
}

TEST(Replay, SampleCoversBuffer) {
  rl::ReplayRing ring(8, 1, 1);
  for (int i = 0; i < 8; ++i) {
    ring.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  Rng rng(2);
  rl::Minibatch batch;
  ring.sample_into(400, rng, batch);
  std::set<double> seen;
  for (std::size_t i = 0; i < 400; ++i) seen.insert(batch.states.data()[i]);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ReplayState, MidWrapRoundTrip) {
  rl::ReplayRing ring(4, 2, 3);
  for (int i = 0; i < 6; ++i) ring.push(make_transition(i));  // wrapped
  ASSERT_EQ(ring.size(), 4u);
  ASSERT_EQ(ring.cursor(), 2u);

  io::ByteWriter w;
  ring.save_transitions(w);
  io::ByteReader r(w.buffer());
  rl::ReplayRing restored = ring.decode_transitions(r);
  r.expect_end();

  EXPECT_EQ(restored.size(), ring.size());
  EXPECT_EQ(restored.cursor(), ring.cursor());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    expect_same_transition(transition_at(restored, i), transition_at(ring, i));
  }

  // The restored ring keeps overwriting exactly where the original would.
  ring.push(make_transition(50));
  restored.push(make_transition(50));
  EXPECT_EQ(restored.cursor(), ring.cursor());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    expect_same_transition(transition_at(restored, i), transition_at(ring, i));
  }
}

TEST(ReplayState, SamplingOrderIsDeterministicAcrossSaveLoad) {
  rl::ReplayRing ring(16, 2, 3);
  for (int i = 0; i < 12; ++i) ring.push(make_transition(i));
  Rng rng(42);
  rng.uniform();  // advance to a non-trivial point
  const std::string rng_state = rng.serialize_state();

  io::ByteWriter w;
  ring.save_transitions(w);

  rl::Minibatch batch_a;
  ring.sample_into(8, rng, batch_a);

  io::ByteReader r(w.buffer());
  const rl::ReplayRing restored = ring.decode_transitions(r);
  Rng rng_b(7);
  rng_b.restore_state(rng_state);
  rl::Minibatch batch_b;
  restored.sample_into(8, rng_b, batch_b);

  EXPECT_EQ(batch_a.actions, batch_b.actions);
  EXPECT_EQ(batch_a.rewards, batch_b.rewards);
  EXPECT_EQ(batch_a.dones, batch_b.dones);
  for (std::size_t i = 0; i < batch_a.states.size(); ++i) {
    EXPECT_EQ(batch_a.states.data()[i], batch_b.states.data()[i]);
    EXPECT_EQ(batch_a.next_states.data()[i], batch_b.next_states.data()[i]);
  }
}

TEST(ReplayState, CapacityMismatchThrowsWithoutMutating) {
  rl::ReplayRing ring(4, 2, 3);
  for (int i = 0; i < 3; ++i) ring.push(make_transition(i));
  io::ByteWriter w;
  ring.save_transitions(w);

  rl::ReplayRing other(8, 2, 3);
  other.push(make_transition(77));
  io::ByteReader r(w.buffer());
  try {
    other = other.decode_transitions(r);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  ASSERT_EQ(other.size(), 1u);
  expect_same_transition(transition_at(other, 0), make_transition(77));
}

TEST(ReplayState, TransitionsEncodingIsPinned) {
  // The REPLAY chunk, field by field: capacity, cursor, count, then per
  // slot in storage order f64_vec(state), u64 action, f64 reward,
  // f64_vec(next_state), u8 done.
  rl::ReplayRing ring(3, 2, 3);
  std::vector<rl::Transition> pushed;
  for (int i = 0; i < 4; ++i) {
    pushed.push_back(make_transition(i));
    pushed.back().done = i == 2;
    ring.push(pushed.back());
  }
  io::ByteWriter expected;
  expected.u64(3);  // capacity
  expected.u64(1);  // cursor: the fourth push overwrote slot 0
  expected.u64(3);  // count
  for (const int slot : {3, 1, 2}) {
    const rl::Transition& t = pushed[slot];
    expected.f64_vec(t.state);
    expected.u64(t.action);
    expected.f64(t.reward);
    expected.f64_vec(t.next_state);
    expected.u8(t.done ? 1 : 0);
  }
  io::ByteWriter actual;
  ring.save_transitions(actual);
  EXPECT_EQ(actual.buffer(), expected.buffer());
}

TEST(ReplayState, DecodersRejectRowsTheLearnerCannotUse) {
  constexpr std::size_t kActions = 3;
  rl::ReplayRing ring(4, 2, kActions);
  for (int i = 0; i < 3; ++i) ring.push(make_transition(i));
  const auto expect_rejected = [](const auto& decode, io::ErrorKind kind) {
    try {
      decode();
      ADD_FAILURE() << "expected IoError";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), kind);
    }
  };

  // REPLAY: an action past num_actions, a done byte of 2, a state of the
  // wrong length. Row 0's fields start after the 24-byte header.
  io::ByteWriter w;
  ring.save_transitions(w);
  const std::string good = w.take();
  const std::size_t state_len = 24, action = state_len + 8 + 16;
  const std::size_t done = action + 8 + 8 + 8 + 16;
  const auto decode_replay = [&](std::string bytes) {
    return [&ring, bytes] {
      io::ByteReader r(bytes);
      (void)ring.decode_transitions(r);
    };
  };
  std::string bad = good;
  bad[action] = static_cast<char>(kActions);
  expect_rejected(decode_replay(bad), io::ErrorKind::kStateMismatch);
  bad = good;
  bad[done] = 2;
  expect_rejected(decode_replay(bad), io::ErrorKind::kBadPayload);
  bad = good;
  bad[state_len] = 3;
  expect_rejected(decode_replay(bad), io::ErrorKind::kStateMismatch);

}

TEST(SchemeState, SaveLoadSaveIsByteIdentical) {
  DqnScheme trained(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  TrainerConfig config;
  config.max_slots = 350;
  config.reward_window = 50;
  train(trained, env, config);

  const std::string first = scheme_bytes(trained);

  DqnScheme restored(small_scheme_config());
  restored.load_state(io::ContainerReader::from_bytes(first));
  EXPECT_EQ(scheme_bytes(restored), first);

  // The restored scheme also behaves identically.
  const auto obs = trained.observation();
  EXPECT_EQ(restored.observation(), obs);
  EXPECT_EQ(restored.agent().act_greedy(obs), trained.agent().act_greedy(obs));
}

TEST(SchemeState, ReadConfigReconstructsMatchingScheme) {
  DqnScheme source(small_scheme_config());
  const std::string path = temp_path("ctj_scheme_cfg.ctjs");
  save_scheme(source, path);

  const DqnScheme::Config config = read_scheme_config(path);
  EXPECT_EQ(config.history, small_scheme_config().history);
  EXPECT_EQ(config.hidden, small_scheme_config().hidden);
  EXPECT_EQ(config.seed, small_scheme_config().seed);

  DqnScheme clone(config);
  load_scheme(clone, path);
  EXPECT_EQ(scheme_bytes(clone), scheme_bytes(source));
  std::filesystem::remove(path);
}

TEST(SchemeState, ConfigMismatchThrowsWithoutMutating) {
  DqnScheme source(small_scheme_config());
  io::ContainerWriter out;
  source.save_state(out);
  const io::ContainerReader in = io::ContainerReader::from_bytes(out.to_bytes());

  auto other_config = small_scheme_config();
  other_config.hidden = {16};
  DqnScheme other(other_config);
  const std::string before = scheme_bytes(other);
  try {
    other.load_state(in);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }
  EXPECT_EQ(scheme_bytes(other), before);
}

TEST(SchemeState, CorruptChunkPayloadThrowsWithoutMutating) {
  DqnScheme source(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  TrainerConfig config;
  config.max_slots = 300;
  config.reward_window = 50;
  train(source, env, config);

  // Rebuild the container with the replay payload truncated: CRCs are
  // re-stamped so only the payload decoder can catch it.
  io::ContainerWriter original;
  source.save_state(original);
  const io::ContainerReader in =
      io::ContainerReader::from_bytes(original.to_bytes());
  io::ContainerWriter tampered;
  for (const io::ChunkInfo& chunk : in.chunks()) {
    std::string payload(in.chunk(chunk.tag));
    if (chunk.tag == "REPLAY") payload.resize(payload.size() - 8);
    tampered.add_chunk(chunk.tag, std::move(payload));
  }

  DqnScheme victim(small_scheme_config());
  const std::string before = scheme_bytes(victim);
  EXPECT_THROW(
      victim.load_state(io::ContainerReader::from_bytes(tampered.to_bytes())),
      io::IoError);
  EXPECT_EQ(scheme_bytes(victim), before);
}

TEST(SchemeState, FlippedBytesInModelFileAlwaysThrow) {
  DqnScheme source(small_scheme_config());
  io::ContainerWriter out;
  add_meta_chunk(out, "model");
  source.save_state(out);
  const std::string bytes = out.to_bytes();
  // Sampled single-byte corruption sweep over a real model file (every
  // byte is exercised exhaustively at container level in test_io.cpp).
  for (std::size_t i = 0; i < bytes.size(); i += 13) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x20);
    EXPECT_THROW(io::ContainerReader::from_bytes(std::move(corrupt)),
                 io::IoError)
        << "flipped byte " << i << " went undetected";
  }
}

TEST(SchemeState, SchemeStateChunkLayout) {
  // SCHMST, field by field: training u8, deploy RNG str, history u64, the
  // 3·I window f64, has_pending u8, pending state f64_vec, pending action
  // u64.
  DqnScheme scheme(small_scheme_config());
  const DqnScheme::Config& config = scheme.config();
  const std::vector<SlotFeedback> fed = feed(scheme, 40);
  const std::vector<double> window = expected_window(
      fed, config.history, config.num_channels, config.num_power_levels);
  const auto read_chunk = [&] {
    const io::ContainerReader in =
        io::ContainerReader::from_bytes(scheme_bytes(scheme));
    return std::string(in.chunk(io::tags::kSchemeState));
  };

  // While training, feedback moves the pending state into the replay
  // transition: nothing is pending and the stored state is empty.
  std::string chunk = read_chunk();
  io::ByteReader training(chunk);
  EXPECT_EQ(training.u8(), 1u);
  EXPECT_FALSE(training.str().empty());
  ASSERT_EQ(training.u64(), config.history);
  for (double expect : window) EXPECT_EQ(training.f64(), expect);
  EXPECT_EQ(training.u8(), 0u);
  EXPECT_TRUE(training.f64_vec().empty());
  training.u64();
  training.expect_end();

  // Deployed, with a decision awaiting its feedback.
  scheme.set_training(false);
  const SchemeDecision pending = scheme.decide();
  chunk = read_chunk();
  io::ByteReader deployed(chunk);
  EXPECT_EQ(deployed.u8(), 0u);
  Rng deploy_rng;
  EXPECT_NO_THROW(deploy_rng.restore_state(deployed.str()));
  ASSERT_EQ(deployed.u64(), config.history);
  for (double expect : window) EXPECT_EQ(deployed.f64(), expect);
  EXPECT_EQ(deployed.u8(), 1u);
  EXPECT_EQ(deployed.f64_vec(), window);
  EXPECT_EQ(deployed.u64(),
            static_cast<std::uint64_t>(pending.channel) *
                    config.num_power_levels +
                pending.power_index);
  deployed.expect_end();
}

TEST(SchemeState, QlStatePayloadLayout) {
  // The QLSTATE payload, field by field: the Config digest, the same state
  // block as SCHMST, then the agent (v2: version u32, RNG str, steps u64,
  // row count u64, and per row a key u64, an entry count u32 and that many
  // (action u32, q f64) pairs, actions ascending, no +0.0 stored).
  QLearningScheme::Config config;
  config.history = 3;
  config.seed = 31;
  QLearningScheme scheme(config);
  const std::vector<SlotFeedback> fed = feed(scheme, 60);
  const SchemeDecision pending = scheme.decide();
  const std::vector<double> window = expected_window(
      fed, config.history, config.num_channels, config.num_power_levels);
  io::ByteWriter out;
  scheme.save_state(out);
  io::ByteReader r(out.buffer());

  EXPECT_EQ(r.i32(), config.num_channels);
  EXPECT_EQ(r.u64(), config.num_power_levels);
  EXPECT_EQ(r.u64(), config.history);
  EXPECT_EQ(r.u64(), config.bins_per_dim);
  EXPECT_EQ(r.f64(), config.learning_rate);
  EXPECT_EQ(r.f64(), config.gamma);
  EXPECT_EQ(r.f64(), config.epsilon_start);
  EXPECT_EQ(r.f64(), config.epsilon_end);
  EXPECT_EQ(r.u64(), config.epsilon_decay_steps);
  EXPECT_EQ(r.f64(), config.deploy_epsilon);
  EXPECT_EQ(r.u64(), config.seed);

  EXPECT_EQ(r.u8(), 1u);  // training
  Rng deploy_rng;
  EXPECT_NO_THROW(deploy_rng.restore_state(r.str()));
  ASSERT_EQ(r.u64(), config.history);
  for (double expect : window) EXPECT_EQ(r.f64(), expect);
  EXPECT_EQ(r.u8(), 1u);
  EXPECT_EQ(r.f64_vec(), window);
  EXPECT_EQ(r.u64(), static_cast<std::uint64_t>(pending.channel) *
                             config.num_power_levels +
                         pending.power_index);

  EXPECT_EQ(r.u32(), rl::QLearningAgent::kStateVersion);
  Rng agent_rng;
  EXPECT_NO_THROW(agent_rng.restore_state(r.str()));
  EXPECT_EQ(r.u64(), 60u);  // one update per fed slot
  const std::uint64_t rows = r.u64();
  EXPECT_EQ(rows, scheme.agent().table_size());
  std::vector<std::uint64_t> keys;
  std::uint64_t stored = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    keys.push_back(r.u64());
    const std::uint32_t count = r.u32();
    std::int64_t last = -1;
    for (std::uint32_t j = 0; j < count; ++j) {
      const std::uint32_t action = r.u32();
      EXPECT_GT(static_cast<std::int64_t>(action), last);
      EXPECT_LT(action, scheme.agent().config().num_actions);
      EXPECT_NE(std::bit_cast<std::uint64_t>(r.f64()), 0u);
      last = action;
    }
    stored += count;
  }
  r.expect_end();
  EXPECT_LE(stored, 60u);  // at most one new entry per update
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

/// An agent's QLSTATE bytes.
std::string ql_bytes(const rl::QLearningAgent& agent) {
  io::ByteWriter out;
  agent.save_state(out);
  return out.take();
}

/// Expect load_state(payload) to throw io::IoError of `kind` and leave the
/// agent's bytes as they were.
void expect_rejected(rl::QLearningAgent& agent, std::string_view payload,
                     io::ErrorKind kind) {
  const std::string before = ql_bytes(agent);
  io::ByteReader in(payload);
  try {
    agent.load_state(in);
    ADD_FAILURE() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
  EXPECT_EQ(ql_bytes(agent), before);
}

TEST(QlState, HostileTableCountThrowsInsteadOfAllocating) {
  // The row count and each row's entry count are read before any bytes
  // back them: a count no payload could hold must fail as a typed IoError,
  // not reserve room for it, and leave the agent untouched.
  rl::QLearningConfig config;
  config.state_dim = 6;
  config.num_actions = 4;
  rl::QLearningAgent agent(config);
  const std::string saved = ql_bytes(agent);
  io::ByteReader fields(saved);
  io::ByteWriter head;
  head.u32(fields.u32());  // version
  head.str(fields.str());  // RNG
  head.u64(fields.u64());  // steps

  io::ByteWriter hostile;
  hostile.bytes(head.buffer().data(), head.buffer().size());
  hostile.u64(std::numeric_limits<std::uint64_t>::max() / 2);
  expect_rejected(agent, hostile.buffer(), io::ErrorKind::kBadPayload);
  EXPECT_EQ(agent.table_size(), 0u);

  // One row whose entry count is past both num_actions and the payload.
  io::ByteWriter hostile_row;
  hostile_row.bytes(head.buffer().data(), head.buffer().size());
  hostile_row.u64(1);
  hostile_row.u64(42);
  hostile_row.u32(std::numeric_limits<std::uint32_t>::max());
  expect_rejected(agent, hostile_row.buffer(), io::ErrorKind::kBadPayload);
  EXPECT_EQ(agent.table_size(), 0u);
}

TEST(QlState, MalformedRowsThrowAndLeaveTheAgentUntouched) {
  // Actions out of range or not strictly ascending, a key given twice and
  // a stored +0.0 (which the writer never emits) are all kBadPayload.
  rl::QLearningConfig config;
  config.state_dim = 2;
  config.num_actions = 4;
  rl::QLearningAgent agent(config);
  agent.update(std::vector<double>{0.1, 0.9}, 1, -5.0,
               std::vector<double>{0.9, 0.1});
  struct Pair {
    std::uint32_t action;
    double q;
  };
  const auto payload = [](const std::vector<std::pair<std::uint64_t,
                                                      std::vector<Pair>>>&
                              rows) {
    io::ByteWriter out;
    out.u32(rl::QLearningAgent::kStateVersion);
    out.str(Rng(3).serialize_state());
    out.u64(9);
    out.u64(rows.size());
    for (const auto& [key, pairs] : rows) {
      out.u64(key);
      out.u32(static_cast<std::uint32_t>(pairs.size()));
      for (const Pair& p : pairs) {
        out.u32(p.action);
        out.f64(p.q);
      }
    }
    return out.take();
  };
  // The well-formed payload loads.
  const std::string good = payload({{7, {{0, -1.0}, {3, 2.0}}}, {5, {}}});
  rl::QLearningAgent loaded(config);
  io::ByteReader in(good);
  loaded.load_state(in);
  in.expect_end();
  EXPECT_EQ(ql_bytes(loaded), good);

  expect_rejected(agent, payload({{7, {{4, -1.0}}}}),
                  io::ErrorKind::kBadPayload);
  expect_rejected(agent, payload({{7, {{2, -1.0}, {2, -2.0}}}}),
                  io::ErrorKind::kBadPayload);
  expect_rejected(agent, payload({{7, {{2, -1.0}, {1, -2.0}}}}),
                  io::ErrorKind::kBadPayload);
  expect_rejected(agent, payload({{7, {{1, -1.0}}}, {5, {}}, {7, {}}}),
                  io::ErrorKind::kBadPayload);
  expect_rejected(agent, payload({{7, {{1, -1.0}, {2, 0.0}}}}),
                  io::ErrorKind::kBadPayload);
  // -0.0 is a stored value, not an absent one.
  EXPECT_NO_THROW({
    const std::string negative_zero = payload({{7, {{2, -0.0}}}});
    io::ByteReader r(negative_zero);
    loaded.load_state(r);
  });
}

TEST(QlState, EveryTruncationThrowsTypedAndLeavesTheAgentUntouched) {
  // Cut a real payload at every byte offset: each prefix must throw a
  // typed IoError and leave the loading agent as it was. A v1 payload
  // (keys sorted, rows dense f64 vectors, no version field) must fail
  // typed as well.
  rl::QLearningConfig config;
  config.state_dim = 4;
  config.num_actions = 6;
  const auto trained = [&config](std::uint64_t seed, int updates) {
    rl::QLearningAgent agent(config);
    Rng rng(seed);
    std::vector<double> s(4);
    std::vector<double> s2(4);
    for (int i = 0; i < updates; ++i) {
      for (std::size_t d = 0; d < 4; ++d) {
        s[d] = rng.uniform(0.0, 1.0);
        s2[d] = rng.uniform(0.0, 1.0);
      }
      agent.update(s, agent.act(s), rng.uniform(-10.0, 1.0), s2);
    }
    return agent;
  };
  const std::string payload = ql_bytes(trained(3, 40));
  rl::QLearningAgent target = trained(4, 25);
  ASSERT_GT(target.table_size(), 0u);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    SCOPED_TRACE(cut);
    const std::string before = ql_bytes(target);
    io::ByteReader in(std::string_view(payload).substr(0, cut));
    EXPECT_THROW(target.load_state(in), io::IoError);
    ASSERT_EQ(ql_bytes(target), before);
  }

  io::ByteWriter v1;
  v1.str(Rng(5).serialize_state());
  v1.u64(1);
  v1.u64(1);
  v1.u64(42);
  v1.f64_vec(std::vector<double>(config.num_actions, -1.0));
  expect_rejected(target, v1.buffer(), io::ErrorKind::kVersionMismatch);
}

TEST(QlAgent, UnvisitedKeyActsLikeZeroRow) {
  // For a state with no table row the agent answers from the failed lookup
  // (greedy action 0, a 0.0 bootstrap). Both must be what an all-zero row
  // gives, so compare against a twin whose table holds that row
  // materialized at zero.
  rl::QLearningConfig config;
  config.state_dim = 4;
  config.num_actions = 6;
  const std::vector<double> s = {0.1, 0.9, 0.5, 0.2};
  const std::vector<double> s2 = {0.9, 0.1, 0.5, 0.8};

  // Visit s once, then rewrite the saved row of s as a row of no stored
  // entries and the step count as 0, so the twin differs from a fresh
  // agent only by that row.
  rl::QLearningAgent visited(config);
  visited.update(s, 2, 50.0, s);
  const std::string saved = ql_bytes(visited);
  io::ByteReader fields(saved);
  io::ByteWriter zeroed;
  zeroed.u32(fields.u32());  // version
  zeroed.str(fields.str());  // RNG
  fields.u64();
  zeroed.u64(0);  // steps
  ASSERT_EQ(fields.u64(), 1u);
  zeroed.u64(1);
  zeroed.u64(fields.u64());  // the key of s
  ASSERT_EQ(fields.u32(), 1u);
  ASSERT_EQ(fields.u32(), 2u);
  ASSERT_NE(fields.f64(), 0.0);
  zeroed.u32(0);
  fields.expect_end();
  rl::QLearningAgent materialized(config);
  io::ByteReader in(zeroed.buffer());
  materialized.load_state(in);
  ASSERT_EQ(materialized.table_size(), 1u);

  rl::QLearningAgent fresh(config);
  EXPECT_EQ(fresh.act_greedy(s), 0u);
  EXPECT_EQ(materialized.act_greedy(s), 0u);

  // Bootstrap from s on both; only s2 gains a row in the fresh agent.
  fresh.update(s2, 3, -7.0, s);
  materialized.update(s2, 3, -7.0, s);
  EXPECT_EQ(fresh.table_size(), 1u);
  EXPECT_EQ(fresh.act_greedy(s), 0u);
  EXPECT_EQ(fresh.act_greedy(s2), materialized.act_greedy(s2));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fresh.act(s), materialized.act(s));

  // The updated row of s2, bit for bit: the whole fresh payload must equal
  // the twin's with the empty row of s taken out.
  const auto rows_of = [](const rl::QLearningAgent& agent) {
    const std::string bytes = ql_bytes(agent);
    io::ByteReader r(bytes);
    r.u32();
    r.str();
    r.u64();
    std::map<std::uint64_t, std::string> rows;
    for (std::uint64_t n = r.u64(); n > 0; --n) {
      const std::uint64_t key = r.u64();
      const std::uint32_t count = r.u32();
      io::ByteWriter row;
      row.u32(count);
      for (std::uint32_t j = 0; j < count; ++j) {
        row.u32(r.u32());
        row.f64(r.f64());
      }
      rows.emplace(key, row.take());
    }
    return rows;
  };
  const auto fresh_rows = rows_of(fresh);
  auto twin_rows = rows_of(materialized);
  ASSERT_EQ(fresh_rows.size(), 1u);
  ASSERT_EQ(twin_rows.size(), 2u);
  const std::uint64_t key_s2 = fresh_rows.begin()->first;
  EXPECT_EQ(fresh_rows.at(key_s2), twin_rows.at(key_s2));
  io::ByteReader row(fresh_rows.at(key_s2));
  ASSERT_EQ(row.u32(), 1u);
  EXPECT_EQ(row.u32(), 3u);
  EXPECT_EQ(row.f64(), config.learning_rate *
                           (-7.0 * config.reward_scale + config.gamma * 0.0));
}

/// Byte offset of the stored q of (key, action) in a QLSTATE v2 payload.
std::size_t q_offset(std::string_view payload, std::uint64_t key,
                     std::uint32_t action) {
  io::ByteReader in(payload);
  in.u32();  // version
  in.str();  // RNG
  in.u64();  // steps
  for (std::uint64_t rows = in.u64(); rows > 0; --rows) {
    const std::uint64_t row_key = in.u64();
    for (std::uint32_t n = in.u32(); n > 0; --n) {
      const std::uint32_t a = in.u32();
      if (row_key == key && a == action) {
        return payload.size() - in.remaining();
      }
      in.f64();
    }
  }
  ADD_FAILURE() << "no stored q for action " << action;
  return payload.size();
}

TEST(QlState, DecoderRoundTripsEveryValueBitForBit) {
  // The agent keeps a loaded row's values, which never include +0.0 (it
  // reads as absent); everything else (-0.0, NaN payloads, subnormals)
  // must come back bit for bit, a row of no entries must stay a row, rows
  // must keep the payload's order, and the greedy action on each row must
  // be the dense row's argmax.
  rl::QLearningConfig config;
  config.state_dim = 4;
  config.num_actions = 6;
  const rl::DenseQlReference reference(config);
  const double nan = std::bit_cast<double>(0x7ff8000000000123ULL);
  const double neg_nan = std::bit_cast<double>(0xfff0000000000001ULL);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> rows = {
      {0.0, -0.0, 1.5, 0.0, -0.0, -2.0},
      {-0.0, 0.0, 0.0, -1.0, 0.0, 0.0},
      {nan, 3.0, 0.0, 0.0, 0.0, 0.0},
      {-1.0, -2.0, neg_nan, -0.5, -3.0, -4.0},
      {tiny, -tiny, 0.0, 4.9e-310, 0.0, -4.9e-310},
      {-1.0, 0.0, 0.0, 0.0, 0.0, -0.0},
      std::vector<double>(6, 0.0),
  };
  // One state per row, each in its own discretization cell.
  std::vector<std::vector<double>> states;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    states.push_back({0.1 + 0.4 * static_cast<double>(i % 3),
                      0.1 + 0.4 * static_cast<double>(i / 3), 0.5, 0.5});
    keys.push_back(reference.key_of(states[i]));
  }
  ASSERT_EQ(std::set<std::uint64_t>(keys.begin(), keys.end()).size(),
            rows.size());
  ASSERT_FALSE(std::is_sorted(keys.begin(), keys.end()));
  io::ByteWriter payload;
  payload.u32(rl::QLearningAgent::kStateVersion);
  payload.str(Rng(5).serialize_state());
  payload.u64(77);
  payload.u64(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {  // rows in list order
    payload.u64(keys[i]);
    std::vector<std::uint32_t> stored;
    for (std::uint32_t a = 0; a < rows[i].size(); ++a) {
      if (std::bit_cast<std::uint64_t>(rows[i][a]) != 0) stored.push_back(a);
    }
    payload.u32(static_cast<std::uint32_t>(stored.size()));
    for (const std::uint32_t a : stored) {
      payload.u32(a);
      payload.f64(rows[i][a]);
    }
  }

  rl::QLearningAgent agent(config);
  io::ByteReader in(payload.buffer());
  agent.load_state(in);
  in.expect_end();
  EXPECT_EQ(agent.table_size(), rows.size());
  EXPECT_EQ(ql_bytes(agent), payload.buffer());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(agent.act_greedy(states[i]), argmax(rows[i])) << "row " << i;
  }

  // Bootstrapping from each row takes the same maximum as the dense
  // reference loaded from the same payload.
  rl::DenseQlReference dense(config);
  io::ByteReader dense_in(payload.buffer());
  dense.load_state(dense_in);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    agent.update(states[(i + 1) % rows.size()], i % 6, -3.0, states[i]);
    dense.update(states[(i + 1) % rows.size()], i % 6, -3.0, states[i]);
  }
  io::ByteWriter dense_after;
  dense.save_state(dense_after);
  // All bytes match but one q. Update i = 2 moves row 3's signalling NaN
  // (action 2) toward the target bootstrapped from row 2, whose leading NaN
  // is its maximum, so q += lr·(target − q) adds two NaNs. Which payload
  // that add keeps depends on the operand order the compiler picks (x86
  // returns the first operand's), and neither IEEE 754 nor C++ fixes it.
  // IEEE 754 does fix that the result is a quiet NaN carrying one
  // operand's payload: the cell's quieted, or the target's.
  std::string got = ql_bytes(agent);
  std::string want = dense_after.buffer();
  ASSERT_EQ(got.size(), want.size());
  const std::size_t at = q_offset(want, keys[3], 2);
  ASSERT_LT(at, want.size());
  ASSERT_EQ(q_offset(got, keys[3], 2), at);
  const std::uint64_t quieted_cell =
      std::bit_cast<std::uint64_t>(neg_nan) | 0x0008000000000000ULL;
  const std::uint64_t target = std::bit_cast<std::uint64_t>(nan);
  for (const std::string* bytes : {&got, &want}) {
    io::ByteReader q(std::string_view(*bytes).substr(at, 8));
    const std::uint64_t bits = q.u64();
    EXPECT_TRUE(bits == quieted_cell || bits == target)
        << std::hex << "0x" << bits;
  }
  got.replace(at, 8, want, at, 8);
  EXPECT_EQ(got, want);
}

// The learner keeps each replay slot's target bootstrap for as long as the
// target network stays frozen; none of that is checkpointed. An agent that
// has trained on its own rows (so it holds bootstraps for the current
// target) then loads a checkpoint taken between two target syncs, whose
// replay is fuller than its own. Training on must give the bytes of an
// agent that never saved.
TEST(DqnState, ResumeMidEpochUsesNoStaleBootstrap) {
  rl::DqnConfig config;  // the paper net: 24-45-45-160, batch 32
  config.replay_capacity = 128;
  config.min_replay_before_training = 32;
  config.target_sync_interval = 50;
  config.seed = 4;
  const auto make_stream = [&config](std::uint64_t seed, std::size_t n) {
    Rng rng(seed);
    std::vector<rl::Transition> stream(n);
    for (rl::Transition& t : stream) {
      t.state.resize(config.state_dim);
      t.next_state.resize(config.state_dim);
      for (std::size_t k = 0; k < config.state_dim; ++k) {
        t.state[k] = rng.bernoulli(0.3) ? 0.0 : rng.normal();
        t.next_state[k] = rng.bernoulli(0.3) ? 0.0 : rng.normal();
      }
      t.action = rng.index(config.num_actions);
      t.reward = rng.uniform(-200.0, 0.0);
    }
    return stream;
  };
  const std::vector<rl::Transition> stream = make_stream(8, 300);
  const std::size_t save_at = 175;  // 144 gradient steps: mid-epoch
  ASSERT_NE((save_at - config.min_replay_before_training + 1) %
                config.target_sync_interval,
            0u);

  rl::DqnAgent reference(config);
  rl::DqnAgent source(config);
  for (std::size_t i = 0; i < save_at; ++i) {
    reference.observe(stream[i]);
    source.observe(stream[i]);
  }
  io::ContainerWriter saved;
  source.save_state(saved);

  rl::DqnAgent live(config);
  const std::vector<rl::Transition> detour = make_stream(9, 60);
  for (const rl::Transition& t : detour) live.observe(t);
  ASSERT_GT(live.gradient_steps(), 0u);
  ASSERT_LT(detour.size(), config.replay_capacity);  // < the saved replay
  live.load_state(io::ContainerReader::from_bytes(saved.to_bytes()));

  for (std::size_t i = save_at; i < stream.size(); ++i) {
    reference.observe(stream[i]);
    live.observe(stream[i]);
  }
  const auto bytes_of = [](const rl::DqnAgent& agent) {
    io::ContainerWriter out;
    agent.save_state(out);
    return out.to_bytes();
  };
  EXPECT_TRUE(bytes_of(live) == bytes_of(reference));
}

TEST(PolicyState, LoadPolicyRestoresGreedyBehaviourOnly) {
  DqnScheme trained(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  TrainerConfig config;
  config.max_slots = 300;
  config.reward_window = 50;
  train(trained, env, config);
  const std::string path = temp_path("ctj_policy.ctjs");
  save_scheme(trained, path);

  DqnScheme fresh(small_scheme_config());
  load_policy(fresh, path);
  const auto obs = trained.observation();
  EXPECT_EQ(fresh.agent().act_greedy(obs), trained.agent().act_greedy(obs));
  // Training state was deliberately not restored.
  EXPECT_EQ(fresh.agent().steps(), 0u);
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, KillResumeIsBitIdenticalSequential) {
  const std::string path = temp_path("ctj_resume_seq.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 400;
  config.reward_window = 50;

  // Reference: one uninterrupted run.
  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  CompetitionEnvironment ref_env(small_env_config());
  const auto ref_stats = train(ref, ref_env, config);
  ASSERT_EQ(ref_rewards.size(), 400u);

  // Killed + resumed: phase 1 stops at slot 250, phase 2 picks the
  // checkpoint up with the full budget in a fresh process-equivalent
  // (new scheme and environment objects).
  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 250;
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(small_env_config());
    train(scheme, env, phase1);
  }
  DqnScheme resumed(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  const auto stats = train(resumed, env, config);

  EXPECT_EQ(stats.slots_trained, 400u);
  EXPECT_EQ(stats.final_mean_reward, ref_stats.final_mean_reward);
  EXPECT_EQ(rewards, ref_rewards);  // identical per-slot reward stream
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));  // bit-identical state
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, KillResumeIsBitIdenticalAdaptiveJammer) {
  // Same kill/resume discipline against the behavioural adaptive jammer:
  // its checkpoint payload must carry BOTH of its RNG streams (own + nested
  // sweeper) and the visit histogram, or the resumed run diverges from the
  // reference within a few slots.
  const std::string path = temp_path("ctj_resume_adaptive.ctjs");
  std::filesystem::remove(path);

  EnvironmentConfig env_config = small_env_config();
  env_config.jammer = jammer::JammerSpec::defaults("adaptive");

  TrainerConfig config;
  config.max_slots = 400;
  config.reward_window = 50;

  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  CompetitionEnvironment ref_env(env_config);
  const auto ref_stats = train(ref, ref_env, config);
  ASSERT_EQ(ref_rewards.size(), 400u);

  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 250;
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(env_config);
    train(scheme, env, phase1);
  }
  DqnScheme resumed(small_scheme_config());
  CompetitionEnvironment env(env_config);
  const auto stats = train(resumed, env, config);

  EXPECT_EQ(stats.slots_trained, 400u);
  EXPECT_EQ(stats.final_mean_reward, ref_stats.final_mean_reward);
  EXPECT_EQ(rewards, ref_rewards);
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, ResumeRejectsDifferentJammerSpec) {
  // A checkpoint written against one adversary must not resume against
  // another: the JAMRCFG chunk check throws kStateMismatch.
  const std::string path = temp_path("ctj_resume_wrong_jammer.ctjs");
  std::filesystem::remove(path);

  EnvironmentConfig env_config = small_env_config();
  env_config.jammer = jammer::JammerSpec::defaults("reactive");

  TrainerConfig config;
  config.max_slots = 150;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(env_config);
    train(scheme, env, config);
  }

  EnvironmentConfig other = small_env_config();
  other.jammer = jammer::JammerSpec::defaults("sweep");
  DqnScheme resumed(small_scheme_config());
  CompetitionEnvironment env(other);
  config.max_slots = 400;
  EXPECT_THROW(train(resumed, env, config), io::IoError);
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, KillResumeIsBitIdenticalBatched) {
  const std::string path = temp_path("ctj_resume_batched.ctjs");
  std::filesystem::remove(path);
  const std::size_t replicas = 3;

  TrainerConfig config;
  config.max_slots = 402;  // multiple of the replica count
  config.reward_window = 50;

  std::vector<double> ref_rewards;
  config.on_slot = [&](std::size_t, double r) { ref_rewards.push_back(r); };
  DqnScheme ref(small_scheme_config());
  const auto ref_stats =
      train_batched(ref, small_env_config(), config, replicas);
  ASSERT_EQ(ref_rewards.size(), 402u);

  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  config.checkpoint = CheckpointOptions{path, 100, true};
  {
    TrainerConfig phase1 = config;
    phase1.max_slots = 201;
    DqnScheme scheme(small_scheme_config());
    train_batched(scheme, small_env_config(), phase1, replicas);
  }
  DqnScheme resumed(small_scheme_config());
  const auto stats =
      train_batched(resumed, small_env_config(), config, replicas);

  EXPECT_EQ(stats.slots_trained, 402u);
  EXPECT_EQ(stats.final_mean_reward, ref_stats.final_mean_reward);
  EXPECT_EQ(rewards, ref_rewards);
  EXPECT_EQ(scheme_bytes(resumed), scheme_bytes(ref));
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, ResumeWithNothingLeftToDoIsStable) {
  const std::string path = temp_path("ctj_resume_done.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 200;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 0, true};
  {
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(small_env_config());
    train(scheme, env, config);
  }
  std::ifstream f1(path, std::ios::binary);
  std::stringstream s1;
  s1 << f1.rdbuf();

  std::size_t extra_slots = 0;
  config.on_slot = [&](std::size_t, double) { ++extra_slots; };
  DqnScheme scheme(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  const auto stats = train(scheme, env, config);
  EXPECT_EQ(stats.slots_trained, 200u);
  EXPECT_EQ(extra_slots, 0u);  // no retraining happened

  std::ifstream f2(path, std::ios::binary);
  std::stringstream s2;
  s2 << f2.rdbuf();
  EXPECT_EQ(s1.str(), s2.str());  // rewrite is byte-identical
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, ResumeValidatesTrainerConfig) {
  const std::string path = temp_path("ctj_resume_cfg.ctjs");
  std::filesystem::remove(path);

  TrainerConfig config;
  config.max_slots = 150;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 0, true};
  {
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(small_env_config());
    train(scheme, env, config);
  }

  TrainerConfig changed = config;
  changed.reward_window = 60;
  DqnScheme scheme(small_scheme_config());
  CompetitionEnvironment env(small_env_config());
  try {
    train(scheme, env, changed);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }

  // A batched trainer must refuse a sequential checkpoint outright.
  DqnScheme batched(small_scheme_config());
  TrainerConfig batched_config = config;
  batched_config.max_slots = 150;
  try {
    train_batched(batched, small_env_config(), batched_config, 3);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
  }

  // A checkpoint of the retired parallel trainer: TRAINPRG mode 2 plus its
  // three chunks. Both trainers refuse it on the mode byte, before they
  // touch the scheme.
  const io::ContainerReader written = io::ContainerReader::from_file(path);
  io::ContainerWriter retired;
  for (const io::ChunkInfo& chunk : written.chunks()) {
    std::string payload(written.chunk(chunk.tag));
    if (chunk.tag == io::tags::kTrainProgress) payload[0] = 2;
    retired.add_chunk(chunk.tag, std::move(payload));
  }
  for (const char* tag : {"PARTRNST", "SHRDRPLY", "ACTSHRDS"}) {
    retired.add_chunk(tag, std::string(16, '\0'));
  }
  retired.write_file(path);
  const std::string fresh = scheme_bytes(DqnScheme(small_scheme_config()));
  {
    DqnScheme sequential(small_scheme_config());
    CompetitionEnvironment env2(small_env_config());
    try {
      train(sequential, env2, config);
      FAIL() << "expected IoError";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
    }
    EXPECT_EQ(scheme_bytes(sequential), fresh);
  }
  {
    DqnScheme batched2(small_scheme_config());
    try {
      train_batched(batched2, small_env_config(), batched_config, 3);
      FAIL() << "expected IoError";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kStateMismatch);
    }
    EXPECT_EQ(scheme_bytes(batched2), fresh);
  }
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, TrainProgressChunkLayout) {
  // TRAINPRG, field by field: mode u8, replicas u64, slots_trained u64,
  // early_stopped u8, reward_window u64, has_target u8, target f64, then the
  // reward window (running sum f64, length u64, values f64 oldest first).
  const std::string path = temp_path("ctj_trainprg_layout.ctjs");
  std::filesystem::remove(path);
  TrainerConfig config;
  config.max_slots = 300;
  config.reward_window = 50;
  config.target_mean_reward = 1e9;  // never reached: rewards are negative
  config.checkpoint = CheckpointOptions{path, 0, false};
  std::vector<double> rewards;
  config.on_slot = [&](std::size_t, double r) { rewards.push_back(r); };
  DqnScheme scheme(small_scheme_config());
  const auto stats = train_batched(scheme, small_env_config(), config, 3);

  const io::ContainerReader in = io::ContainerReader::from_file(path);
  io::ByteReader r(in.chunk(io::tags::kTrainProgress));
  EXPECT_EQ(r.u8(), 1u);  // train_batched
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.u64(), stats.slots_trained);
  EXPECT_EQ(r.u8() != 0, stats.early_stopped);
  EXPECT_EQ(r.u64(), config.reward_window);
  EXPECT_EQ(r.u8(), 1u);
  EXPECT_EQ(r.f64(), 1e9);
  const double window_sum = r.f64();
  ASSERT_EQ(r.u64(), config.reward_window);
  const std::vector<double> tail(rewards.end() - 50, rewards.end());
  for (double expect : tail) EXPECT_EQ(r.f64(), expect);
  r.expect_end();
  EXPECT_EQ(window_sum / 50.0, stats.final_mean_reward);
  std::filesystem::remove(path);
}

TEST(TrainerCheckpoint, WindowLongerThanSlotsTrainedIsRejected) {
  // A TRAINPRG whose window holds more rewards than slots were trained is
  // corrupt even when the window fits reward_window: resume must throw a
  // typed IoError before touching the scheme.
  const std::string path = temp_path("ctj_trainprg_window.ctjs");
  std::filesystem::remove(path);
  TrainerConfig config;
  config.max_slots = 150;
  config.reward_window = 50;
  config.checkpoint = CheckpointOptions{path, 0, true};
  {
    DqnScheme scheme(small_scheme_config());
    CompetitionEnvironment env(small_env_config());
    train(scheme, env, config);
  }

  // The written checkpoint with its TRAINPRG replaced by a hand-built one
  // whose 20-reward window claims `slots_trained` slots.
  const io::ContainerReader written = io::ContainerReader::from_file(path);
  const auto forge = [&](std::uint64_t slots_trained) {
    io::ContainerWriter out;
    for (const io::ChunkInfo& chunk : written.chunks()) {
      if (chunk.tag != io::tags::kTrainProgress) {
        out.add_chunk(chunk.tag, std::string(written.chunk(chunk.tag)));
        continue;
      }
      io::ByteWriter w;
      w.u8(0);  // sequential train()
      w.u64(1);
      w.u64(slots_trained);
      w.u8(0);
      w.u64(config.reward_window);
      w.u8(0);
      w.f64(0.0);
      w.f64(-200.0);
      w.u64(20);  // fits reward_window = 50
      for (int i = 0; i < 20; ++i) w.f64(-10.0);
      out.add_chunk(chunk.tag, w.take());
    }
    return out;
  };
  const auto decode = [&](std::uint64_t slots_trained) {
    return read_train_progress(
        io::ContainerReader::from_bytes(forge(slots_trained).to_bytes()), 0,
        1, config);
  };
  EXPECT_EQ(decode(20).window.size(), 20u);
  try {
    decode(10);
    FAIL() << "expected IoError";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kBadPayload);
  }

  // The same bytes on disk, through a resuming train(): typed error, and
  // the scheme is left exactly as constructed.
  forge(10).write_file(path);
  DqnScheme scheme(small_scheme_config());
  const std::string before = scheme_bytes(scheme);
  CompetitionEnvironment env(small_env_config());
  EXPECT_THROW(train(scheme, env, config), io::IoError);
  EXPECT_EQ(scheme_bytes(scheme), before);
  std::filesystem::remove(path);
}
