// Tests for the star-network substrate: timing model, medium, nodes, the
// slot executor, and the 802.15.4 MAC sublayer with CSMA/CA.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/mac.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/star_network.hpp"
#include "net/timing.hpp"
#include "phy/zigbee_packet.hpp"

namespace ctj::net {
namespace {

// ---------------------------------------------------------------- timing ----

TEST(Timing, PacketServiceTimeMatchesFig10Calibration) {
  TimingModel t;
  // RTT 0.9 ms + processing 0.6 ms + LBT ≈ 6.15 ms: a 3 s slot minus ~80 ms
  // overhead carries ~470 packets, the Fig. 10(a) scale.
  EXPECT_NEAR(t.packet_service_s(), 6.15e-3, 1e-4);
}

TEST(Timing, SampleJitterCentersOnNominal) {
  TimingModel t;
  Rng rng(1);
  RunningStats stats;
  for (int i = 0; i < 5000; ++i) stats.add(t.sample(9e-3, rng));
  EXPECT_NEAR(stats.mean(), 9e-3, 2e-4);
  EXPECT_GT(stats.stddev(), 1e-4);
}

TEST(Timing, ZeroJitterIsDeterministic) {
  TimingModel t;
  t.jitter_fraction = 0.0;
  Rng rng(2);
  EXPECT_DOUBLE_EQ(t.sample(9e-3, rng), 9e-3);
}

TEST(Timing, NegotiationScalesWithNodes) {
  TimingModel t;
  t.node_loss_probability = 0.0;
  t.jitter_fraction = 0.0;
  Rng rng(3);
  EXPECT_NEAR(t.negotiation_time_s(5, rng), 5 * 13.1e-3, 1e-9);
  EXPECT_NEAR(t.negotiation_time_s(10, rng), 10 * 13.1e-3, 1e-9);
}

TEST(Timing, LostNodesCauseSecondsLongTail) {
  // Fig. 9(b): with lost nodes the negotiation can take seconds.
  TimingModel t;
  t.node_loss_probability = 1.0;  // force every node to be lost once
  Rng rng(4);
  int lost = 0;
  const double total = t.negotiation_time_s(5, rng, &lost);
  EXPECT_EQ(lost, 5);
  EXPECT_GT(total, 1.0);
}

TEST(Timing, MeanNegotiationGrowsWithNetworkSize) {
  TimingModel t;
  Rng rng(5);
  double prev = 0.0;
  for (int nodes : {1, 4, 7, 10}) {
    RunningStats stats;
    for (int trial = 0; trial < 400; ++trial) {
      stats.add(t.negotiation_time_s(nodes, rng));
    }
    EXPECT_GT(stats.mean(), prev);
    prev = stats.mean();
  }
}

// ---------------------------------------------------------------- medium ----

TEST(Medium, NoJammingMeansCleanSinr) {
  Medium medium{channel::ZigbeeLink()};
  const double sinr = medium.sinr_db(3, 0.0, 3.0);
  EXPECT_GT(sinr, 20.0);  // 1 mW at 3 m is far above the noise floor
}

TEST(Medium, JammingOnOtherChannelIsHarmless) {
  Medium medium{channel::ZigbeeLink()};
  ActiveJamming jam;
  jam.channel = 7;
  medium.set_jamming(jam);
  EXPECT_NEAR(medium.sinr_db(3, 0.0, 3.0), medium.sinr_db(4, 0.0, 3.0), 1e-9);
  EXPECT_LT(medium.sinr_db(7, 0.0, 3.0), medium.sinr_db(3, 0.0, 3.0));
}

TEST(Medium, EmuBeeJamKillsWeakLink) {
  Medium medium{channel::ZigbeeLink()};
  ActiveJamming jam;
  jam.channel = 5;
  jam.type = channel::JammingSignalType::kEmuBee;
  jam.tx_power_dbm = 20.0;
  jam.distance_m = 8.0;
  medium.set_jamming(jam);
  EXPECT_GT(medium.packet_error_rate(5, -4.0, 3.0), 0.95);
}

TEST(Medium, DutyCycleInterpolatesPer) {
  Medium medium{channel::ZigbeeLink()};
  ActiveJamming jam;
  jam.channel = 5;
  jam.tx_power_dbm = 20.0;
  jam.distance_m = 8.0;
  jam.duty_cycle = 1.0;
  medium.set_jamming(jam);
  const double per_full = medium.packet_error_rate(5, -4.0, 3.0);
  jam.duty_cycle = 0.5;
  medium.set_jamming(jam);
  const double per_half = medium.packet_error_rate(5, -4.0, 3.0);
  jam.duty_cycle = 0.0;
  medium.set_jamming(jam);
  const double per_zero = medium.packet_error_rate(5, -4.0, 3.0);
  EXPECT_NEAR(per_half, 0.5 * per_full + 0.5 * per_zero, 1e-9);
}

TEST(Medium, CcaSeesZigbeeLikeSignalsOnly) {
  Medium medium{channel::ZigbeeLink()};
  ActiveJamming jam;
  jam.channel = 5;
  jam.tx_power_dbm = 20.0;
  jam.distance_m = 3.0;
  jam.type = channel::JammingSignalType::kEmuBee;
  medium.set_jamming(jam);
  EXPECT_TRUE(medium.channel_busy(5));
  EXPECT_FALSE(medium.channel_busy(6));
  jam.type = channel::JammingSignalType::kWifi;
  medium.set_jamming(jam);
  // Plain Wi-Fi fails the chip-correlation CCA: invisible to LBT.
  EXPECT_FALSE(medium.channel_busy(5));
}

TEST(Medium, CorruptRespectsBer) {
  Medium medium{channel::ZigbeeLink()};
  std::vector<std::uint8_t> frame(1000, 0x00);
  const auto zero = medium.corrupt(frame, 0.0);
  EXPECT_EQ(zero, frame);
  const auto heavy = medium.corrupt(frame, 0.5);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    flipped += static_cast<std::size_t>(__builtin_popcount(heavy[i]));
  }
  EXPECT_NEAR(static_cast<double>(flipped) / 8000.0, 0.5, 0.05);
}

// ------------------------------------------------------------------ nodes ----

TEST(Node, PeripheralFramesCarryIdAndSequence) {
  Peripheral p(3, 2.0);
  Rng rng(6);
  const auto f1 = p.next_frame(10, rng);
  const auto f2 = p.next_frame(10, rng);
  const auto in1 = phy::ZigbeeFrame::inspect(f1);
  const auto in2 = phy::ZigbeeFrame::inspect(f2);
  ASSERT_EQ(in1.status, phy::FrameStatus::kOk);
  const auto mac1 = MacFrame::parse(in1.payload);
  const auto mac2 = MacFrame::parse(in2.payload);
  ASSERT_TRUE(mac1.has_value());
  ASSERT_TRUE(mac2.has_value());
  EXPECT_EQ(mac1->src_addr, 3);
  EXPECT_TRUE(mac1->ack_request);
  EXPECT_EQ(mac1->payload[0], 3);
  const auto seq1 = static_cast<int>(mac1->payload[1] | (mac1->payload[2] << 8));
  const auto seq2 = static_cast<int>(mac2->payload[1] | (mac2->payload[2] << 8));
  EXPECT_EQ(seq2, seq1 + 1);
}

TEST(Node, HubProducesMatchingAck) {
  Hub hub;
  Peripheral p(4, 2.0);
  Rng rng(8);
  const auto frame = p.next_frame(12, rng);
  ASSERT_TRUE(hub.receive(frame));
  const auto& ack_bytes = hub.last_ack_bytes();
  ASSERT_FALSE(ack_bytes.empty());
  const auto inspection = phy::ZigbeeFrame::inspect(ack_bytes);
  ASSERT_EQ(inspection.status, phy::FrameStatus::kOk);
  const auto ack = MacFrame::parse(inspection.payload);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(p.last_mac_frame().acked_by(*ack));
}

TEST(Node, HubCountsDeliveredAndCorrupted) {
  Hub hub;
  Peripheral p(1, 2.0);
  Rng rng(7);
  const auto good = p.next_frame(10, rng);
  EXPECT_TRUE(hub.receive(good));
  auto bad = p.next_frame(10, rng);
  bad[8] ^= 0xFF;
  EXPECT_FALSE(hub.receive(bad));
  EXPECT_EQ(hub.total_delivered(), 1u);
  EXPECT_EQ(hub.total_corrupted(), 1u);
  EXPECT_EQ(hub.record(1).delivered, 1u);
}

TEST(Node, AnnouncementUpdatesChannelAndPower) {
  Peripheral p(2, 3.0);
  p.apply_announcement(9, 2.5);
  EXPECT_EQ(p.channel(), 9);
  EXPECT_DOUBLE_EQ(p.tx_power_dbm(), 2.5);
}

// ---------------------------------------------------------- star network ----

StarNetworkConfig quick_config() {
  StarNetworkConfig c;
  c.num_peripherals = 4;
  c.slot_duration_s = 1.0;
  c.timing.jitter_fraction = 0.0;
  c.timing.node_loss_probability = 0.0;
  c.seed = 11;
  return c;
}

TEST(StarNetwork, PowerLevelMapping) {
  EXPECT_DOUBLE_EQ(tx_level_to_dbm(6.0), -4.0);
  EXPECT_DOUBLE_EQ(tx_level_to_dbm(15.0), 5.0);
  EXPECT_DOUBLE_EQ(jam_level_to_dbm(11.0), 11.0);
  EXPECT_DOUBLE_EQ(jam_level_to_dbm(20.0), 20.0);
}

TEST(StarNetwork, CleanSlotDeliversNearlyEverything) {
  StarNetwork net(quick_config());
  SlotDecision decision;
  decision.channel = 3;
  decision.tx_power_dbm = 0.0;
  const auto stats = net.run_slot(decision, std::nullopt);
  EXPECT_GT(stats.packets_attempted, 100u);
  EXPECT_GT(stats.delivery_ratio, 0.98);
  EXPECT_TRUE(stats.success);
  EXPECT_FALSE(stats.jammed);
}

TEST(StarNetwork, JammedSlotFails) {
  StarNetwork net(quick_config());
  SlotDecision decision;
  decision.channel = 3;
  decision.tx_power_dbm = -4.0;  // lowest victim power
  ActiveJamming jam;
  jam.channel = 3;
  jam.type = channel::JammingSignalType::kEmuBee;
  jam.tx_power_dbm = 20.0;
  jam.distance_m = 8.0;
  const auto stats = net.run_slot(decision, jam);
  EXPECT_TRUE(stats.jammed);
  EXPECT_LT(stats.delivery_ratio, 0.1);
  EXPECT_FALSE(stats.success);
}

TEST(StarNetwork, OverheadReducesWindow) {
  StarNetwork net(quick_config());
  SlotDecision decision;
  decision.channel = 0;
  decision.decision_time_s = 9e-3;
  const auto stats = net.run_slot(decision, std::nullopt);
  // 4 nodes × 13.1 ms polling + 9 ms DQN ≈ 61 ms overhead.
  EXPECT_NEAR(stats.overhead_s, 0.0614, 0.002);
  EXPECT_NEAR(stats.window_s, 1.0 - stats.overhead_s, 1e-9);
}

TEST(StarNetwork, GoodputScalesWithSlotDuration) {
  // Fig. 10(a): longer slots carry more packets per slot.
  double prev = 0.0;
  for (double duration : {1.0, 3.0, 5.0}) {
    auto config = quick_config();
    config.slot_duration_s = duration;
    StarNetwork net(config);
    SlotDecision decision;
    decision.channel = 2;
    decision.tx_power_dbm = 0.0;
    for (int i = 0; i < 10; ++i) net.run_slot(decision, std::nullopt);
    EXPECT_GT(net.goodput_packets_per_slot(), prev);
    prev = net.goodput_packets_per_slot();
  }
}

TEST(StarNetwork, UtilizationImprovesWithSlotDuration) {
  // Fig. 10(b): fixed overhead amortizes over longer slots.
  double prev = 0.0;
  for (double duration : {1.0, 3.0, 5.0}) {
    auto config = quick_config();
    config.slot_duration_s = duration;
    StarNetwork net(config);
    SlotDecision decision;
    decision.channel = 2;
    for (int i = 0; i < 10; ++i) net.run_slot(decision, std::nullopt);
    EXPECT_GT(net.mean_utilization(), prev);
    prev = net.mean_utilization();
  }
  EXPECT_GT(prev, 0.97);  // ~98.6 % at 5 s in the paper
}

TEST(StarNetwork, PacketLevelModeExercisesRealFrames) {
  auto config = quick_config();
  config.packet_level = true;
  config.slot_duration_s = 0.5;
  StarNetwork net(config);
  SlotDecision decision;
  decision.channel = 1;
  decision.tx_power_dbm = 0.0;
  const auto stats = net.run_slot(decision, std::nullopt);
  EXPECT_GT(stats.packets_delivered, 0u);
  EXPECT_EQ(net.hub().total_delivered(), stats.packets_delivered);
}

TEST(StarNetwork, AccountingResets) {
  StarNetwork net(quick_config());
  SlotDecision decision;
  decision.channel = 0;
  net.run_slot(decision, std::nullopt);
  EXPECT_EQ(net.slots_run(), 1u);
  net.reset_accounting();
  EXPECT_EQ(net.slots_run(), 0u);
  EXPECT_DOUBLE_EQ(net.goodput_packets_per_slot(), 0.0);
}

TEST(StarNetwork, RejectsBadChannel) {
  StarNetwork net(quick_config());
  SlotDecision decision;
  decision.channel = 99;
  EXPECT_THROW(net.run_slot(decision, std::nullopt), CheckFailure);
}

// -------------------------------------------------------------------- MAC ----

TEST(Mac, DataFrameRoundTrip) {
  net::MacFrame frame;
  frame.type = net::MacFrameType::kData;
  frame.ack_request = true;
  frame.sequence = 42;
  frame.pan_id = 0xBEEF;
  frame.dest_addr = 0x0001;
  frame.src_addr = 0x0A0B;
  frame.payload = {1, 2, 3, 4};
  const auto bytes = frame.serialize();
  const auto parsed = net::MacFrame::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, net::MacFrameType::kData);
  EXPECT_TRUE(parsed->ack_request);
  EXPECT_EQ(parsed->sequence, 42);
  EXPECT_EQ(parsed->pan_id, 0xBEEF);
  EXPECT_EQ(parsed->dest_addr, 0x0001);
  EXPECT_EQ(parsed->src_addr, 0x0A0B);
  EXPECT_EQ(parsed->payload, frame.payload);
}

TEST(Mac, AckFrameIsMinimal) {
  net::MacFrame data;
  data.sequence = 9;
  data.ack_request = true;
  const net::MacFrame ack = data.make_ack();
  const auto bytes = ack.serialize();
  EXPECT_EQ(bytes.size(), 3u);  // FCF + sequence only
  const auto parsed = net::MacFrame::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(data.acked_by(*parsed));
}

TEST(Mac, WrongSequenceDoesNotAck) {
  net::MacFrame data;
  data.sequence = 9;
  net::MacFrame ack = data.make_ack();
  ack.sequence = 10;
  EXPECT_FALSE(data.acked_by(ack));
}

TEST(Mac, ParseRejectsGarbage) {
  const std::vector<std::uint8_t> tiny = {0x01};
  EXPECT_FALSE(net::MacFrame::parse(tiny).has_value());
  // Addressed frame truncated before the addressing fields.
  std::vector<std::uint8_t> truncated = {0x01, 0x08, 0x05, 0xFE};
  EXPECT_FALSE(net::MacFrame::parse(truncated).has_value());
}

TEST(Mac, FrameTypeNames) {
  EXPECT_STREQ(net::to_string(net::MacFrameType::kAck), "ack");
  EXPECT_STREQ(net::to_string(net::MacFrameType::kBeacon), "beacon");
}

TEST(CsmaCa, IdleChannelGrantsQuickly) {
  net::CsmaCa csma;
  Rng rng(8);
  const auto attempt = csma.attempt(0.0, rng);
  EXPECT_TRUE(attempt.success);
  EXPECT_EQ(attempt.backoffs, 1);
  // Max first backoff: 7 units × 320 µs + one CCA.
  EXPECT_LE(attempt.delay_s, 7 * 320e-6 + 128e-6 + 1e-12);
}

TEST(CsmaCa, AlwaysBusyChannelFails) {
  net::CsmaCa csma;
  Rng rng(9);
  const auto attempt = csma.attempt(1.0, rng);
  EXPECT_FALSE(attempt.success);
  EXPECT_EQ(attempt.backoffs, csma.config().max_backoffs);
}

TEST(CsmaCa, DelayGrowsWithBusyProbability) {
  net::CsmaCa csma;
  Rng rng(10);
  auto mean_delay = [&](double busy) {
    double total = 0.0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i) total += csma.attempt(busy, rng).delay_s;
    return total / trials;
  };
  EXPECT_LT(mean_delay(0.0), mean_delay(0.5));
  EXPECT_LT(mean_delay(0.5), mean_delay(0.9));
}

TEST(CsmaCa, SuccessRateMatchesGeometricBound) {
  net::CsmaCa csma;
  Rng rng(11);
  const double busy = 0.5;
  int successes = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    successes += csma.attempt(busy, rng).success ? 1 : 0;
  }
  // P(success) = 1 − busy^max_backoffs = 1 − 0.5^4.
  EXPECT_NEAR(static_cast<double>(successes) / trials, 1.0 - std::pow(0.5, 4),
              0.02);
}

TEST(CsmaCoverage, BackoffExponentGrowsDelayOnBusyChannel) {
  net::CsmaCa csma;
  Rng rng(20);
  // With a busy channel, later backoffs draw from larger windows: the mean
  // delay of failures exceeds 3 unit-backoff draws from BE=3 alone.
  double total = 0.0;
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto attempt = csma.attempt(1.0, rng);
    if (!attempt.success) {
      total += attempt.delay_s;
      ++failures;
    }
  }
  ASSERT_GT(failures, 0);
  const double mean_fail_delay = total / failures;
  // Expected: (3.5 + 7.5 + 15.5 + 15.5) × 320 µs + 4 CCA ≈ 13.9 ms.
  EXPECT_NEAR(mean_fail_delay, 13.9e-3, 1.5e-3);
}

// ------------------------------------------------------------------ hub ----

TEST(HubCoverage, DuplicateSequencesCounted) {
  net::Hub hub;
  net::MacFrame frame;
  frame.type = net::MacFrameType::kData;
  frame.src_addr = 2;
  frame.sequence = 5;
  frame.payload = {2, 5, 0, 9};
  const auto bytes = phy::ZigbeeFrame::build(frame.serialize());
  EXPECT_TRUE(hub.receive(bytes));
  EXPECT_TRUE(hub.receive(bytes));  // retransmission of the same sequence
  EXPECT_EQ(hub.record(2).duplicates, 1u);
  EXPECT_EQ(hub.record(2).delivered, 2u);
}

}  // namespace
}  // namespace ctj::net
