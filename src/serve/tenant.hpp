// One tenant simulation, steppable in quanta and spoolable to CTJS.
//
// A TenantRunner owns everything a tenant job needs — scheme, environment,
// reward-window bookkeeping — and advances it `run(max_slots)` at a time, so
// the serve engine can multiplex thousands of tenants over a fixed worker
// pool. Two invariants make the engine's guarantees fall out of this class
// alone:
//
//  * Stepping is deterministic and cut-independent: the runner holds no
//    state outside itself, and run() consumes RNG exactly as an
//    uninterrupted loop would, so any sequence of quanta produces the same
//    trajectory bit for bit. DQN tenants step a core::DqnRollout
//    (core/vector_env.hpp), the lockstep core core::train_batched runs,
//    with the same act_batch/observe order; the serve tests assert the two
//    agree stream for stream.
//
//  * save()/load() round-trip the complete state through a CTJS container
//    (SRVJOB + JAMRCFG + SRVPRG + the scheme/env chunks), so an evicted
//    tenant revived on a different worker — or a different day — continues
//    bit-identically. load() rejects a checkpoint whose JobSpec or
//    adversary differs from the expected one (io::IoError kStateMismatch),
//    extending the trainer's JAMRCFG protection to the serve layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/reward_window.hpp"
#include "io/container.hpp"
#include "serve/job.hpp"

namespace ctj::serve {

class TenantRunner {
 public:
  /// Construct a fresh runner for the spec (spec.validate() must pass).
  static std::unique_ptr<TenantRunner> create(const JobSpec& spec);

  /// Revive a runner from a checkpoint written by save(). The stored
  /// JobSpec and adversary must equal `expect` (io::IoError kStateMismatch
  /// otherwise); any container/payload corruption throws the usual typed
  /// io::IoError.
  static std::unique_ptr<TenantRunner> load(const std::string& path,
                                            const JobSpec& expect);

  virtual ~TenantRunner() = default;

  const JobSpec& spec() const { return spec_; }
  bool done() const { return slots_done_ >= spec_.slots; }
  std::uint64_t slots_done() const { return slots_done_; }

  /// Advance up to `max_slots` more slots (never past the budget). DQN
  /// runners round down to whole replica rounds (minimum one), so every cut
  /// lands at an outer-loop boundary. Returns the slots actually run.
  std::size_t run(std::size_t max_slots);

  /// The result so far (final once done()). `evictions` is left 0 — the
  /// engine owns that count.
  JobResult result() const;

  /// Write the full tenant state to `path` atomically (CTJS temp+rename).
  void save(const std::string& path) const;

 protected:
  explicit TenantRunner(const JobSpec& spec)
      : spec_(spec),
        window_(static_cast<std::size_t>(spec.reward_window)) {}

  /// Advance exactly `slots` slots (pre-rounded by run()).
  virtual void step_slots(std::size_t slots) = 0;
  /// Slots per indivisible round (replicas for DQN, 1 otherwise).
  virtual std::size_t round_slots() const { return 1; }
  /// Append the scheme/env chunks to a checkpoint under construction.
  virtual void save_state_chunks(io::ContainerWriter& out) const = 0;
  /// Restore the scheme/env chunks (strong guarantee per component).
  virtual void load_state_chunks(const io::ContainerReader& in) = 0;
  /// The adversary spec as the live environment carries it (post geometry
  /// sync) — what JAMRCFG records and checks.
  virtual const jammer::JammerSpec& live_jammer_spec() const = 0;
  /// JobResult::state_crc: the CRC-32 of the scheme's serialized state —
  /// the CTJS container of its chunks for DQN, the QLSTATE/FHSTATE payload
  /// otherwise. The latter is written by the same encoder as the spool's
  /// chunk, into a digest writer that CRCs the bytes as they come and keeps
  /// none of them (a QL table's payload is 2.4 MB after 2 048 slots).
  virtual std::uint32_t scheme_state_crc() const = 0;

  /// Per-slot bookkeeping shared by every scheme: reward window, stream
  /// CRC, outcome counters. The window is the trainers' core::RewardWindow.
  void record_slot(double reward, bool success, bool jammed, bool hopped);

  JobSpec spec_;

 private:
  void save_progress(io::ContainerWriter& out) const;
  void load_progress(const io::ContainerReader& in);

  std::uint64_t slots_done_ = 0;
  core::RewardWindow window_;
  double reward_sum_ = 0.0;
  std::uint64_t successes_ = 0;
  std::uint64_t jammed_slots_ = 0;
  std::uint64_t hops_ = 0;
  std::uint32_t reward_crc_ = 0;
  std::vector<double> rewards_;  // only when spec_.record_rewards
};

}  // namespace ctj::serve
