// Micro-benchmarks (google-benchmark) of the hot paths: FFT (plan cache vs
// per-call), matmul (blocked kernel vs naive reference), MLP forward
// (cached vs allocation-free eval), Viterbi (single-symbol and batched),
// ZigBee despreading, 64-QAM quantization, the Eq. (2) α search (cold and
// warm-start), end-to-end EmuBee packet emulation, DQN inference and
// training step, environment step, and the MDP solvers (full value
// iteration vs the threshold-family solver).
//
// On top of the static benchmarks, main() registers one benchmark per
// (kernel, SIMD level) pair — scalar always, AVX2/AVX-512 when the CPU
// supports them — by calling scalar_ops()/avx2_ops()/avx512_ops() directly,
// so one run measures every level regardless of the CTJ_SIMD dispatch
// choice. A pair of rollout
// benches compares per-slot greedy evaluation against the batched
// VectorEnv + act_greedy_batch path at the same work per decision.
//
// A diagnostic with no committed record: for machine-readable results pass
// --benchmark_out=FILE --benchmark_out_format=json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "core/environment.hpp"
#include "core/vector_env.hpp"
#include "mdp/analysis.hpp"
#include "mdp/value_iteration.hpp"
#include "phy/convolutional.hpp"
#include "phy/emulation.hpp"
#include "phy/fft.hpp"
#include "phy/qam.hpp"
#include "phy/zigbee_phy.hpp"
#include "rl/dqn.hpp"
#include "rl/matrix.hpp"
#include "rl/nn.hpp"

namespace {

using namespace ctj;

rl::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  rl::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = rng.normal();
  return m;
}

// Reference triple loop with the same ikj order and k-accumulation as the
// blocked kernel — the baseline the blocked variant is measured against.
void matmul_naive(rl::Matrix& c, const rl::Matrix& a, const rl::Matrix& b) {
  c.resize(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(k, j);
      }
    }
  }
}

void BM_Fft64(benchmark::State& state) {
  Rng rng(1);
  phy::IqBuffer x(64);
  for (auto& v : x) v = phy::Cplx(rng.normal(), rng.normal());
  for (auto _ : state) {
    phy::IqBuffer y = x;
    phy::fft_inplace(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft64);

void BM_FftPlanCached(benchmark::State& state) {
  // Same transform as BM_Fft64 at N=range(0), but through the explicit plan
  // handle — isolates the (tiny) cache-lookup overhead of fft_inplace.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  phy::IqBuffer x(n);
  for (auto& v : x) v = phy::Cplx(rng.normal(), rng.normal());
  const phy::FftPlan& plan = phy::FftPlan::for_size(n);
  for (auto _ : state) {
    phy::IqBuffer y = x;
    plan.forward(y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FftPlanCached)->Arg(64)->Arg(256);

void BM_MatmulNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto a = random_matrix(n, n, rng);
  const auto b = random_matrix(n, n, rng);
  rl::Matrix c;
  for (auto _ : state) {
    matmul_naive(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulNaive)->Arg(32)->Arg(64)->Arg(160);

void BM_MatmulBlocked(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto a = random_matrix(n, n, rng);
  const auto b = random_matrix(n, n, rng);
  rl::Matrix c;
  for (auto _ : state) {
    rl::matmul_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulBlocked)->Arg(32)->Arg(64)->Arg(160);

void BM_MlpForwardAlloc(benchmark::State& state) {
  // Per-call allocating forward (the thread-safe const path).
  Rng rng(7);
  rl::Mlp mlp({24, 45, 45, 160}, rng);
  const auto x = random_matrix(32, 24, rng);
  for (auto _ : state) {
    rl::Matrix y = mlp.forward_const(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MlpForwardAlloc);

void BM_MlpForwardEval(benchmark::State& state) {
  // Allocation-free eval path used by the train-step target computations.
  Rng rng(7);
  rl::Mlp mlp({24, 45, 45, 160}, rng);
  const auto x = random_matrix(32, 24, rng);
  rl::Matrix y, scratch_a, scratch_b;
  for (auto _ : state) {
    mlp.forward_scratch(x, y, scratch_a, scratch_b);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MlpForwardEval);

void BM_ViterbiDecodeSymbol(benchmark::State& state) {
  Rng rng(2);
  const phy::Bits info = phy::random_bits(144, rng);
  const phy::Bits coded = phy::ConvolutionalCode::encode(info);
  for (auto _ : state) {
    auto decoded = phy::ConvolutionalCode::decode(coded);
    benchmark::DoNotOptimize(decoded.data());
  }
}
BENCHMARK(BM_ViterbiDecodeSymbol);

void BM_ViterbiDecodeBatch(benchmark::State& state) {
  // decode_batch over range(0) symbols — the shape decode_payload_points
  // feeds it (one OFDM payload per call, trellis tables and scratch reused
  // across symbols).
  const std::size_t symbols = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  phy::Bits coded_all;
  for (std::size_t s = 0; s < symbols; ++s) {
    const phy::Bits info = phy::random_bits(144, rng);
    const phy::Bits coded = phy::ConvolutionalCode::encode(info);
    coded_all.insert(coded_all.end(), coded.begin(), coded.end());
  }
  for (auto _ : state) {
    auto decoded = phy::ConvolutionalCode::decode_batch(coded_all, symbols);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(symbols));
}
BENCHMARK(BM_ViterbiDecodeBatch)->Arg(8);

void BM_ZigbeeDespreadSymbol(benchmark::State& state) {
  phy::ZigbeePhy phy(4);
  const std::vector<std::size_t> syms = {7};
  const auto wave = phy.modulate_symbols(syms);
  for (auto _ : state) {
    auto decoded = phy.demodulate_symbols(wave, 1);
    benchmark::DoNotOptimize(decoded.data());
  }
}
BENCHMARK(BM_ZigbeeDespreadSymbol);

void BM_QamQuantize48(benchmark::State& state) {
  Rng rng(3);
  phy::IqBuffer targets(48);
  for (auto& t : targets) t = phy::Cplx(rng.normal(), rng.normal());
  for (auto _ : state) {
    double err = phy::quantization_error(targets, 1.3);
    benchmark::DoNotOptimize(err);
  }
}
BENCHMARK(BM_QamQuantize48);

void BM_OptimalAlpha(benchmark::State& state) {
  Rng rng(4);
  phy::IqBuffer targets(static_cast<std::size_t>(state.range(0)));
  for (auto& t : targets) t = phy::Cplx(rng.normal(), rng.normal());
  for (auto _ : state) {
    double alpha = phy::optimal_alpha(targets);
    benchmark::DoNotOptimize(alpha);
  }
}
BENCHMARK(BM_OptimalAlpha)->Arg(48)->Arg(480);

void BM_AlphaWarmStart(benchmark::State& state) {
  // Steady-state AlphaSearch::solve on a repeated target set — the Eq. (2)
  // cost EmuBee actually pays per packet after the first (the cold first
  // solve runs outside the timed loop). Compare against BM_OptimalAlpha at
  // the same size for the warm-start win.
  Rng rng(4);
  phy::IqBuffer targets(static_cast<std::size_t>(state.range(0)));
  for (auto& t : targets) t = phy::Cplx(rng.normal(), rng.normal());
  phy::AlphaSearch search;
  double cold = search.solve(targets);
  benchmark::DoNotOptimize(cold);
  for (auto _ : state) {
    double alpha = search.solve(targets);
    benchmark::DoNotOptimize(alpha);
  }
}
BENCHMARK(BM_AlphaWarmStart)->Arg(480);

void BM_EmulatePacket(benchmark::State& state) {
  // One EmuBee packet end to end: designed ZigBee waveform → per-symbol
  // spectra → Eq. (2) α → inverse Wi-Fi chain (quantize, demap,
  // deinterleave, batched Viterbi, descramble) → forward chain → EVM.
  // 4 ZigBee symbols = 1280 samples = 20 OFDM symbols. Warm-start α applies
  // from the second iteration, as in a streaming attack.
  const std::vector<std::size_t> syms = {3, 14, 7, 9};
  const phy::IqBuffer designed = phy::design_zigbee_waveform(syms);
  phy::EmuBeeEmulator emulator;
  for (auto _ : state) {
    auto result = emulator.emulate(designed);
    benchmark::DoNotOptimize(result.payload_bits.data());
  }
}
BENCHMARK(BM_EmulatePacket);

void BM_DqnInference(benchmark::State& state) {
  rl::DqnConfig config;  // the Fig. 4 network: 24-45-45-160
  rl::DqnAgent agent(config);
  std::vector<double> obs(config.state_dim, 0.3);
  for (auto _ : state) {
    auto action = agent.act_greedy(obs);
    benchmark::DoNotOptimize(action);
  }
}
BENCHMARK(BM_DqnInference);

void BM_DqnTrainStep(benchmark::State& state) {
  rl::DqnConfig config;
  config.min_replay_before_training = 32;
  rl::DqnAgent agent(config);
  Rng rng(5);
  std::vector<double> obs(config.state_dim);
  for (int i = 0; i < 256; ++i) {
    for (auto& v : obs) v = rng.uniform();
    agent.observe({obs, rng.index(config.num_actions), -10.0, obs, false});
  }
  for (auto _ : state) {
    auto loss = agent.train_step();
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_DqnTrainStep);

void BM_EnvironmentStep(benchmark::State& state) {
  core::CompetitionEnvironment env(core::EnvironmentConfig::defaults());
  int channel = 0;
  for (auto _ : state) {
    channel = (channel + 1) % 16;
    auto step = env.step(channel, 3);
    benchmark::DoNotOptimize(step.reward);
  }
}
BENCHMARK(BM_EnvironmentStep);

void BM_ValueIterationSolve(benchmark::State& state) {
  auto params = mdp::AntijamParams::defaults();
  params.sweep_cycle = static_cast<int>(state.range(0));
  params.mode = JammerPowerMode::kRandomPower;
  for (auto _ : state) {
    const mdp::AntijamMdp model(params);
    auto sol = mdp::solve(model);
    benchmark::DoNotOptimize(sol.value.data());
  }
}
BENCHMARK(BM_ValueIterationSolve)->Arg(4)->Arg(16);

void BM_ThresholdSolve(benchmark::State& state) {
  // Same model-build-plus-solve shape as BM_ValueIterationSolve, but through
  // the Thm. III.4–III.5 threshold-family solver (restricted policy
  // iteration + Bellman certificate) instead of fixed-point value iteration.
  auto params = mdp::AntijamParams::defaults();
  params.sweep_cycle = static_cast<int>(state.range(0));
  params.mode = JammerPowerMode::kRandomPower;
  for (auto _ : state) {
    const mdp::AntijamMdp model(params);
    auto sol = mdp::threshold_solve(model);
    benchmark::DoNotOptimize(sol.solution.value.data());
  }
}
BENCHMARK(BM_ThresholdSolve)->Arg(4)->Arg(16);

// ----------------------------------------------- rollout: per-slot batched --
// Both benches do the same work per decision (one greedy action, one
// environment step, one observation-window slide); the batched variant
// amortizes a single [R × 24] forward pass across R replicas. One iteration
// of the batched bench is R decisions, so the per-decision speedup is
// per_slot_ns / (batched_ns / R).

constexpr std::size_t kEvalReplicas = 16;

void BM_EvalPerSlotDecision(benchmark::State& state) {
  rl::DqnConfig config;
  rl::DqnAgent agent(config);
  const auto envc = core::EnvironmentConfig::defaults();
  const std::size_t pl = envc.tx_levels.size();
  core::VectorEnv venv(envc, 1);
  core::ObservationWindows windows(1, config.state_dim / 3, envc.num_channels,
                                   pl);
  std::vector<double> obs;
  int channel[1];
  std::size_t power[1];
  for (auto _ : state) {
    const auto row = windows.row(0);
    obs.assign(row.begin(), row.end());
    const std::size_t a = agent.act_greedy(obs);
    channel[0] = static_cast<int>(a / pl);
    power[0] = a % pl;
    venv.step(channel, power);
    windows.push(0, venv.successes()[0] != 0, venv.channels()[0], power[0]);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalPerSlotDecision);

// The per-slot eval path as it stood before the kernel layer: the scalar
// reference kernels (bit-identical arithmetic to the pre-kernel Matrix/Mlp
// loops, verified by the conformance harness) and a fresh observation vector
// per slot — the heap churn DqnAgent::act_greedy used to pay. Runs the
// manual forward on the agent's real weights so the ReLU sparsity the
// kernels exploit is the same in all three eval benches.
void BM_EvalPerSlotScalarDecision(benchmark::State& state) {
  rl::DqnConfig config;
  rl::DqnAgent agent(config);
  const auto envc = core::EnvironmentConfig::defaults();
  const std::size_t pl = envc.tx_levels.size();
  core::VectorEnv venv(envc, 1);
  core::ObservationWindows windows(1, config.state_dim / 3, envc.num_channels,
                                   pl);
  const kern::KernelOps& ops = kern::scalar_ops();
  const rl::Mlp& net = agent.online_network();
  rl::Matrix act_a(1, config.state_dim), act_b(1, config.state_dim);
  int channel[1];
  std::size_t power[1];
  for (auto _ : state) {
    const auto row = windows.row(0);
    std::vector<double> obs(row.begin(), row.end());  // per-slot allocation
    rl::Matrix* x = &act_a;
    rl::Matrix* y = &act_b;
    x->resize(1, config.state_dim);
    std::copy(obs.begin(), obs.end(), x->data());
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const rl::Matrix& w = net.layer(l).weights();
      const rl::Matrix& bias = net.layer(l).bias();
      y->resize(1, w.cols());
      y->fill(0.0);
      ops.matmul_acc(y->data(), x->data(), w.data(), 1, w.rows(), w.cols(),
                     w.rows(), 1);
      ops.bias_act(y->data(), bias.data(), 1, w.cols(),
                   l + 1 < net.num_layers());
      std::swap(x, y);
    }
    const std::size_t a = ops.row_argmax(x->data(), x->cols());
    channel[0] = static_cast<int>(a / pl);
    power[0] = a % pl;
    venv.step(channel, power);
    windows.push(0, venv.successes()[0] != 0, venv.channels()[0], power[0]);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalPerSlotScalarDecision);

void BM_EvalBatchedDecision(benchmark::State& state) {
  const std::size_t replicas = static_cast<std::size_t>(state.range(0));
  rl::DqnConfig config;
  rl::DqnAgent agent(config);
  const auto envc = core::EnvironmentConfig::defaults();
  core::DqnScheme::Config sc;
  sc.history = config.state_dim / 3;
  sc.num_channels = envc.num_channels;
  sc.num_power_levels = envc.num_power_levels();
  core::DqnRollout rollout(envc, sc, replicas);
  const auto act = [&](const rl::Matrix& states,
                       std::span<std::size_t> actions) {
    agent.act_greedy_batch(states, actions);
  };
  for (auto _ : state) {
    rollout.step(act, [](std::size_t) { return true; });
    benchmark::DoNotOptimize(rollout.actions().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(replicas));
}
BENCHMARK(BM_EvalBatchedDecision)->Arg(kEvalReplicas);

// -------------------------------------------- kernel-level SIMD vs scalar --
// One benchmark per (kernel, level) pair, registered at run time so a single
// run measures the scalar reference and — when the CPU has AVX2+FMA — the
// AVX2 set side by side, independent of the CTJ_SIMD dispatch choice.
// Shapes are the DQN hot-path shapes: batch 32, hidden 45, 160 actions.

void register_kernel_benches() {
  struct Level {
    const char* name;
    const kern::KernelOps* ops;
  };
  std::vector<Level> levels = {{"scalar", &kern::scalar_ops()}};
  if (kern::avx2_ops() != nullptr && kern::cpu_supports_avx2()) {
    levels.push_back({"avx2", kern::avx2_ops()});
  }
  if (kern::avx512_ops() != nullptr && kern::cpu_supports_avx512()) {
    levels.push_back({"avx512", kern::avx512_ops()});
  }

  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kHidden = 45;
  constexpr std::size_t kActions = 160;

  Rng rng(11);
  const auto a = random_matrix(kBatch, kHidden, rng);
  const auto b = random_matrix(kHidden, kActions, rng);
  const auto q = random_matrix(kBatch, kActions, rng);
  const auto next_q = random_matrix(kBatch, kActions, rng);
  std::vector<std::size_t> actions(kBatch);
  std::vector<double> rewards(kBatch);
  std::vector<std::uint8_t> dones(kBatch, 0);
  for (std::size_t i = 0; i < kBatch; ++i) {
    actions[i] = rng.index(kActions);
    rewards[i] = rng.uniform() < 0.5 ? -10.0 : 1.0;
  }
  std::vector<double> bias(kActions);
  for (auto& v : bias) v = rng.normal();
  const std::size_t adam_n = kHidden * kActions;
  std::vector<double> grad_flat(adam_n);
  for (auto& v : grad_flat) v = 0.01 * rng.normal();

  // PHY kernel shapes: one 64-state ACS trellis step (hard and soft) and one
  // 480-point Eq. (1) evaluation (an EmuBee packet's worth of targets).
  std::vector<std::int32_t> acs_metric(64);
  std::vector<std::int32_t> acs_cost0(64);
  std::vector<std::int32_t> acs_cost1(64);
  for (auto& v : acs_metric) v = static_cast<std::int32_t>(rng.index(100));
  for (auto& v : acs_cost0) v = static_cast<std::int32_t>(rng.index(3));
  for (auto& v : acs_cost1) v = static_cast<std::int32_t>(rng.index(3));
  std::vector<double> acs_metric_d(64);
  std::vector<double> acs_cost0_d(64);
  std::vector<double> acs_cost1_d(64);
  for (auto& v : acs_metric_d) v = std::abs(rng.normal());
  for (auto& v : acs_cost0_d) v = std::abs(rng.normal());
  for (auto& v : acs_cost1_d) v = std::abs(rng.normal());
  std::vector<double> qam_iq(2 * 480);
  for (auto& v : qam_iq) v = rng.normal();

  // The Adam step is one scalar kernel at every level: a single row. It
  // consumes the gradient, so each iteration first restores it, as the
  // learner's backward writes it before every update.
  benchmark::RegisterBenchmark(
      "BM_KernAdamUpdate", [grad_flat, adam_n](benchmark::State& state) {
        std::vector<double> p(adam_n, 0.1);
        std::vector<double> m(adam_n, 0.0);
        std::vector<double> v(adam_n, 0.0);
        std::vector<double> g(adam_n);
        for (auto _ : state) {
          std::copy(grad_flat.begin(), grad_flat.end(), g.begin());
          kern::adam_update(p.data(), m.data(), v.data(), g.data(), adam_n,
                            0.9, 0.999, 1e-3, 0.5, 0.3, 1e-8);
          benchmark::DoNotOptimize(p.data());
        }
      });

  // The TD/Huber step is one kernel at every level too, fed the bootstrap
  // values the learner's row reductions produce.
  std::vector<double> q_taken(kBatch), next_v(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    q_taken[i] = q.at(i, actions[i]);
    next_v[i] = kern::ops().row_max(next_q.data() + i * kActions, kActions);
  }
  benchmark::RegisterBenchmark(
      "BM_KernTdHuberBatch",
      [q_taken, next_v, rewards, dones](benchmark::State& state) {
        std::vector<double> g(q_taken.size());
        kern::TdHuberArgs args;
        args.q_taken = q_taken.data();
        args.next_v = next_v.data();
        args.rewards = rewards.data();
        args.dones = dones.data();
        args.gamma = 0.9;
        args.reward_scale = 0.1;
        args.grad_div = static_cast<double>(q_taken.size());
        args.batch = q_taken.size();
        for (auto _ : state) {
          const double loss = kern::td_huber_batch(args, g.data());
          benchmark::DoNotOptimize(loss);
          benchmark::DoNotOptimize(g.data());
        }
      });

  for (const Level& level : levels) {
    const kern::KernelOps* ops = level.ops;
    const std::string suffix = std::string("_") + level.name;

    benchmark::RegisterBenchmark(
        ("BM_KernMatmul" + suffix).c_str(),
        [ops, a, b](benchmark::State& state) {
          rl::Matrix c(a.rows(), b.cols());
          for (auto _ : state) {
            std::fill(c.data(), c.data() + c.size(), 0.0);
            ops->matmul_acc(c.data(), a.data(), b.data(), a.rows(), a.cols(),
                            b.cols(), a.cols(), 1);
            benchmark::DoNotOptimize(c.data());
          }
        });

    benchmark::RegisterBenchmark(
        ("BM_KernBiasRelu" + suffix).c_str(),
        [ops, q, bias](benchmark::State& state) {
          rl::Matrix y = q;
          for (auto _ : state) {
            ops->bias_act(y.data(), bias.data(), y.rows(), y.cols(), true);
            benchmark::DoNotOptimize(y.data());
          }
        });

    benchmark::RegisterBenchmark(
        ("BM_KernRowMax" + suffix).c_str(),
        [ops, q](benchmark::State& state) {
          // Max + argmax over every batch row, as the greedy path does.
          for (auto _ : state) {
            double acc = 0.0;
            for (std::size_t r = 0; r < q.rows(); ++r) {
              const double* row = q.data() + r * q.cols();
              acc += ops->row_max(row, q.cols());
              acc += static_cast<double>(ops->row_argmax(row, q.cols()));
            }
            benchmark::DoNotOptimize(acc);
          }
        });

    benchmark::RegisterBenchmark(
        ("BM_KernViterbiAcsHard" + suffix).c_str(),
        [ops, acs_metric, acs_cost0, acs_cost1](benchmark::State& state) {
          alignas(64) std::int32_t next[64];
          std::uint64_t chosen = 0;
          for (auto _ : state) {
            ops->viterbi_acs_hard(acs_metric.data(), acs_cost0.data(),
                                  acs_cost1.data(), next, &chosen);
            benchmark::DoNotOptimize(next);
            benchmark::DoNotOptimize(chosen);
          }
        });

    benchmark::RegisterBenchmark(
        ("BM_KernViterbiAcsSoft" + suffix).c_str(),
        [ops, acs_metric_d, acs_cost0_d,
         acs_cost1_d](benchmark::State& state) {
          alignas(64) double next[64];
          std::uint64_t chosen = 0;
          for (auto _ : state) {
            ops->viterbi_acs_soft(acs_metric_d.data(), acs_cost0_d.data(),
                                  acs_cost1_d.data(), next, &chosen);
            benchmark::DoNotOptimize(next);
            benchmark::DoNotOptimize(chosen);
          }
        });

    benchmark::RegisterBenchmark(
        ("BM_KernQam64Error" + suffix).c_str(),
        [ops, qam_iq](benchmark::State& state) {
          const double norm = phy::Qam64::normalization();
          for (auto _ : state) {
            double err = ops->qam64_error(qam_iq.data(), qam_iq.size() / 2,
                                          1.3, norm);
            benchmark::DoNotOptimize(err);
          }
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_kernel_benches();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
