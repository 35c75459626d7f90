// Runtime-dispatched SIMD kernel layer for the NN/DSP hot paths.
//
// Every dispatched kernel exists at least twice: a portable scalar
// reference — the same loops and accumulation order as the pre-kernel-layer
// implementations, compiled with FP contraction disabled so each kernel's
// arithmetic is plain IEEE mul/add and gives the same bits on a native and a
// portable build (the determinism baseline) — and an AVX2/FMA variant
// compiled into its own translation unit with -mavx2 -mfma so even a
// portable (-DCTJ_NATIVE=OFF) build carries the fast path and selects it at
// run time from CPUID. An AVX-512 level widens matmul, gather_dot and the
// PHY kernels and inherits the rest from AVX2. The SIMD kernels preserve the
// scalar per-element accumulation *order* — register blocking only tiles the
// data-parallel dimensions — so the only numeric divergence from the scalar
// reference is FMA contraction (verified ULP-bounded by tests/test_kernels);
// row_max / row_argmax / bias_act contain no FMA and match bit for bit,
// gather_dot matches its own level's matmul bit for bit, and adam_update
// matches bit for bit: its AVX2 body replaces the two bias-correction
// divisions by a reciprocal product with one Newton step, kept only in
// lanes where a residual check proves it equals the division (see
// KernelOps::adam_update and kernels_avx2.cpp).
//
// kern::td_huber_batch is not dispatched: it takes each row's bootstrap
// value ready-made, so what is left is a few scalar ops per row with
// nothing to vectorize. A bias-gradient row sum needs no kernel either:
// rl::LinearLayer adds it in place (x + y is what a saxpy with a = 1
// computes at every level).
//
// End-to-end results are NOT build-independent at a fixed level, scalar
// included: the rl library's own loops (the sparse gradient accumulation in
// rl/matrix.cpp and rl/nn.cpp, the Polyak lerp) are compiled with the
// build's architecture flags and the compiler's default FP contraction, so
// they fuse into FMA under -march=native and stay mul+add in a portable
// build. A trained checkpoint therefore depends on the build flavor as well
// as on CTJ_SIMD; it is reproducible for a fixed binary and level.
//
// Selection: CTJ_SIMD=off|scalar|avx2|avx512 overrides, otherwise the best
// level the CPU supports. The choice is resolved once, on first use, for the
// whole process — set the variable before the first kernel call.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ctj::kern {

enum class SimdLevel { kScalar, kAvx2, kAvx512 };

/// Inputs of the fused batched TD-target + Huber loss/grad kernel — the body
/// of the DQN learner step after the forward passes and the bootstrap.
struct TdHuberArgs {
  const double* q_taken = nullptr;  // [batch] online Q(s_i, a_i)
  /// [batch] bootstrap value of each next state: max_a Q_target(s'_i, a),
  /// or Q_target(s'_i, argmax_a Q_online(s'_i, a)) for Double DQN.
  const double* next_v = nullptr;
  const double* rewards = nullptr;       // [batch] raw (unscaled) rewards
  const std::uint8_t* dones = nullptr;   // [batch] episode-termination flags
  double gamma = 0.9;
  double reward_scale = 1.0;
  /// Per-sample gradients are divided by this (the batch size, so the
  /// gradient matches the mean-loss objective).
  double grad_div = 1.0;
  double huber_delta = 1.0;
  std::size_t batch = 0;
};

/// One resolved kernel set. All pointers are non-null.
struct KernelOps {
  const char* name;  // "scalar" | "avx2" | "avx512"

  /// C += A·B for row-major C [m × n] and B [k × n] (callers zero C for a
  /// plain product). A is read through strides: entry (i, k) is
  /// a[i·rs + k·cs], so (k, 1) is a row-major A and (1, m) is the transpose
  /// of a row-major [k × m] matrix, read in place. Per-element accumulation
  /// runs over k in increasing order.
  void (*matmul_acc)(double* c, const double* a, const double* b,
                     std::size_t m, std::size_t k, std::size_t n,
                     std::size_t rs, std::size_t cs);

  /// out[i] = Σ_k a[i,k]·b[k, col[i]] for A [m × k] and B [k × n]: entry
  /// (i, col[i]) of this level's matmul_acc into a zeroed C, bit for bit —
  /// summed from 0 in increasing k, exact-zero a[i,k] skipped, contracted
  /// exactly as that level's matmul is.
  void (*gather_dot)(double* out, const double* a, const double* b,
                     const std::size_t* col, std::size_t m, std::size_t k,
                     std::size_t n);

  /// Row-broadcast bias add, optionally fused with ReLU:
  /// y[r][c] += bias[c], then y = max(y, 0) when relu is set.
  void (*bias_act)(double* y, const double* bias, std::size_t rows,
                   std::size_t cols, bool relu);

  /// Maximum of a non-empty array (order-independent, bit-exact across
  /// kernel levels for non-NaN input).
  double (*row_max)(const double* x, std::size_t n);

  /// Index of the maximum, first on ties (matches ctj::argmax).
  std::size_t (*row_argmax)(const double* x, std::size_t n);

  /// One hard-decision add-compare-select step over the 64-state K=7
  /// convolutional trellis in butterfly order. For next state ns the two
  /// predecessors are 2·(ns & 31) and 2·(ns & 31)+1, so
  ///   next[ns] = min(metric[2j] + cost0[ns], metric[2j+1] + cost1[ns])
  /// with ties to the even predecessor; bit ns of *chosen is set when the
  /// odd predecessor wins strictly. cost0/cost1 are 64-entry per-next-state
  /// branch-cost tables the caller precomputes from the received pair.
  /// Integer adds, so every level is bit-exact with the scalar reference.
  void (*viterbi_acs_hard)(const std::int32_t* metric,
                           const std::int32_t* cost0,
                           const std::int32_t* cost1, std::int32_t* next,
                           std::uint64_t* chosen);

  /// Soft-metric (double) flavor of the same butterfly step. One correctly
  /// rounded add per candidate and a min — no reductions, no FMA — so every
  /// level is bit-exact with the scalar reference.
  void (*viterbi_acs_soft)(const double* metric, const double* cost0,
                           const double* cost1, double* next,
                           std::uint64_t* chosen);

  /// Σ_i |α·Q(z_i) − z_i|² where Q snaps each component of z_i/(α·norm) to
  /// the nearest odd level in {±1,±3,±5,±7} and scales back by norm·α — the
  /// 64-QAM nearest-point error of Eq. (1). `iq` holds n interleaved
  /// (re, im) pairs. The scalar level reproduces the Qam64::quantize-based
  /// loop bit for bit (left-to-right accumulation, std::round snapping);
  /// SIMD levels reassociate the sum across lanes and are tolerance-bound
  /// only, like matmul.
  double (*qam64_error)(const double* iq, std::size_t n, double alpha,
                        double norm);

  /// One Adam update over n parameters: moment EMAs, bias correction
  /// x / (1−βᵗ), and the sqrt-damped step p −= (lr·m̂) / (√v̂ + ε). It
  /// consumes the gradient: each g[k] is +0.0 once read, so the next
  /// backward accumulates from zero with no separate clearing pass. A
  /// correction that is exactly 1.0 (1−0.9ᵗ from t = 356, 1−0.999ᵗ from
  /// t = 37 412) is not applied: x / 1.0 == x in IEEE arithmetic. Every
  /// level gives the scalar level's bits, signed zeros and NaN payloads
  /// included, in every parameter with at most one NaN among its inputs.
  /// Where two NaNs meet in one add (a NaN moment and a NaN gradient, say),
  /// the payload that survives is the operand the compiler put first, which
  /// no level fixes. The scalar level divides; the AVX2 body, which the
  /// AVX-512 level inherits, computes each correction as a reciprocal
  /// product plus one FMA Newton step, keeps it only where a residual check
  /// proves it is the correctly rounded quotient, and divides in the other
  /// lanes. The final division and the square root are the same IEEE
  /// operations at every level, and the moment updates are plain mul/add
  /// in the scalar order.
  void (*adam_update)(double* p, double* m, double* v, double* g,
                      std::size_t n, double beta1, double beta2, double lr,
                      double bc1, double bc2, double epsilon);
};

/// The portable reference kernels (always available).
const KernelOps& scalar_ops();

/// Fused TD target + Huber loss/gradient over a minibatch. Writes the
/// clipped gradient dL/dQ(s_i, a_i) of each row into g[i] ([batch]; the loss
/// reads no other output) and returns the summed Huber loss (callers divide
/// by the batch size for the mean). Not dispatched: a handful of scalar ops
/// per row once the bootstrap's row reductions are done by the caller. It
/// lives in the scalar TU (no FP contraction), so it gives the same bits on
/// every build and at every CTJ_SIMD level.
double td_huber_batch(const TdHuberArgs& args, double* g);

/// The AVX2/FMA kernels, or nullptr when the build targets a non-x86
/// architecture or the compiler cannot emit AVX2.
const KernelOps* avx2_ops();

/// The AVX-512 kernels (matmul and gather_dot on 512-bit packs, the rest
/// shared with the AVX2 table), or nullptr when unavailable at build time.
const KernelOps* avx512_ops();

/// True when the CPU this process runs on supports AVX2 and FMA.
bool cpu_supports_avx2();

/// True when the CPU this process runs on supports AVX-512F (and AVX2+FMA).
bool cpu_supports_avx512();

/// Pure resolver (exposed for tests): pick a level from the CTJ_SIMD
/// override string (nullptr/empty = auto) and the CPU capabilities.
SimdLevel resolve_level(const char* override_value, bool cpu_has_avx2,
                        bool cpu_has_avx512);

/// The process-wide kernel set: resolved once from CTJ_SIMD + CPUID.
const KernelOps& ops();

SimdLevel active_level();
/// Name of the active level ("scalar", "avx2" or "avx512") — stamped into
/// perf JSON.
const char* simd_level_name();

}  // namespace ctj::kern
