// AVX-512 kernel set. This translation unit is compiled with -mavx512f -mfma
// regardless of the global architecture flags; kern::ops() only selects it
// when CPUID reports AVX-512F (plus AVX2+FMA) at run time.
//
// Only the kernels where the 512-bit width actually pays are reimplemented:
// matmul_acc (the batched-forward bottleneck — doubling the FMA width
// doubles the compute roofline on machines whose 256-bit FMA throughput
// matches their L2 streaming bandwidth, which is exactly the regime where
// batched inference is otherwise compute-bound), gather_dot (on this
// level's eight-lane nonzero pack) and the PHY hot-path kernels (Viterbi
// ACS hard/soft, 64-QAM quantization error) whose fixed 64-state /
// long-stream shapes fill full zmm lanes. Everything else (bias_act, the
// row reductions, adam_update) is inherited from the AVX2 table: those
// kernels are bandwidth-bound or tiny, so a wider vector buys nothing (an
// eight-lane Adam timed no faster than the AVX2 body). gather_dot stays
// exact against this level's matmul because both run the same per-element
// FMA chain over the same pack.
//
// Numerics match the AVX2 level's contract: FMA contraction only,
// per-element k-accumulation order unchanged and exact zeros skipped like
// the scalar reference, so results are ULP-bounded against it (and exact for
// one-hot rows).
#include "common/kernels.hpp"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <iterator>

#include "common/kernels_detail.hpp"

namespace ctj::kern {
namespace {

// GCC's unmasked forms of min/max, roundscale, cvtepi64_epi32 and
// extractf64x4 (also behind castpd512_pd256 and _mm512_reduce_add_pd) pass
// _mm512_undefined_*() as their merge source, which GCC 12 flags as
// -W(maybe-)uninitialized. With every lane selected, the maskz forms are
// the same instructions with the same results.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

// _mm512_reduce_add_pd as the header writes it: high + low half, then the
// 128-bit halves, then the two lanes (GCC 12 emits the same instructions).
double reduce_add(__m512d v) {
  const __m256d h4 = _mm512_maskz_extractf64x4_pd(0xF, v, 1) +
                     _mm512_maskz_extractf64x4_pd(0xF, v, 0);
  const __m128d h2 =
      _mm256_extractf128_pd(h4, 1) + _mm256_extractf128_pd(h4, 0);
  return h2[0] + h2[1];
}

// Vector nonzero pack (detail::PackRow), eight lanes at a time, with
// AVX-512F only: a masked load of the row (a masked gather when cs != 1), a
// NEQ_UQ compare against zero — false on ±0.0 and true on NaN, exactly what
// `!= 0.0` tests — and vcompress of the values and of their 64-bit k
// indices, narrowed to 32 bits. Both stores are full width, into the
// scratch's slack.
std::size_t pack_row_avx512(const double* arow, std::size_t cs,
                            std::size_t kk, double* v, std::int32_t* ix) {
  const __m512d zero = _mm512_setzero_pd();
  const auto s = static_cast<long long>(cs);
  const __m512i offs =
      _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
  const __m512i step = _mm512_set1_epi64(8);
  __m512i kv = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  std::size_t t = 0;
  for (std::size_t k = 0; k < kk; k += 8) {
    const std::size_t left = kk - k;
    const auto live =
        static_cast<__mmask8>(left >= 8 ? 0xFFu : 0xFFu >> (8 - left));
    const __m512d x =
        cs == 1 ? _mm512_maskz_loadu_pd(live, arow + k)
                : _mm512_mask_i64gather_pd(zero, live, offs, arow + k * cs, 8);
    const __mmask8 nz = _mm512_mask_cmp_pd_mask(live, x, zero, _CMP_NEQ_UQ);
    _mm512_storeu_pd(v + t, _mm512_maskz_compress_pd(nz, x));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(ix + t),
        _mm512_maskz_cvtepi64_epi32(kAll8,
                                    _mm512_maskz_compress_epi64(nz, kv)));
    t += static_cast<std::size_t>(__builtin_popcount(nz));
    kv = _mm512_add_epi64(kv, step);
  }
  return t;
}

// Same compressed-nonzero structure as the AVX2 matmul (vector per-row
// nonzero packing, stripes-outer FMA body over the packed lists — see
// kernels_avx2.cpp for the full rationale) with 512-bit accumulators. One
// template covers every stripe width: a stripe of up to 64 columns of one C
// row lives in NV zmm registers across the whole packed loop, and the last
// register is masked to the stripe's tail lanes (masked-off lanes neither
// fault on load nor get stored). A row of n columns is therefore n / 64 full
// stripes plus one remainder stripe, and every element runs the same FMA
// chain in increasing k whichever stripe it falls in.
template <int NV>
void stripe_avx512(double* c, const double* b, std::size_t n,
                   const detail::MatmulScratch& packed, std::size_t rows,
                   __mmask8 tail) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* v = packed.vals.data() + r * packed.stride;
    const std::int32_t* ix = packed.idx.data() + r * packed.stride;
    const std::size_t nnz = static_cast<std::size_t>(packed.cnt[r]);
    double* crow = c + r * n;
    __m512d acc[NV];
    for (int q = 0; q + 1 < NV; ++q) acc[q] = _mm512_loadu_pd(crow + 8 * q);
    acc[NV - 1] = _mm512_maskz_loadu_pd(tail, crow + 8 * (NV - 1));
    for (std::size_t t = 0; t < nnz; ++t) {
      const __m512d va = _mm512_set1_pd(v[t]);
      const double* brow = b + static_cast<std::size_t>(ix[t]) * n;
      for (int q = 0; q + 1 < NV; ++q) {
        acc[q] = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 8 * q), acc[q]);
      }
      acc[NV - 1] = _mm512_fmadd_pd(
          va, _mm512_maskz_loadu_pd(tail, brow + 8 * (NV - 1)), acc[NV - 1]);
    }
    for (int q = 0; q + 1 < NV; ++q) _mm512_storeu_pd(crow + 8 * q, acc[q]);
    _mm512_mask_storeu_pd(crow + 8 * (NV - 1), tail, acc[NV - 1]);
  }
}

void matmul_acc_avx512(double* c, const double* a, const double* b,
                       std::size_t m, std::size_t kk, std::size_t n,
                       std::size_t rs, std::size_t cs) {
  constexpr std::size_t kRowChunk = 32;
  constexpr std::size_t kLanes = 8;
  static constexpr decltype(&stripe_avx512<1>) kStripes[] = {
      stripe_avx512<1>, stripe_avx512<2>, stripe_avx512<3>, stripe_avx512<4>,
      stripe_avx512<5>, stripe_avx512<6>, stripe_avx512<7>, stripe_avx512<8>};
  constexpr std::size_t kStripeCols = std::size(kStripes) * kLanes;
  static thread_local detail::MatmulScratch scratch;
  scratch.reserve_chunk(std::min(m, kRowChunk), kk);
  for (std::size_t i0 = 0; i0 < m; i0 += kRowChunk) {
    const std::size_t rows = std::min(m - i0, kRowChunk);
    scratch.pack_chunk<pack_row_avx512>(a + i0 * rs, rs, cs, rows, kk);
    for (std::size_t j0 = 0; j0 < n; j0 += kStripeCols) {
      const std::size_t width = std::min(n - j0, kStripeCols);
      const std::size_t nv = (width + kLanes - 1) / kLanes;
      const auto tail = static_cast<__mmask8>(0xFFu >> (nv * kLanes - width));
      kStripes[nv - 1](c + i0 * n + j0, b + j0, n, scratch, rows, tail);
    }
  }
}

// 16 next states per zmm, the whole 64-state butterfly in four blocks. The
// even/odd predecessor deinterleave is a single permutex2var over two
// 16-metric ranges; blocks 0/2 draw on metric[0..31], blocks 1/3 on
// metric[32..63] (j = ns & 31). Integer adds and min_epi32 keep the result
// bit-exact with the scalar reference; cmpgt_epi32_mask(v0, v1) is the
// scalar strict `v1 < v0` odd-wins bit.
void viterbi_acs_hard_avx512(const std::int32_t* metric,
                             const std::int32_t* cost0,
                             const std::int32_t* cost1, std::int32_t* next,
                             std::uint64_t* chosen) {
  const __m512i idx_even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16,
                                             18, 20, 22, 24, 26, 28, 30);
  const __m512i idx_odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17,
                                            19, 21, 23, 25, 27, 29, 31);
  const __m512i m0 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric));
  const __m512i m1 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric + 16));
  const __m512i m2 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric + 32));
  const __m512i m3 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric + 48));
  const __m512i even[2] = {_mm512_permutex2var_epi32(m0, idx_even, m1),
                           _mm512_permutex2var_epi32(m2, idx_even, m3)};
  const __m512i odd[2] = {_mm512_permutex2var_epi32(m0, idx_odd, m1),
                          _mm512_permutex2var_epi32(m2, idx_odd, m3)};
  std::uint64_t bits = 0;
  for (int b = 0; b < 4; ++b) {
    const __m512i v0 = _mm512_add_epi32(
        even[b & 1], _mm512_loadu_si512(
                         reinterpret_cast<const void*>(cost0 + 16 * b)));
    const __m512i v1 = _mm512_add_epi32(
        odd[b & 1], _mm512_loadu_si512(
                        reinterpret_cast<const void*>(cost1 + 16 * b)));
    _mm512_storeu_si512(reinterpret_cast<void*>(next + 16 * b),
                        _mm512_maskz_min_epi32(kAll16, v0, v1));
    const std::uint64_t mask = _mm512_cmpgt_epi32_mask(v0, v1);
    bits |= mask << (16 * b);
  }
  *chosen = bits;
}

// Double-metric flavor, 8 next states per zmm over 8 blocks; four
// permutex2var even/odd pairs each cover a 16-metric predecessor range.
// Plain adds and min_pd(v1, v0) (ties return v0 — the even predecessor)
// keep every level bit-exact with the scalar reference.
void viterbi_acs_soft_avx512(const double* metric, const double* cost0,
                             const double* cost1, double* next,
                             std::uint64_t* chosen) {
  const __m512i idx_even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i idx_odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  __m512d even[4];
  __m512d odd[4];
  for (int k = 0; k < 4; ++k) {
    const __m512d a = _mm512_loadu_pd(metric + 16 * k);
    const __m512d b = _mm512_loadu_pd(metric + 16 * k + 8);
    even[k] = _mm512_permutex2var_pd(a, idx_even, b);
    odd[k] = _mm512_permutex2var_pd(a, idx_odd, b);
  }
  std::uint64_t bits = 0;
  for (int b = 0; b < 8; ++b) {
    const __m512d v0 =
        _mm512_add_pd(even[b & 3], _mm512_loadu_pd(cost0 + 8 * b));
    const __m512d v1 =
        _mm512_add_pd(odd[b & 3], _mm512_loadu_pd(cost1 + 8 * b));
    _mm512_storeu_pd(next + 8 * b, _mm512_maskz_min_pd(kAll8, v1, v0));
    const std::uint64_t mask = _mm512_cmp_pd_mask(v1, v0, _CMP_LT_OQ);
    bits |= mask << (8 * b);
  }
  *chosen = bits;
}

// Eight components (four complex points) per iteration; same
// floor(v + 0.5) snap and lane-reassociated accumulator as the AVX2 level,
// so tolerance-bound against the scalar reference.
double qam64_error_avx512(const double* iq, std::size_t n, double alpha,
                          double norm) {
  const double scale = 1.0 / (alpha * norm);
  const std::size_t total = 2 * n;
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vseven = _mm512_set1_pd(7.0);
  const __m512d vhalf = _mm512_set1_pd(0.5);
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vtwo = _mm512_set1_pd(2.0);
  const __m512d vnorm_alpha = _mm512_set1_pd(norm * alpha);
  __m512d acc = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= total; j += 8) {
    const __m512d v = _mm512_loadu_pd(iq + j);
    const __m512d x =
        _mm512_mul_pd(_mm512_add_pd(_mm512_mul_pd(v, vscale), vseven), vhalf);
    __m512d slot = _mm512_maskz_roundscale_pd(
        kAll8, _mm512_add_pd(x, vhalf),
        _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    slot = _mm512_maskz_min_pd(kAll8, _mm512_maskz_max_pd(kAll8, slot, vzero),
                               vseven);
    const __m512d level = _mm512_sub_pd(_mm512_mul_pd(slot, vtwo), vseven);
    const __m512d d = _mm512_sub_pd(_mm512_mul_pd(level, vnorm_alpha), v);
    acc = _mm512_fmadd_pd(d, d, acc);
  }
  double err = reduce_add(acc);
  for (; j < total; ++j) {
    const double x = (iq[j] * scale + 7.0) * 0.5;
    double slot = __builtin_floor(x + 0.5);
    if (slot < 0.0) slot = 0.0;
    if (slot > 7.0) slot = 7.0;
    const double d = (slot * 2.0 - 7.0) * (norm * alpha) - iq[j];
    err += d * d;
  }
  return err;
}

}  // namespace

const KernelOps* avx512_ops() {
  const KernelOps* base = avx2_ops();
  if (base == nullptr) return nullptr;
  static const KernelOps kOps = [base] {
    KernelOps ops = *base;  // inherit bias_act and the reductions
    ops.name = "avx512";
    ops.matmul_acc = matmul_acc_avx512;
    ops.gather_dot = detail::gather_dot_packed<pack_row_avx512>;
    ops.viterbi_acs_hard = viterbi_acs_hard_avx512;
    ops.viterbi_acs_soft = viterbi_acs_soft_avx512;
    ops.qam64_error = qam64_error_avx512;
    return ops;
  }();
  return &kOps;
}

}  // namespace ctj::kern

#else  // !(__AVX512F__ && __FMA__)

namespace ctj::kern {

const KernelOps* avx512_ops() { return nullptr; }

}  // namespace ctj::kern

#endif
