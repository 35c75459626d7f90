// AVX2/FMA kernel set. This translation unit is compiled with -mavx2 -mfma
// regardless of the global architecture flags, so even a portable
// (-DCTJ_NATIVE=OFF) binary carries these paths; kern::ops() only selects
// them when CPUID reports AVX2+FMA at run time.
//
// Numerics: the matmul kernels contract multiply-add into FMA (one
// rounding instead of two) while keeping the scalar k-accumulation order, so
// they are ULP-close but not bit-identical to the scalar reference. The
// max/argmax reductions and bias_act contain no FMA and max is
// order-independent for non-NaN input, so those kernels are bit-exact
// against the scalar level. adam_update is bit-exact too: its FMAs only
// compute bias corrections that a residual test proves equal to the
// division (see the argument above BiasCorrection4).
#include "common/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "common/kernels_detail.hpp"

namespace ctj::kern {
namespace {

// Lane-compress tables for a 4-lane nonzero mask m: perm[m] moves the set
// f64 lanes to the front of a ymm (as permutevar8x32 indices, two 32-bit
// halves per lane), and pos[m] lists their lane numbers.
struct CompressLut {
  std::int32_t perm[16][8];
  std::int32_t pos[16][4];
};

constexpr CompressLut make_compress_lut() {
  CompressLut lut{};
  for (int m = 0; m < 16; ++m) {
    for (int l = 0, t = 0; l < 4; ++l) {
      if ((m >> l & 1) == 0) continue;
      lut.perm[m][2 * t] = 2 * l;
      lut.perm[m][2 * t + 1] = 2 * l + 1;
      lut.pos[m][t++] = l;
    }
  }
  return lut;
}

alignas(32) constexpr CompressLut kCompress = make_compress_lut();

// Vector nonzero pack (detail::PackRow), four lanes at a time: a masked
// load of the row (a masked gather when cs != 1), a NEQ_UQ compare against
// zero — false on ±0.0 and true on NaN, exactly what `!= 0.0` tests — and
// a table permutation that moves the nonzero lanes and their k indices to
// the cursor. Both stores are full width, into the scratch's slack.
std::size_t pack_row_avx2(const double* arow, std::size_t cs, std::size_t kk,
                          double* v, std::int32_t* ix) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const auto s = static_cast<long long>(cs);
  const __m256i offs = _mm256_setr_epi64x(0, s, 2 * s, 3 * s);
  std::size_t t = 0;
  for (std::size_t k = 0; k < kk; k += 4) {
    // Lane l is live when k + l < kk.
    const __m256i live = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(kk - k)), lane);
    const __m256d x = cs == 1 ? _mm256_maskload_pd(arow + k, live)
                              : _mm256_mask_i64gather_pd(
                                    zero, arow + k * cs, offs,
                                    _mm256_castsi256_pd(live), 8);
    const int nz = _mm256_movemask_pd(_mm256_cmp_pd(x, zero, _CMP_NEQ_UQ));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompress.perm[nz]));
    _mm256_storeu_pd(v + t, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                                _mm256_castpd_ps(x), perm)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(ix + t),
        _mm_add_epi32(_mm_set1_epi32(static_cast<std::int32_t>(k)),
                      _mm_load_si128(reinterpret_cast<const __m128i*>(
                          kCompress.pos[nz]))));
    t += static_cast<std::size_t>(__builtin_popcount(nz));
  }
  return t;
}

// Register-blocked compressed-nonzero C += A·B. Each A row of the current
// chunk is packed once into a (value, k-index) list of its nonzeros by the
// vector pack above, so the ~half-zero ReLU activation rows that made a
// data-dependent `if (aik == 0.0) continue` mispredict cost nothing here,
// and the FMA loops then run over the packed list only. That skips exactly
// the entries the scalar reference skips (one-hot DQN output gradients stay
// bit-exact) and halves both FMAs and B-row loads on ReLU activations. One
// template covers every stripe width: a stripe of up to 48 columns of one C
// row lives in NV ymm accumulators across the whole packed loop (up to
// twelve independent dependency chains cover the FMA latency, and C traffic
// drops k-fold versus the load/store-per-k pattern the autovectorizer
// produces), and the last accumulator is masked to the stripe's tail lanes.
// A row of n columns is n / 48 full stripes plus one remainder stripe, so a
// 24- or 45-wide layer takes a single pass. Stripes stay in the outer loop
// so the touched B columns remain L1-resident while the row loop streams
// over them. Per C element the packed accumulation preserves the scalar k
// order, so results stay ULP-bounded against the scalar reference.
template <int NV>
void stripe_avx2(double* c, const double* b, std::size_t n,
                 const detail::MatmulScratch& packed, std::size_t rows,
                 __m256i tail) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* v = packed.vals.data() + r * packed.stride;
    const std::int32_t* ix = packed.idx.data() + r * packed.stride;
    const std::size_t nnz = static_cast<std::size_t>(packed.cnt[r]);
    double* crow = c + r * n;
    __m256d acc[NV];
    for (int q = 0; q + 1 < NV; ++q) acc[q] = _mm256_loadu_pd(crow + 4 * q);
    acc[NV - 1] = _mm256_maskload_pd(crow + 4 * (NV - 1), tail);
    for (std::size_t t = 0; t < nnz; ++t) {
      const __m256d va = _mm256_set1_pd(v[t]);
      const double* brow = b + static_cast<std::size_t>(ix[t]) * n;
      for (int q = 0; q + 1 < NV; ++q) {
        acc[q] = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4 * q), acc[q]);
      }
      acc[NV - 1] = _mm256_fmadd_pd(
          va, _mm256_maskload_pd(brow + 4 * (NV - 1), tail), acc[NV - 1]);
    }
    for (int q = 0; q + 1 < NV; ++q) _mm256_storeu_pd(crow + 4 * q, acc[q]);
    _mm256_maskstore_pd(crow + 4 * (NV - 1), tail, acc[NV - 1]);
  }
}

void matmul_acc_avx2(double* c, const double* a, const double* b,
                     std::size_t m, std::size_t kk, std::size_t n,
                     std::size_t rs, std::size_t cs) {
  constexpr std::size_t kRowChunk = 32;
  constexpr std::size_t kLanes = 4;
  static constexpr decltype(&stripe_avx2<1>) kStripes[] = {
      stripe_avx2<1>, stripe_avx2<2>,  stripe_avx2<3>,  stripe_avx2<4>,
      stripe_avx2<5>, stripe_avx2<6>,  stripe_avx2<7>,  stripe_avx2<8>,
      stripe_avx2<9>, stripe_avx2<10>, stripe_avx2<11>, stripe_avx2<12>};
  constexpr std::size_t kStripeCols = std::size(kStripes) * kLanes;
  static thread_local detail::MatmulScratch scratch;
  scratch.reserve_chunk(std::min(m, kRowChunk), kk);
  for (std::size_t i0 = 0; i0 < m; i0 += kRowChunk) {
    const std::size_t rows = std::min(m - i0, kRowChunk);
    scratch.pack_chunk<pack_row_avx2>(a + i0 * rs, rs, cs, rows, kk);
    for (std::size_t j0 = 0; j0 < n; j0 += kStripeCols) {
      const std::size_t width = std::min(n - j0, kStripeCols);
      const std::size_t nv = (width + kLanes - 1) / kLanes;
      // Lane l is live when l < the lanes left for the last accumulator.
      const __m256i tail = _mm256_cmpgt_epi64(
          _mm256_set1_epi64x(static_cast<long long>(width - (nv - 1) * kLanes)),
          _mm256_setr_epi64x(0, 1, 2, 3));
      kStripes[nv - 1](c + i0 * n + j0, b + j0, n, scratch, rows, tail);
    }
  }
}

constexpr auto gather_dot_avx2 = &detail::gather_dot_packed<pack_row_avx2>;

// Single-pass fused bias + ReLU (the scalar reference makes two passes, as
// the pre-kernel MLP forward did). Plain add + max: no FMA, bit-exact
// against the scalar level.
void bias_act_avx2(double* y, const double* bias, std::size_t rows,
                   std::size_t cols, bool relu) {
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = y + r * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      __m256d v =
          _mm256_add_pd(_mm256_loadu_pd(row + c), _mm256_loadu_pd(bias + c));
      if (relu) v = _mm256_max_pd(v, zero);
      _mm256_storeu_pd(row + c, v);
    }
    for (; c < cols; ++c) {
      double v = row[c] + bias[c];
      if (relu && v < 0.0) v = 0.0;
      row[c] = v;
    }
  }
}

double row_max_avx2(const double* x, std::size_t n) {
  if (n < 8) {
    double m = x[0];
    for (std::size_t j = 1; j < n; ++j) {
      if (x[j] > m) m = x[j];
    }
    return m;
  }
  __m256d m0 = _mm256_loadu_pd(x);
  __m256d m1 = _mm256_loadu_pd(x + 4);
  std::size_t j = 8;
  for (; j + 8 <= n; j += 8) {
    m0 = _mm256_max_pd(m0, _mm256_loadu_pd(x + j));
    m1 = _mm256_max_pd(m1, _mm256_loadu_pd(x + j + 4));
  }
  m0 = _mm256_max_pd(m0, m1);
  const __m128d lo = _mm256_castpd256_pd128(m0);
  const __m128d hi = _mm256_extractf128_pd(m0, 1);
  __m128d m2 = _mm_max_pd(lo, hi);
  m2 = _mm_max_sd(m2, _mm_unpackhi_pd(m2, m2));
  double m = _mm_cvtsd_f64(m2);
  for (; j < n; ++j) {
    if (x[j] > m) m = x[j];
  }
  return m;
}

// First index of the maximum: SIMD max reduction, then a compare+movemask
// scan for the first element equal to it (first-on-ties, like ctj::argmax).
std::size_t row_argmax_avx2(const double* x, std::size_t n) {
  if (n < 8) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j) {
      if (x[j] > x[best]) best = j;
    }
    return best;
  }
  const double m = row_max_avx2(x, n);
  const __m256d vm = _mm256_set1_pd(m);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(x + j), vm, _CMP_EQ_OQ));
    if (mask != 0) {
      return j + static_cast<std::size_t>(__builtin_ctz(
                     static_cast<unsigned>(mask)));
    }
  }
  for (; j < n; ++j) {
    if (x[j] == m) return j;
  }
  return 0;  // only reachable for NaN input; mirror the scalar fold
}

// 64-state butterfly ACS, 8 next states per ymm. The 64 predecessors split
// into four 16-metric ranges; each range is deinterleaved once into an
// even/odd pair (permutevar + permute2x128) and reused by the two 8-state
// blocks that draw on it (ns and ns+32 share j = ns & 31). Integer adds and
// min_epi32 only, so the result is bit-exact with the scalar reference; the
// odd-wins mask comes from cmpgt(v0, v1), which matches the scalar strict
// `v1 < v0` tie-break.
void viterbi_acs_hard_avx2(const std::int32_t* metric,
                           const std::int32_t* cost0,
                           const std::int32_t* cost1, std::int32_t* next,
                           std::uint64_t* chosen) {
  const __m256i deint = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  __m256i even[4];
  __m256i odd[4];
  for (int k = 0; k < 4; ++k) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(metric + 16 * k));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(metric + 16 * k + 8));
    const __m256i pa = _mm256_permutevar8x32_epi32(a, deint);
    const __m256i pb = _mm256_permutevar8x32_epi32(b, deint);
    even[k] = _mm256_permute2x128_si256(pa, pb, 0x20);
    odd[k] = _mm256_permute2x128_si256(pa, pb, 0x31);
  }
  std::uint64_t bits = 0;
  for (int b = 0; b < 8; ++b) {
    const __m256i v0 = _mm256_add_epi32(
        even[b & 3],
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cost0 + 8 * b)));
    const __m256i v1 = _mm256_add_epi32(
        odd[b & 3],
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cost1 + 8 * b)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(next + 8 * b),
                        _mm256_min_epi32(v0, v1));
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(v0, v1))));
    bits |= static_cast<std::uint64_t>(mask) << (8 * b);
  }
  *chosen = bits;
}

// Double-metric flavor, 4 next states per ymm: deinterleave each 8-metric
// predecessor range via permute2f128 + unpack, plain adds and min_pd.
// min_pd(v1, v0) returns v0 on ties, matching the scalar even-wins rule,
// and _CMP_LT_OQ(v1, v0) is exactly the scalar `v1 < v0` chosen bit.
void viterbi_acs_soft_avx2(const double* metric, const double* cost0,
                           const double* cost1, double* next,
                           std::uint64_t* chosen) {
  __m256d even[8];
  __m256d odd[8];
  for (int k = 0; k < 8; ++k) {
    const __m256d a = _mm256_loadu_pd(metric + 8 * k);
    const __m256d b = _mm256_loadu_pd(metric + 8 * k + 4);
    const __m256d t0 = _mm256_permute2f128_pd(a, b, 0x20);
    const __m256d t1 = _mm256_permute2f128_pd(a, b, 0x31);
    even[k] = _mm256_unpacklo_pd(t0, t1);
    odd[k] = _mm256_unpackhi_pd(t0, t1);
  }
  std::uint64_t bits = 0;
  for (int b = 0; b < 16; ++b) {
    const __m256d v0 = _mm256_add_pd(even[b & 7], _mm256_loadu_pd(cost0 + 4 * b));
    const __m256d v1 = _mm256_add_pd(odd[b & 7], _mm256_loadu_pd(cost1 + 4 * b));
    _mm256_storeu_pd(next + 4 * b, _mm256_min_pd(v1, v0));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v1, v0, _CMP_LT_OQ)));
    bits |= static_cast<std::uint64_t>(mask) << (4 * b);
  }
  *chosen = bits;
}

// Four components (two complex points) per iteration; re and im go through
// the identical snap, so no deinterleave is needed. floor(v + 0.5) replaces
// round-half-away (equal for the clamped v ≥ 0 range except exact-boundary
// ULP cases) and the four-lane accumulator reassociates the sum, so this
// level is tolerance-bound against the scalar reference, like matmul.
double qam64_error_avx2(const double* iq, std::size_t n, double alpha,
                        double norm) {
  const double scale = 1.0 / (alpha * norm);
  const std::size_t total = 2 * n;
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vseven = _mm256_set1_pd(7.0);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vnorm_alpha = _mm256_set1_pd(norm * alpha);
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= total; j += 4) {
    const __m256d v = _mm256_loadu_pd(iq + j);
    const __m256d x =
        _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(v, vscale), vseven), vhalf);
    __m256d slot = _mm256_floor_pd(_mm256_add_pd(x, vhalf));
    slot = _mm256_min_pd(_mm256_max_pd(slot, vzero), vseven);
    const __m256d level = _mm256_sub_pd(_mm256_mul_pd(slot, vtwo), vseven);
    const __m256d d = _mm256_sub_pd(_mm256_mul_pd(level, vnorm_alpha), v);
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  __m128d sum2 = _mm_add_pd(lo, hi);
  sum2 = _mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2));
  double err = _mm_cvtsd_f64(sum2);
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

// ------------------------------------- Adam's bias correction, exactly ----
//
// The AVX2 adam_update, which the AVX-512 level inherits, computes each
// bias correction x / bc as
//
//   inv = RN(1/bc)                       once per call
//   q₀  = RN(x·inv)
//   q   = RN(q₀ − RN(q₀·bc − x)·inv)     two FMAs: one Newton step
//   r   = RN(q·bc − x)                   one FMA
//
// and keeps q in a lane only when x = ±0, or when
//
//   |r| < T,  T = RN(c·2ᵉ),  c = bc·2⁻⁵³,
//
// with 2ᵉ the bits of q with its sign and fraction cleared. Every other
// lane divides. A kept q is RN(x/bc), the scalar level's quotient:
// - bc ≥ kRcpMinCorrection, so c = bc·2⁻⁵³ is normal and exact, and T is
//   the single rounding of bc·2ᵉ⁻⁵³. For a normal q in [2ᵉ, 2ᵉ⁺¹),
//   ulp(q) = 2ᵉ⁻⁵², so that exact value is bc·ulp(q)/2.
// - RN is monotone and odd: |q·bc − x| ≥ bc·ulp(q)/2 would give |r| ≥ T. So
//   |r| < T proves |x/bc − q| < ulp(q)/2, however r and T were rounded
//   (T may even be subnormal).
// - If q is not a power of two, both of its neighbours lie ulp(q) away,
//   and x/bc, strictly less than half of that from q, rounds to q.
// - If q = 2ᵉ, its lower neighbour lies only ulp(q)/2 below, but no
//   quotient falls between the two. T > 0 needs X = bc·2ᵉ > 2⁻¹⁰²², so X
//   is a normal double, and the next double below X is at least X·2⁻⁵³
//   below it; hence no x has x/bc in (2ᵉ − 2ᵉ⁻⁵³, 2ᵉ). So x/bc lies in
//   [2ᵉ, 2ᵉ + ulp(q)/2) and rounds to q. Adam's first step meets this
//   case whenever a gradient is a power of two: then m̂ = g and v̂ = g².
// - The test rejects the other quotients by itself: a zero or subnormal q
//   has 2ᵉ = +0, so T = +0; an infinite or NaN q gives T = +inf and an
//   infinite or NaN r; both fail the ordered compare. bc ≤ 1 keeps T finite
//   for every finite q.
// - x = ±0 gives q₀ = x, then RN(q₀·bc − x) = +0 and q = x: in this FMA
//   order the zero sums keep x's sign. x/bc is that same zero.
// With nothing near underflow, one Newton step from RN(1/bc) is already
// correctly rounded (Markstein's theorem), so the lanes that divide are
// NaN and infinite moments and quotients at or near the subnormal range,
// where r itself is rounded to a few bits. BiasCorrection4 tests the whole
// vector once and takes the dividing branch only when a lane failed.
//
// Corrections outside [kRcpMinCorrection, 1], which 0 < β < 1 never gives,
// leave the whole call to the scalar level.
constexpr double kRcpMinCorrection = 0x1p-900;
constexpr std::uint64_t kExponentBits = 0x7ff0000000000000ULL;

bool rcp_correction_exact(double bc) {
  return bc >= kRcpMinCorrection && bc <= 1.0;
}

// One bias correction x / bc over four lanes, bit for bit: the reciprocal
// product with one Newton step where the residual test above proves it is
// RN(x/bc), a division in the other lanes.
class BiasCorrection4 {
 public:
  explicit BiasCorrection4(double bc)
      : bc_(_mm256_set1_pd(bc)),
        inv_(_mm256_set1_pd(1.0 / bc)),
        c_(_mm256_set1_pd(bc * 0x1p-53)) {}

  __m256d apply(__m256d x) const {
    const __m256d exp_bits = _mm256_castsi256_pd(
        _mm256_set1_epi64x(static_cast<long long>(kExponentBits)));
    const __m256d abs_bits = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d q0 = _mm256_mul_pd(x, inv_);
    const __m256d q =
        _mm256_fnmadd_pd(_mm256_fmsub_pd(q0, bc_, x), inv_, q0);
    const __m256d r = _mm256_fmsub_pd(q, bc_, x);
    // T = c·2ᵉ, with 2ᵉ the exponent bits of q; q stays where |r| < T or
    // x = ±0.
    const __m256d t = _mm256_mul_pd(c_, _mm256_and_pd(q, exp_bits));
    const __m256d ok = _mm256_or_pd(
        _mm256_cmp_pd(_mm256_and_pd(r, abs_bits), t, _CMP_LT_OQ),
        _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_EQ_OQ));
    if (_mm256_movemask_pd(ok) == 0xf) [[likely]] return q;
    return _mm256_blendv_pd(_mm256_div_pd(x, bc_), q, ok);
  }

 private:
  __m256d bc_, inv_, c_;  // c_ = bc·2⁻⁵³
};

// The scalar Adam loop four lanes at a time, with the same mul/add order
// (this TU does not contract) and the same final division and square root;
// only the bias corrections run through BiasCorrection4. The tail is one
// masked pass whose dead lanes hold +0.0, which no step can make fail.
template <bool kCorrM, bool kCorrV>
void adam_loop_avx2(double* p, double* m, double* v, double* g,
                    std::size_t n, double beta1, double beta2, double lr,
                    double bc1, double bc2, double epsilon) {
  const BiasCorrection4 corr1(bc1), corr2(bc2);
  const __m256d b1 = _mm256_set1_pd(beta1);
  const __m256d ob1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d b2 = _mm256_set1_pd(beta2);
  const __m256d ob2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(epsilon);
  const __m256d zero = _mm256_setzero_pd();
  const auto step = [&](__m256d& pk, __m256d& mk, __m256d& vk, __m256d gk) {
    mk = _mm256_add_pd(_mm256_mul_pd(b1, mk), _mm256_mul_pd(ob1, gk));
    vk = _mm256_add_pd(_mm256_mul_pd(b2, vk),
                       _mm256_mul_pd(_mm256_mul_pd(ob2, gk), gk));
    const __m256d mhat = kCorrM ? corr1.apply(mk) : mk;
    const __m256d vhat = kCorrV ? corr2.apply(vk) : vk;
    pk = _mm256_sub_pd(pk, _mm256_div_pd(_mm256_mul_pd(vlr, mhat),
                                         _mm256_add_pd(_mm256_sqrt_pd(vhat),
                                                       veps)));
  };
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d pk = _mm256_loadu_pd(p + k);
    __m256d mk = _mm256_loadu_pd(m + k);
    __m256d vk = _mm256_loadu_pd(v + k);
    step(pk, mk, vk, _mm256_loadu_pd(g + k));
    _mm256_storeu_pd(g + k, zero);
    _mm256_storeu_pd(m + k, mk);
    _mm256_storeu_pd(v + k, vk);
    _mm256_storeu_pd(p + k, pk);
  }
  if (k == n) return;
  const __m256i live = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(n - k)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d pk = _mm256_maskload_pd(p + k, live);
  __m256d mk = _mm256_maskload_pd(m + k, live);
  __m256d vk = _mm256_maskload_pd(v + k, live);
  step(pk, mk, vk, _mm256_maskload_pd(g + k, live));
  _mm256_maskstore_pd(g + k, live, zero);
  _mm256_maskstore_pd(m + k, live, mk);
  _mm256_maskstore_pd(v + k, live, vk);
  _mm256_maskstore_pd(p + k, live, pk);
}

// A correction of exactly 1.0 would pass through BiasCorrection4 unchanged,
// but it is compiled out as at the scalar level: a loop that always applies
// both timed ≈ 8 % slower once 1−0.9ᵗ reaches 1.0, and 2.5× slower when
// first moments sit in the subnormal range, where every such lane divides.
void adam_update_avx2(double* p, double* m, double* v, double* g,
                      std::size_t n, double beta1, double beta2, double lr,
                      double bc1, double bc2, double epsilon) {
  if (!rcp_correction_exact(bc1) ||
      !rcp_correction_exact(bc2)) {
    scalar_ops().adam_update(p, m, v, g, n, beta1, beta2, lr, bc1, bc2,
                             epsilon);
    return;
  }
  using Loop = decltype(&adam_loop_avx2<true, true>);
  static constexpr Loop kLoops[2][2] = {
      {adam_loop_avx2<false, false>, adam_loop_avx2<false, true>},
      {adam_loop_avx2<true, false>, adam_loop_avx2<true, true>}};
  kLoops[bc1 != 1.0][bc2 != 1.0](p, m, v, g, n, beta1, beta2, lr, bc1, bc2,
                                 epsilon);
}

}  // namespace

const KernelOps* avx2_ops() {
  static constexpr KernelOps kOps{
      "avx2",          matmul_acc_avx2, gather_dot_avx2,
      bias_act_avx2,   row_max_avx2,    row_argmax_avx2,
      viterbi_acs_hard_avx2, viterbi_acs_soft_avx2, qam64_error_avx2,
      adam_update_avx2,
  };
  return &kOps;
}

}  // namespace ctj::kern

#else  // !(__AVX2__ && __FMA__)

namespace ctj::kern {

const KernelOps* avx2_ops() { return nullptr; }

}  // namespace ctj::kern

#endif
