// The compressed-nonzero packing scaffold the AVX2 and AVX-512 translation
// units share. Each level brings its own vector pack of one A row; both keep
// exactly the entries the scalar reference's `if (aik == 0.0) continue`
// keeps, in increasing k, so every level's matmul and gather_dot run the
// same per-element chains.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ctj::kern::detail {

// Slots a row pack may write past the row's kk entries: the packs store
// whole vectors (up to 8 lanes) at the packed cursor, which never runs
// ahead of the k that is being read.
inline constexpr std::size_t kPackSlack = 8;

// A row pack: the nonzero entries of the A row arow[k·cs], k < kk, in
// increasing k, as values in v and k indices in ix, returning their count.
// v and ix hold kk + kPackSlack slots. A nonzero is what `!= 0.0` selects:
// ±0.0 is dropped and NaN is kept.
using PackRow = std::size_t (*)(const double* arow, std::size_t cs,
                                std::size_t kk, double* v, std::int32_t* ix);

// Per-thread packing scratch for the compressed-nonzero matmul: one
// (value, k-index) list per A row of the current row chunk. Thread-local in
// the SIMD TUs so concurrent sweep workers never share buffers; the vectors
// only ever grow, so steady-state calls are allocation-free.
struct MatmulScratch {
  std::vector<double> vals;
  std::vector<std::int32_t> idx;
  std::vector<std::int32_t> cnt;
  std::size_t stride = 0;  // slots per row list: kk + kPackSlack

  void reserve_chunk(std::size_t rows, std::size_t kk) {
    stride = kk + kPackSlack;
    if (vals.size() < rows * stride) {
      vals.resize(rows * stride);
      idx.resize(rows * stride);
    }
    if (cnt.size() < rows) cnt.resize(rows);
  }

  /// Packs rows [0, rows) of the A chunk `a` (row r at a + r·rs, its entries
  /// cs apart); row r's list starts at vals/idx + r·stride and holds cnt[r]
  /// entries.
  template <PackRow Pack>
  void pack_chunk(const double* a, std::size_t rs, std::size_t cs,
                  std::size_t rows, std::size_t kk) {
    for (std::size_t r = 0; r < rows; ++r) {
      cnt[r] = static_cast<std::int32_t>(Pack(a + r * rs, cs, kk,
                                              vals.data() + r * stride,
                                              idx.data() + r * stride));
    }
  }
};

// One matmul_acc entry per row: the row's nonzeros packed as that level's
// matmul packs them, then one FMA chain from 0 in increasing k — the
// per-element sequence every stripe width of the SIMD products runs.
template <PackRow Pack>
void gather_dot_packed(double* out, const double* a, const double* b,
                       const std::size_t* col, std::size_t m, std::size_t kk,
                       std::size_t n) {
  static thread_local MatmulScratch scratch;
  scratch.reserve_chunk(1, kk);
  double* v = scratch.vals.data();
  std::int32_t* ix = scratch.idx.data();
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t nnz = Pack(a + i * kk, 1, kk, v, ix);
    const double* bcol = b + col[i];
    double s = 0.0;
    for (std::size_t t = 0; t < nnz; ++t) {
      s = __builtin_fma(v[t], bcol[static_cast<std::size_t>(ix[t]) * n], s);
    }
    out[i] = s;
  }
}

}  // namespace ctj::kern::detail
