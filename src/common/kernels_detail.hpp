// The compressed-nonzero packing the AVX2 and AVX-512 translation units
// share, so their matmul and gather_dot skip exactly the same entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ctj::kern::detail {

// Branchless pack of a row's nonzero entries (value + k index) into v/ix.
// Every slot is written, but the cursor only advances past nonzeros, so the
// packed prefix skips exactly the entries the scalar reference's
// `if (aik == 0.0) continue` skips — with no data-dependent branch for the
// predictor to miss on ~half-zero ReLU activations.
inline std::size_t pack_nonzeros(const double* arow, std::size_t kk,
                                 double* v, std::int32_t* ix) {
  std::size_t t = 0;
  for (std::size_t k = 0; k < kk; ++k) {
    v[t] = arow[k];
    ix[t] = static_cast<std::int32_t>(k);
    t += arow[k] != 0.0 ? 1 : 0;
  }
  return t;
}

// Per-thread packing scratch for the compressed-nonzero matmul: one
// (value, k-index) list per A row of the current row chunk. Thread-local in
// the SIMD TUs so concurrent sweep workers never share buffers; the vectors
// only ever grow, so steady-state calls are allocation-free.
struct MatmulScratch {
  std::vector<double> vals;
  std::vector<std::int32_t> idx;
  std::vector<std::int32_t> cnt;

  void reserve_chunk(std::size_t rows, std::size_t kk) {
    if (vals.size() < rows * kk) {
      vals.resize(rows * kk);
      idx.resize(rows * kk);
    }
    if (cnt.size() < rows) cnt.resize(rows);
  }

  /// Packs rows [0, rows) of the row-major A chunk `a` (kk columns each);
  /// row r's list starts at vals/idx + r·kk and holds cnt[r] entries.
  void pack_chunk(const double* a, std::size_t rows, std::size_t kk) {
    for (std::size_t r = 0; r < rows; ++r) {
      cnt[r] = static_cast<std::int32_t>(pack_nonzeros(
          a + r * kk, kk, vals.data() + r * kk, idx.data() + r * kk));
    }
  }
};

}  // namespace ctj::kern::detail
