// Shared bodies for the kernel layer, included by the scalar and the SIMD
// translation units so the levels differ only in the vectorized primitives,
// never in the surrounding arithmetic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/kernels.hpp"

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

// Huber derivative/objective for a scalar TD error — same arithmetic as
// rl::huber_grad / rl::huber_loss, restated here so the kernel layer stays
// below the RL library in the dependency order.
inline double huber_grad(double error, double delta) {
  if (error > delta) return delta;
  if (error < -delta) return -delta;
  return error;
}

inline double huber_loss(double error, double delta) {
  const double abs_error = error < 0.0 ? -error : error;
  if (abs_error <= delta) return 0.5 * error * error;
  return delta * (abs_error - 0.5 * delta);
}

// The per-row epilogue of the fused TD + Huber kernel. The row reductions
// (the O(batch × num_actions) part) are the injected primitives; everything
// after them is a handful of scalar ops per row, written identically in both
// levels so a level switch can only move results through the reductions.
template <typename RowMaxFn, typename RowArgmaxFn>
double td_huber_epilogue(const TdHuberArgs& a, double* g, RowMaxFn row_max,
                         RowArgmaxFn row_argmax) {
  const std::size_t A = a.num_actions;
  double loss = 0.0;
  for (std::size_t i = 0; i < a.batch; ++i) {
    const double* nq = a.next_q + i * A;
    double max_next;
    if (a.next_q_online != nullptr) {
      // Double-DQN: the online network selects the bootstrap action, the
      // target network evaluates it.
      max_next = nq[row_argmax(a.next_q_online + i * A, A)];
    } else {
      max_next = row_max(nq, A);
    }
    const double r = a.rewards[i] * a.reward_scale;
    const double target = a.dones[i] ? r : r + a.gamma * max_next;
    const double error = a.q_taken[i] - target;
    loss += huber_loss(error, a.huber_delta);
    g[i] = huber_grad(error, a.huber_delta) / a.grad_div;
  }
  return loss;
}

}  // namespace ctj::kern::detail
