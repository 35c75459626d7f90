// Value iteration on the Bellman optimality equation (Eq. 20–21).
//
// Theorem III.1 / Appendix A of the paper: the Bellman operator is a
// γ-contraction in the L∞ norm, so repeated application converges to the
// unique optimal value function; we iterate until the sup-norm residual
// drops below tolerance.
#pragma once

#include <vector>

#include "mdp/mdp.hpp"

namespace ctj::mdp {

struct Solution {
  std::vector<double> value;                // V*(x)
  std::vector<std::vector<double>> q;       // Q*(x, a), [s][a]
  std::vector<std::size_t> policy;          // argmax_a Q*(x, a)
  std::size_t iterations = 0;
  double residual = 0.0;                    // final ||V_{t+1} − V_t||∞
};

struct ValueIterationOptions {
  double gamma = 0.9;
  double tolerance = 1e-10;
  std::size_t max_iterations = 100000;
};

/// Solve for the optimal value function and greedy policy.
Solution value_iteration(const Mdp& mdp, const ValueIterationOptions& options);

/// One application of the Bellman optimality operator to `value`.
std::vector<double> bellman_backup(const Mdp& mdp, double gamma,
                                   const std::vector<double>& value);

/// Q(x, a) = U(x, a) + γ Σ P(x'|x,a) V(x').
std::vector<std::vector<double>> q_from_value(const Mdp& mdp, double gamma,
                                              const std::vector<double>& value);

/// Evaluate a fixed deterministic policy (for comparisons in tests).
std::vector<double> policy_evaluation(const Mdp& mdp, double gamma,
                                      const std::vector<std::size_t>& policy,
                                      double tolerance = 1e-10,
                                      std::size_t max_iterations = 100000);

}  // namespace ctj::mdp
