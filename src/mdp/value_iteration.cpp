#include "mdp/value_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace ctj::mdp {

std::vector<double> bellman_backup(const Mdp& mdp, double gamma,
                                   const std::vector<double>& value) {
  CTJ_CHECK(value.size() == mdp.num_states());
  std::vector<double> next(mdp.num_states());
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < mdp.num_actions(); ++a) {
      double q = mdp.reward(s, a);
      for (std::size_t s2 = 0; s2 < mdp.num_states(); ++s2) {
        const double p = mdp.transition(s, a, s2);
        if (p > 0.0) q += gamma * p * value[s2];
      }
      best = std::max(best, q);
    }
    next[s] = best;
  }
  return next;
}

std::vector<std::vector<double>> q_from_value(
    const Mdp& mdp, double gamma, const std::vector<double>& value) {
  CTJ_CHECK(value.size() == mdp.num_states());
  std::vector<std::vector<double>> q(
      mdp.num_states(), std::vector<double>(mdp.num_actions(), 0.0));
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    for (std::size_t a = 0; a < mdp.num_actions(); ++a) {
      double v = mdp.reward(s, a);
      for (std::size_t s2 = 0; s2 < mdp.num_states(); ++s2) {
        const double p = mdp.transition(s, a, s2);
        if (p > 0.0) v += gamma * p * value[s2];
      }
      q[s][a] = v;
    }
  }
  return q;
}

Solution value_iteration(const Mdp& mdp, const ValueIterationOptions& options) {
  CTJ_CHECK(options.gamma >= 0.0 && options.gamma < 1.0);
  mdp.validate();
  Solution sol;
  sol.value.assign(mdp.num_states(), 0.0);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    std::vector<double> next = bellman_backup(mdp, options.gamma, sol.value);
    double residual = 0.0;
    for (std::size_t s = 0; s < mdp.num_states(); ++s) {
      residual = std::max(residual, std::abs(next[s] - sol.value[s]));
    }
    sol.value = std::move(next);
    sol.iterations = it + 1;
    sol.residual = residual;
    if (residual <= options.tolerance) break;
  }
  sol.q = q_from_value(mdp, options.gamma, sol.value);
  sol.policy.resize(mdp.num_states());
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    sol.policy[s] = argmax(sol.q[s]);
  }
  return sol;
}

std::vector<double> policy_evaluation(const Mdp& mdp, double gamma,
                                      const std::vector<std::size_t>& policy,
                                      double tolerance,
                                      std::size_t max_iterations) {
  CTJ_CHECK(policy.size() == mdp.num_states());
  std::vector<double> value(mdp.num_states(), 0.0);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    double residual = 0.0;
    std::vector<double> next(mdp.num_states());
    for (std::size_t s = 0; s < mdp.num_states(); ++s) {
      const std::size_t a = policy[s];
      double v = mdp.reward(s, a);
      for (std::size_t s2 = 0; s2 < mdp.num_states(); ++s2) {
        const double p = mdp.transition(s, a, s2);
        if (p > 0.0) v += gamma * p * value[s2];
      }
      next[s] = v;
      residual = std::max(residual, std::abs(next[s] - value[s]));
    }
    value = std::move(next);
    if (residual <= tolerance) break;
  }
  return value;
}

}  // namespace ctj::mdp
