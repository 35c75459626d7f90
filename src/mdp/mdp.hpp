// Generic finite Markov Decision Process with dense transition kernel.
//
// The anti-jamming competition of Sec. III.A has ≤ ~20 states and ≤ ~20
// actions, so a dense representation is simplest and exact.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ctj::mdp {

class Mdp {
 public:
  Mdp(std::size_t num_states, std::size_t num_actions);

  std::size_t num_states() const { return num_states_; }
  std::size_t num_actions() const { return num_actions_; }

  /// Expected immediate reward U(x, a).
  double reward(std::size_t s, std::size_t a) const;
  void set_reward(std::size_t s, std::size_t a, double r);

  /// Transition probability P(x' | x, a).
  double transition(std::size_t s, std::size_t a, std::size_t s2) const;
  void set_transition(std::size_t s, std::size_t a, std::size_t s2, double p);

  /// Add probability mass (convenient when several cases target one state).
  void add_transition(std::size_t s, std::size_t a, std::size_t s2, double p);

  /// Throws CheckFailure unless every (s, a) row is a probability
  /// distribution within `tol`.
  void validate(double tol = 1e-9) const;

 private:
  std::size_t index(std::size_t s, std::size_t a) const;

  std::size_t num_states_;
  std::size_t num_actions_;
  std::vector<double> reward_;       // [s * A + a]
  std::vector<double> transition_;   // [(s * A + a) * S + s2]
};

}  // namespace ctj::mdp
