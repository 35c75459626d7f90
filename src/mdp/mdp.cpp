#include "mdp/mdp.hpp"

#include <cmath>

#include "common/check.hpp"

namespace ctj::mdp {

Mdp::Mdp(std::size_t num_states, std::size_t num_actions)
    : num_states_(num_states),
      num_actions_(num_actions),
      reward_(num_states * num_actions, 0.0),
      transition_(num_states * num_actions * num_states, 0.0) {
  CTJ_CHECK(num_states > 0 && num_actions > 0);
}

std::size_t Mdp::index(std::size_t s, std::size_t a) const {
  CTJ_CHECK_MSG(s < num_states_ && a < num_actions_,
                "state " << s << " / action " << a << " out of range");
  return s * num_actions_ + a;
}

double Mdp::reward(std::size_t s, std::size_t a) const {
  return reward_[index(s, a)];
}

void Mdp::set_reward(std::size_t s, std::size_t a, double r) {
  reward_[index(s, a)] = r;
}

double Mdp::transition(std::size_t s, std::size_t a, std::size_t s2) const {
  CTJ_CHECK(s2 < num_states_);
  return transition_[index(s, a) * num_states_ + s2];
}

void Mdp::set_transition(std::size_t s, std::size_t a, std::size_t s2,
                         double p) {
  CTJ_CHECK(s2 < num_states_);
  CTJ_CHECK_MSG(p >= -1e-12 && p <= 1.0 + 1e-12, "probability " << p);
  transition_[index(s, a) * num_states_ + s2] = p;
}

void Mdp::add_transition(std::size_t s, std::size_t a, std::size_t s2,
                         double p) {
  set_transition(s, a, s2, transition(s, a, s2) + p);
}

void Mdp::validate(double tol) const {
  for (std::size_t s = 0; s < num_states_; ++s) {
    for (std::size_t a = 0; a < num_actions_; ++a) {
      double sum = 0.0;
      for (std::size_t s2 = 0; s2 < num_states_; ++s2) {
        const double p = transition(s, a, s2);
        CTJ_CHECK_MSG(p >= -tol, "negative P(" << s2 << "|" << s << "," << a
                                               << ") = " << p);
        sum += p;
      }
      CTJ_CHECK_MSG(std::abs(sum - 1.0) <= tol,
                    "row (s=" << s << ", a=" << a << ") sums to " << sum);
    }
  }
}

}  // namespace ctj::mdp
