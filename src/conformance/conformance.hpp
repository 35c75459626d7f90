// Kernel-conformance harness: prove the simulators match Eqs. (6)–(14).
//
// The evaluation (Figs. 6–11, Table 1) rests on the claim that
// CompetitionEnvironment and the SweepJammer-backed packet path sample
// exactly the MDP kernel of Eqs. (6)–(14) and the reward of Eq. (5). This
// module checks that claim empirically and structurally:
//
//  1. Kernel checks (check_environment / check_sweep_jammer): drive the
//     implementation for many slots under a scripted policy, bin every
//     transition by hidden state {n=1..N−1, T_J, J} × action
//     (stay|hop) × power level, and compare the empirical next-state
//     distribution and per-(s, a) mean reward of every cell against the
//     analytic AntijamMdp row. Deviations are judged with exact
//     union-corrected Hoeffding (binomial-tail) bounds plus a
//     total-variation bound, so a green run is a statistical proof at
//     confidence 1 − delta, not a vibe check. Transitions the oracle deems
//     impossible (row probability 0) are flagged on a single occurrence.
//
//  2. Structure checks (check_policy_structure): solve the MDP by value
//     iteration across L_J, L_H and ⌈K/m⌉ grids in both jammer power modes
//     and assert the Q-monotonicity of Lemmas III.2–III.3, the threshold
//     policy form of Thm. III.4, and the threshold monotonicity of
//     Thm. III.5 (n* non-increasing in L_J, non-decreasing in L_H and in
//     the sweep cycle).
//
// Every violation becomes a Divergence naming the offending (state, action)
// cell — the triage record the bench emits into BENCH_conformance.json.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/modes.hpp"
#include "core/environment.hpp"
#include "jammer/registry.hpp"
#include "jammer/sweep_jammer.hpp"
#include "mdp/antijam_mdp.hpp"

namespace ctj::conformance {

/// One divergence between an implementation and the analytic oracle.
struct Divergence {
  std::string source;  // "environment" | "sweep-jammer" | "policy-structure"
  std::string config;  // label of the configuration under test
  std::string state;   // offending hidden state ("n=2", "T_J", …) or grid point
  std::string action;  // offending action ("stay@p3", …) or theorem name
  std::string metric;  // what diverged ("P(J)", "tv", "mean reward", …)
  double observed = 0.0;
  double expected = 0.0;
  double bound = 0.0;  // allowed |observed − expected|
  std::size_t samples = 0;

  std::string describe() const;
};

struct KernelCheckOptions {
  /// Scripted slots to simulate (the bench runs millions; tier-1 tests a
  /// fast budget).
  std::size_t slots = 200000;
  /// Cells with fewer samples are reported as skipped, not checked.
  std::size_t min_samples = 200;
  /// Total false-alarm probability budget, union-corrected across every
  /// (state, action, next-state) triple.
  double confidence_delta = 1e-6;
  /// Scripted policy: per-slot probability of a (group-changing) hop.
  double hop_prob = 0.35;
  std::uint64_t seed = 1;
};

/// Per-(state, action) comparison row.
struct CellReport {
  std::string state;
  std::string action;
  std::size_t samples = 0;
  double tv = 0.0;        // total variation, empirical vs oracle row
  double tv_bound = 0.0;
  double reward_error = 0.0;  // |empirical mean reward − U(s, a)|
  double reward_bound = 0.0;
  bool checked = false;  // false: skipped for lack of samples
  bool ok = true;
};

struct KernelCheckResult {
  std::string source;
  std::string config;
  std::vector<CellReport> cells;
  std::vector<Divergence> divergences;
  std::size_t slots = 0;   // simulated slots
  std::size_t binned = 0;  // transitions binned into cells
  std::size_t cells_checked = 0;
  std::size_t cells_skipped = 0;
  double max_tv = 0.0;  // across checked cells

  bool ok() const { return divergences.empty(); }
};

/// Drive CompetitionEnvironment under a uniformly scripted policy and
/// compare every transition cell against the AntijamMdp built from the same
/// parameters. The environment is Markov in its hidden state, so every slot
/// is binnable.
KernelCheckResult check_environment(const core::EnvironmentConfig& config,
                                    const KernelCheckOptions& options,
                                    const std::string& label);

/// Drive the behavioural SweepJammer (the packet path's ground truth) with a
/// scripted victim and compare against the AntijamMdp with the same sweep
/// cycle, power levels and losses. The victim plays stay/hop episodes that
/// keep its bookkeeping aligned with the MDP state (see the .cpp for the
/// alignment argument); slots where the behavioural jammer's memory leaves
/// the MDP's state abstraction (after a mid-sweep hop miss) are excluded
/// from counting-state bins until the jammer re-locks.
KernelCheckResult check_sweep_jammer(const jammer::SweepJammerConfig& config,
                                     const std::vector<double>& tx_levels,
                                     double loss_jam, double loss_hop,
                                     const KernelCheckOptions& options,
                                     const std::string& label);

/// The same estimator generalized to an externally-built behavioural jammer:
/// any archetype whose sense/lock dynamics reduce to the sweep model (the
/// registry's "sweep" itself, "adaptive" with exploit_probability = 0,
/// "duty_cycle" with emit_cost = 0, "colluding" with one colluder) must
/// match the AntijamMdp built from `jam_levels`/`mode` and the losses.
/// Channel geometry comes from the jammer itself. check_sweep_jammer() is
/// this with a freshly-constructed SweepJammer.
KernelCheckResult check_sweep_kernel(jammer::Jammer& jam,
                                     const std::vector<double>& jam_levels,
                                     JammerPowerMode mode,
                                     const std::vector<double>& tx_levels,
                                     double loss_jam, double loss_hop,
                                     const KernelCheckOptions& options,
                                     const std::string& label);

/// Archetype-agnostic behavioural invariants, checked per slot over a
/// scripted victim plus two whole-run equivalence probes.
struct JammerCheckResult {
  std::string config;  // label of the spec under test
  std::vector<Divergence> divergences;
  std::size_t slots = 0;

  bool ok() const { return divergences.empty(); }
};

/// Drive the spec's jammer against a random-hopping victim and check, every
/// slot: the jammed group is a real m-aligned group; a hit implies the
/// victim was covered and the jammer was emitting; a hit's power is one of
/// the configured levels (the max level in max-power mode). Also proves
/// same-seed determinism (a twin instance reports identically) and mid-run
/// save/restore continuation bit-identity (a copy restored from
/// save_state() at the halfway slot finishes the run identically).
JammerCheckResult check_jammer_invariants(const jammer::JammerSpec& spec,
                                          const KernelCheckOptions& options,
                                          const std::string& label);

struct StructureCheckOptions {
  std::vector<double> lj_grid;  // L_J sweep (n* must be non-increasing)
  std::vector<double> lh_grid;  // L_H sweep (n* must be non-decreasing)
  std::vector<int> cycle_grid;  // ⌈K/m⌉ sweep (n* must be non-decreasing)

  /// Paper grids: L_J 10..100, L_H 0..100, cycle 2..16, both jammer modes.
  static StructureCheckOptions defaults();
};

struct StructurePoint {
  std::string sweep;  // "L_J" | "L_H" | "cycle"
  JammerPowerMode mode = JammerPowerMode::kMaxPower;
  double x = 0.0;
  int n_star = 0;
  bool threshold_form = true;
  /// Premise of Lemmas III.2–III.3: V*(n) non-increasing in n. Holds in the
  /// paper's regime (L_H = 50); fails at degenerate corners such as L_H = 0,
  /// where free hopping makes V*(n) increase with n and the stay-curve lemma
  /// is vacuous. Thms. III.4–III.5 are still checked at such points.
  bool lemma_premise = true;
  bool stay_decreasing = true;  // Lemma III.2, all power levels
  bool hop_increasing = true;   // Lemma III.3, all power levels
};

struct StructureCheckResult {
  std::vector<StructurePoint> points;
  std::vector<Divergence> divergences;

  bool ok() const { return divergences.empty(); }
};

StructureCheckResult check_policy_structure(
    const StructureCheckOptions& options);

/// JSON rows for BENCH_conformance.json (schema_version-1 sweeps).
JsonValue cells_json(const KernelCheckResult& result);
JsonValue structure_json(const StructureCheckResult& result);
JsonValue divergences_json(const std::vector<Divergence>& divergences);

}  // namespace ctj::conformance
