#include "conformance/conformance.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "mdp/analysis.hpp"

namespace ctj::conformance {

namespace {

const char* mode_name(JammerPowerMode mode) { return to_string(mode); }

/// Check one grid point: threshold form (Thm. III.4) and the Q-curve
/// monotonicity of Lemmas III.2–III.3 at every power level.
StructurePoint check_point(const mdp::AntijamParams& params,
                           const std::string& sweep, double x,
                           std::vector<Divergence>& divergences) {
  const mdp::AntijamMdp model(params);
  const mdp::Solution solution = mdp::solve(model);

  StructurePoint point;
  point.sweep = sweep;
  point.mode = params.mode;
  point.x = x;
  point.n_star = mdp::threshold_n_star(model, solution);
  point.threshold_form = mdp::policy_has_threshold_form(model, solution);

  const std::string where = sweep + "=" + std::to_string(x) + ", " +
                            mode_name(params.mode) + " mode";
  if (!point.threshold_form) {
    divergences.push_back({"policy-structure", where, "all n", "Thm. III.4",
                           "threshold form", 0.0, 1.0, 0.0, 0});
  }
  // Lemmas III.2–III.3 are proven under the premise that V*(n) is
  // non-increasing in n (the jammer closing in cannot make the victim better
  // off). That holds throughout the paper's regime, but at degenerate corners
  // (e.g. L_H = 0, where hopping is free and the hop risk falls with n)
  // V*(n) increases and the stay-curve claim genuinely reverses — the
  // theorem-level structure (III.4–III.5) still holds and is checked above.
  for (int n = 1; n <= params.sweep_cycle - 2; ++n) {
    if (solution.value[model.state_n(n + 1)] >
        solution.value[model.state_n(n)] + 1e-9) {
      point.lemma_premise = false;
    }
  }
  if (!point.lemma_premise) return point;
  for (std::size_t p = 0; p < params.num_power_levels(); ++p) {
    const mdp::QCurves curves = mdp::q_curves(model, solution, p);
    if (!mdp::stay_curve_decreasing(curves)) {
      point.stay_decreasing = false;
      divergences.push_back({"policy-structure", where,
                             "power " + std::to_string(p), "Lemma III.2",
                             "Q(n, stay) decreasing", 0.0, 1.0, 0.0, 0});
    }
    if (!mdp::hop_curve_increasing(curves)) {
      point.hop_increasing = false;
      divergences.push_back({"policy-structure", where,
                             "power " + std::to_string(p), "Lemma III.3",
                             "Q(n, hop) increasing", 0.0, 1.0, 0.0, 0});
    }
  }
  return point;
}

/// Thm. III.5: assert the n* sequence along one sweep is monotone in the
/// stated direction (`increasing` allows ties; so does decreasing).
void check_monotone(const std::vector<StructurePoint>& points,
                    std::size_t begin, const std::string& sweep,
                    JammerPowerMode mode, bool increasing,
                    std::vector<Divergence>& divergences) {
  for (std::size_t i = begin + 1; i < points.size(); ++i) {
    const auto& prev = points[i - 1];
    const auto& cur = points[i];
    const bool violated =
        increasing ? cur.n_star < prev.n_star : cur.n_star > prev.n_star;
    if (violated) {
      divergences.push_back(
          {"policy-structure",
           sweep + std::string(" sweep, ") + mode_name(mode) + " mode",
           sweep + "=" + std::to_string(cur.x), "Thm. III.5",
           std::string("n* ") + (increasing ? "non-decreasing" : "non-increasing"),
           static_cast<double>(cur.n_star), static_cast<double>(prev.n_star),
           0.0, 0});
    }
  }
}

}  // namespace

StructureCheckOptions StructureCheckOptions::defaults() {
  StructureCheckOptions options;
  options.lj_grid = linspace(10.0, 100.0, 10);
  options.lh_grid = linspace(0.0, 100.0, 11);
  options.cycle_grid = {2, 3, 4, 6, 8, 10, 12, 16};
  return options;
}

StructureCheckResult check_policy_structure(
    const StructureCheckOptions& options) {
  StructureCheckResult result;
  for (JammerPowerMode mode :
       {JammerPowerMode::kMaxPower, JammerPowerMode::kRandomPower}) {
    {
      const std::size_t begin = result.points.size();
      for (double lj : options.lj_grid) {
        auto params = mdp::AntijamParams::defaults();
        params.mode = mode;
        params.loss_jam = lj;
        result.points.push_back(
            check_point(params, "L_J", lj, result.divergences));
      }
      // Costlier jamming makes staying riskier: hop earlier.
      check_monotone(result.points, begin, "L_J", mode, /*increasing=*/false,
                     result.divergences);
    }
    {
      const std::size_t begin = result.points.size();
      for (double lh : options.lh_grid) {
        auto params = mdp::AntijamParams::defaults();
        params.mode = mode;
        params.loss_hop = lh;
        result.points.push_back(
            check_point(params, "L_H", lh, result.divergences));
      }
      // Costlier hopping delays the hop.
      check_monotone(result.points, begin, "L_H", mode, /*increasing=*/true,
                     result.divergences);
    }
    {
      const std::size_t begin = result.points.size();
      for (int cycle : options.cycle_grid) {
        CTJ_CHECK(cycle >= 2);
        auto params = mdp::AntijamParams::defaults();
        params.mode = mode;
        params.sweep_cycle = cycle;
        result.points.push_back(check_point(
            params, "cycle", static_cast<double>(cycle), result.divergences));
      }
      // A longer sweep cycle lowers the early hazard: stay longer.
      check_monotone(result.points, begin, "cycle", mode, /*increasing=*/true,
                     result.divergences);
    }
  }
  return result;
}

JsonValue cells_json(const KernelCheckResult& result) {
  JsonValue rows = JsonValue::array();
  for (const auto& cell : result.cells) {
    JsonValue row = JsonValue::object();
    row["state"] = cell.state;
    row["action"] = cell.action;
    row["samples"] = cell.samples;
    row["checked"] = cell.checked;
    row["ok"] = cell.ok;
    if (cell.checked) {
      row["tv"] = cell.tv;
      row["tv_bound"] = cell.tv_bound;
      row["reward_error"] = cell.reward_error;
      row["reward_bound"] = cell.reward_bound;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

JsonValue structure_json(const StructureCheckResult& result) {
  JsonValue rows = JsonValue::array();
  for (const auto& point : result.points) {
    JsonValue row = JsonValue::object();
    row["sweep"] = point.sweep;
    row["mode"] = to_string(point.mode);
    row["x"] = point.x;
    row["n_star"] = point.n_star;
    row["threshold_form"] = point.threshold_form;
    row["lemma_premise"] = point.lemma_premise;
    row["stay_decreasing"] = point.stay_decreasing;
    row["hop_increasing"] = point.hop_increasing;
    rows.push_back(std::move(row));
  }
  return rows;
}

JsonValue divergences_json(const std::vector<Divergence>& divergences) {
  JsonValue rows = JsonValue::array();
  for (const auto& d : divergences) {
    JsonValue row = JsonValue::object();
    row["source"] = d.source;
    row["config"] = d.config;
    row["state"] = d.state;
    row["action"] = d.action;
    row["metric"] = d.metric;
    row["observed"] = d.observed;
    row["expected"] = d.expected;
    row["bound"] = d.bound;
    row["samples"] = d.samples;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace ctj::conformance
