#include "src/core/stochastic.h"

#include <stdexcept>

#include "src/core/evaluator.h"
#include "src/core/k_policy.h"
#include "src/core/parallel_scan.h"

namespace rap::core {
namespace {

void validate_scenarios(std::span<const CoverageModel* const> scenarios) {
  if (scenarios.empty()) {
    throw std::invalid_argument("stochastic placement: no scenarios");
  }
  for (const CoverageModel* scenario : scenarios) {
    if (scenario == nullptr) {
      throw std::invalid_argument("stochastic placement: null scenario");
    }
    if (&scenario->network() != &scenarios.front()->network()) {
      throw std::invalid_argument(
          "stochastic placement: scenarios must share one network");
    }
  }
}

}  // namespace

PlacementResult stochastic_greedy_placement(
    std::span<const CoverageModel* const> scenarios, std::size_t k) {
  validate_scenarios(scenarios);
  k = checked_budget(*scenarios.front(), k, "stochastic_greedy_placement");

  std::vector<PlacementState> states;
  states.reserve(scenarios.size());
  for (const CoverageModel* scenario : scenarios) {
    states.emplace_back(*scenario);
  }
  const auto n =
      static_cast<graph::NodeId>(scenarios.front()->num_nodes());
  Placement placed;
  for (std::size_t step = 0; step < k && placed.size() < n; ++step) {
    // Every state holds the same placement, so the first one stands for
    // all in the scan's placed-node test.
    const detail::ScanBest best =
        detail::best_unplaced(states.front(), n, [&](graph::NodeId v) {
          double gain = 0.0;
          for (const PlacementState& state : states) {
            gain += state.gain_if_added(v);
          }
          return gain;
        });
    if (best.node == graph::kInvalidNode || best.score <= 0.0) break;
    for (PlacementState& state : states) state.add(best.node);
    placed.push_back(best.node);
  }

  double total = 0.0;
  for (const PlacementState& state : states) total += state.value();
  return {placed, total / static_cast<double>(states.size())};
}

double evaluate_scenario_average(
    std::span<const CoverageModel* const> scenarios,
    std::span<const graph::NodeId> nodes) {
  validate_scenarios(scenarios);
  double total = 0.0;
  for (const CoverageModel* scenario : scenarios) {
    total += evaluate_placement(*scenario, nodes);
  }
  return total / static_cast<double>(scenarios.size());
}

std::vector<std::unique_ptr<PlacementProblem>> make_demand_scenarios(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows, graph::NodeId shop,
    const traffic::UtilityFunction& utility, std::size_t count,
    double volume_cv, std::uint64_t seed) {
  if (count == 0) {
    throw std::invalid_argument("make_demand_scenarios: count must be > 0");
  }
  std::vector<std::unique_ptr<PlacementProblem>> scenarios;
  scenarios.reserve(count);
  const util::Rng root(seed);
  for (std::size_t s = 0; s < count; ++s) {
    util::Rng rng = root.fork(s);
    scenarios.push_back(std::make_unique<PlacementProblem>(
        net, traffic::perturb_demand(flows, volume_cv, rng), shop, utility));
  }
  return scenarios;
}

}  // namespace rap::core
