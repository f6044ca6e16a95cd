#include "src/core/composite_greedy.h"

#include "src/core/evaluator.h"
#include "src/core/k_policy.h"
#include "src/core/parallel_scan.h"
#include "src/obs/telemetry.h"

namespace rap::core {

PlacementResult composite_greedy_placement(const CoverageModel& model,
                                           std::size_t k) {
  k = checked_budget(model, k, "composite_greedy");
  const obs::Span span("composite_greedy");
  std::uint64_t iterations = 0;
  std::uint64_t evaluations = 0;
  PlacementState state(model);
  const auto n = static_cast<graph::NodeId>(model.num_nodes());
  for (std::size_t step = 0; step < k && state.placement().size() < n; ++step) {
    const detail::ScanBest cover = detail::best_unplaced(
        state, n, [&](graph::NodeId v) { return state.uncovered_gain(v); });
    const detail::ScanBest improve = detail::best_unplaced(
        state, n, [&](graph::NodeId v) { return state.improvement_gain(v); });
    evaluations += cover.evaluations + improve.evaluations;
    // Candidate (i) wins exact ties — it appears first in the listing.
    const detail::ScanBest& chosen =
        improve.score > cover.score ? improve : cover;
    if (chosen.node == graph::kInvalidNode || chosen.score <= 0.0) break;
    state.add(chosen.node);
    ++iterations;
    obs::observe("placement.selected_gain", chosen.score);
  }
  if (obs::ambient() != nullptr) {
    obs::add_counter("composite_greedy.iterations", iterations);
    obs::add_counter("composite_greedy.gain_evaluations", evaluations);
  }
  return {state.placement(), state.value()};
}

}  // namespace rap::core
