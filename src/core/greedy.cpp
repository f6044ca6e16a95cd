#include "src/core/greedy.h"

#include "src/core/evaluator.h"
#include "src/core/k_policy.h"
#include "src/core/parallel_scan.h"
#include "src/obs/telemetry.h"

namespace rap::core {

PlacementResult greedy_coverage_placement(const CoverageModel& model,
                                          std::size_t k) {
  k = checked_budget(model, k, "greedy_coverage_placement");
  const obs::Span span("greedy_coverage");
  std::uint64_t iterations = 0;
  std::uint64_t evaluations = 0;
  PlacementState state(model);
  const auto n = static_cast<graph::NodeId>(model.num_nodes());
  for (std::size_t step = 0; step < k && state.placement().size() < n; ++step) {
    const detail::ScanBest best = detail::best_unplaced(
        state, n, [&](graph::NodeId v) { return state.uncovered_gain(v); });
    evaluations += best.evaluations;
    if (best.node == graph::kInvalidNode || best.score <= 0.0) break;
    state.add(best.node);
    ++iterations;
    obs::observe("placement.selected_gain", best.score);
  }
  if (obs::ambient() != nullptr) {
    obs::add_counter("greedy.iterations", iterations);
    obs::add_counter("greedy.gain_evaluations", evaluations);
  }
  return {state.placement(), state.value()};
}

}  // namespace rap::core
