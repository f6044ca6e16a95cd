#include "src/core/lazy_greedy.h"

#include <cstdint>
#include <queue>
#include <stdexcept>

#include "src/core/k_policy.h"
#include "src/obs/telemetry.h"

namespace rap::core {
namespace {

/// Stamp of an upper-bound seed. Never equal to a selection count: a run
/// selects at most num_nodes < 2^32 - 1 nodes.
constexpr std::uint32_t kSeedStamp = 0xffffffffU;

struct Entry {
  double gain;
  graph::NodeId node;
  std::uint32_t stamp;  ///< selections count the gain is exact for
};

// Ties must break to the lowest node id (matching the eager scan), so equal
// gains order by ascending id. Node ids are unique, so this is a strict
// total order and the pop sequence does not depend on how the heap was
// built.
struct EntryLess {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  }
};

}  // namespace

std::vector<double> marginal_gains(const PlacementState& state) {
  std::vector<double> gains(state.model().num_nodes(), 0.0);
  for (graph::NodeId v = 0; v < gains.size(); ++v) {
    if (!state.contains(v)) gains[v] = state.gain_if_added(v);
  }
  return gains;
}

CelfRun celf_extend(PlacementState& state, std::size_t budget, CelfSeeds seeds,
                    const CelfHook& hook) {
  const auto n = static_cast<graph::NodeId>(state.model().num_nodes());
  if (seeds.gains.size() != n) {
    throw std::invalid_argument("celf_extend: need one seed per node");
  }
  const std::uint32_t seed_stamp = seeds.upper_bounds ? kSeedStamp : 0;
  std::vector<Entry> entries;
  entries.reserve(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!state.contains(v)) entries.push_back({seeds.gains[v], v, seed_stamp});
  }
  std::priority_queue<Entry, std::vector<Entry>, EntryLess> heap(
      EntryLess{}, std::move(entries));

  CelfRun run;
  std::uint32_t selections = 0;
  while (selections < budget && !heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    ++run.stats.heap_pops;
    if (top.stamp != selections) {
      ++run.stats.gain_evaluations;
      const double gain = state.gain_if_added(top.node);
      if (hook && !hook({top.node, gain, top.gain, top.stamp == kSeedStamp,
                         selections})) {
        run.completed = false;
        return run;
      }
      // A zero-gain node can never be selected: drop it.
      if (gain > 0.0) heap.push({gain, top.node, selections});
      continue;
    }
    if (top.gain <= 0.0) break;
    state.add(top.node);
    ++selections;
    run.selected_gains.push_back(top.gain);
  }
  return run;
}

PlacementResult lazy_marginal_greedy_placement(const CoverageModel& model,
                                               std::size_t k,
                                               LazyGreedyStats* stats) {
  k = checked_budget(model, k, "lazy greedy placement");
  const obs::Span span("lazy_greedy");
  PlacementState state(model);
  const std::vector<double> round0 = marginal_gains(state);
  const CelfRun run = celf_extend(state, k, {round0});
  LazyGreedyStats local = run.stats;
  local.gain_evaluations += round0.size();
  // The registry is the canonical sink; the LazyGreedyStats out-param is a
  // per-call view of the same counts for callers without telemetry.
  if (obs::ambient() != nullptr) {
    for (const double gain : run.selected_gains) {
      obs::observe("placement.selected_gain", gain);
    }
    obs::add_counter("lazy_greedy.gain_evaluations", local.gain_evaluations);
    obs::add_counter("lazy_greedy.heap_pops", local.heap_pops);
    obs::add_counter("lazy_greedy.selections", run.selected_gains.size());
  }
  if (stats != nullptr) *stats = local;
  return {state.placement(), state.value()};
}

}  // namespace rap::core
