#include "src/eval/shop_siting.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/core/composite_greedy.h"

namespace rap::eval {

std::vector<SiteScore> rank_shop_sites(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows,
    const traffic::UtilityFunction& utility, const ShopSitingOptions& options) {
  if (options.k == 0) {
    throw std::invalid_argument("rank_shop_sites: k must be > 0");
  }
  std::vector<graph::NodeId> candidates = options.candidates;
  if (candidates.empty()) {
    candidates.resize(net.num_nodes());
    for (graph::NodeId v = 0; v < candidates.size(); ++v) candidates[v] = v;
  } else {
    for (const graph::NodeId v : candidates) net.check_node(v);
  }

  std::vector<SiteScore> scores;
  scores.reserve(candidates.size());
  for (const graph::NodeId shop : candidates) {
    const core::PlacementProblem problem(net, flows, shop, utility);
    core::PlacementResult placed =
        core::composite_greedy_placement(problem, options.k);
    scores.push_back({shop, placed.customers, std::move(placed.nodes)});
  }
  std::sort(scores.begin(), scores.end(),
            [](const SiteScore& a, const SiteScore& b) {
              if (a.customers != b.customers) return a.customers > b.customers;
              return a.shop < b.shop;
            });
  if (options.top > 0 && scores.size() > options.top) {
    scores.resize(options.top);
  }
  return scores;
}

}  // namespace rap::eval
