// Flexible-route coverage for real (partially grid) networks — the Fig. 13
// evaluation model.
//
// Under the Manhattan scenario a flow is not pinned to one path: drivers
// take any shortest path from origin to destination and will pick one
// passing a RAP to collect the free advertisement. Hence a RAP at v reaches
// flow (i, j) iff
//     dist(i, v) + dist(v, j) == dist(i, j)
// and offers detour dist(v, shop) + dist(shop, j) - dist(v, j). On networks
// with many shortest-path ties (grids and near-grids) this covers far more
// flows per RAP than the fixed-path model — exactly why the paper measures
// more customers in Fig. 13 than in Fig. 12.
//
// FlexibleProblem builds a core::CoverageModel, so Algorithms 1/2, the
// exhaustive optimum, and all baselines run unchanged against it.
#pragma once

#include <vector>

#include "src/core/problem.h"

namespace rap::manhattan {

class FlexibleProblem final : public core::CoverageModel {
 public:
  /// Builds the flexible-route reach index: per flow, one Dijkstra from the
  /// origin and one reverse Dijkstra from the destination (their distance
  /// arrays cached across flows sharing endpoints), plus the two shop
  /// trees. Flows' stored paths are only used as a fallback identity
  /// (origin/destination); they are validated like everywhere else. Throws
  /// on bad input. Runs under the obs span "incidence_index".
  FlexibleProblem(const graph::RoadNetwork& net,
                  std::vector<traffic::TrafficFlow> flows,
                  graph::NodeId shop,
                  const traffic::UtilityFunction& utility);

  FlexibleProblem(const FlexibleProblem&) = delete;
  FlexibleProblem& operator=(const FlexibleProblem&) = delete;
  FlexibleProblem(FlexibleProblem&&) = default;
  FlexibleProblem& operator=(FlexibleProblem&&) = default;

  [[nodiscard]] const std::vector<traffic::TrafficFlow>& flows() const noexcept {
    return flows_;
  }

 private:
  std::vector<traffic::TrafficFlow> flows_;
};

}  // namespace rap::manhattan
