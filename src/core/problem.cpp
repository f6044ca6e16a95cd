#include "src/core/problem.h"

#include <cmath>
#include <stdexcept>

namespace rap::core {

PlacementProblem::PlacementProblem(const graph::RoadNetwork& net,
                                   std::vector<traffic::TrafficFlow> flows,
                                   graph::NodeId shop,
                                   const traffic::UtilityFunction& utility,
                                   traffic::DetourMode mode)
    : PlacementProblem(net, std::move(flows), shop, utility,
                       std::make_unique<traffic::DetourCalculator>(
                           net, (net.check_node(shop), shop), mode)) {}

PlacementProblem::PlacementProblem(
    const graph::RoadNetwork& net, std::vector<traffic::TrafficFlow> flows,
    graph::NodeId shop, const traffic::UtilityFunction& utility,
    std::unique_ptr<const traffic::DetourSource> detours)
    : net_(&net),
      flows_(std::move(flows)),
      shop_(shop),
      utility_(&utility),
      detours_(std::move(detours)) {
  if (!detours_) {
    throw std::invalid_argument("PlacementProblem: null detour source");
  }
  // The index validates each flow once, as it prices it.
  incidence_ =
      std::make_unique<traffic::IncidenceIndex>(net, flows_, *detours_);
}

double PlacementProblem::customers(traffic::FlowIndex flow,
                                   double detour) const {
  if (flow >= flows_.size()) {
    throw std::out_of_range("PlacementProblem::customers: bad flow index");
  }
  if (std::isinf(detour)) return 0.0;
  const traffic::TrafficFlow& f = flows_[flow];
  return utility_->probability(detour, f.alpha) * f.population();
}

}  // namespace rap::core
