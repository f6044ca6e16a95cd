#include "src/core/multishop.h"

#include <algorithm>
#include <stdexcept>

namespace rap::core {

MultiShopDetour::MultiShopDetour(const graph::RoadNetwork& net,
                                 std::vector<graph::NodeId> shops,
                                 traffic::DetourMode mode)
    : shops_(std::move(shops)) {
  if (shops_.empty()) {
    throw std::invalid_argument("MultiShopDetour: need at least one shop");
  }
  calculators_.reserve(shops_.size());
  for (const graph::NodeId shop : shops_) {
    net.check_node(shop);
    calculators_.emplace_back(net, shop, mode);
  }
}

void MultiShopDetour::price(const traffic::TrafficFlow& flow,
                            std::span<double> out) const {
  calculators_.front().detours_into(flow, out);
  if (calculators_.size() == 1) return;
  std::vector<double> candidate(out.size());
  for (std::size_t s = 1; s < calculators_.size(); ++s) {
    calculators_[s].detours_into(flow, candidate);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], candidate[i]);
    }
  }
}

PlacementProblem make_multishop_problem(
    const graph::RoadNetwork& net, std::vector<traffic::TrafficFlow> flows,
    std::vector<graph::NodeId> shops, const traffic::UtilityFunction& utility,
    traffic::DetourMode mode) {
  return PlacementProblem(
      net, std::move(flows), graph::kInvalidNode, utility,
      std::make_unique<MultiShopDetour>(net, std::move(shops), mode));
}

}  // namespace rap::core
