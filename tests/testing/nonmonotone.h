// A two-node, one-flow coverage model with a hand-picked NON-monotone
// utility: the closer node (smaller detour) attracts FEWER customers.
// Exercises the guarded branch in PlacementState::add() / gain_if_added
// (src/core/evaluator.cpp) and the order-dependent contribution semantics
// the (A3)/(A4) audit invariants distinguish.
//
//   node 0: detour 2, customers 9     node 1: detour 1, customers 3
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/core/problem.h"
#include "src/graph/road_network.h"
#include "src/traffic/flow.h"
#include "src/traffic/incidence.h"
#include "src/traffic/utility.h"

namespace rap::testing {

/// Probability 1/3 at detours up to 1 and 1 beyond: with a population of 9
/// a flow is worth exactly 3 customers at detour 1 and 9 at detour 2.
class NonMonotoneUtility final : public traffic::UtilityFunction {
 public:
  [[nodiscard]] double probability(double detour,
                                   double /*alpha*/) const override {
    return detour <= 1.0 ? 1.0 / 3.0 : 1.0;  // non-monotone: closer pays less
  }
  [[nodiscard]] double range() const noexcept override { return 10.0; }
  [[nodiscard]] std::string name() const override { return "nonmonotone"; }
};

class NonMonotoneModel final : public core::CoverageModel {
 public:
  NonMonotoneModel() : CoverageModel(net_, utility_, 0) {
    net_.add_node({0.0, 0.0});
    net_.add_node({1.0, 0.0});
    net_.add_two_way_edge(0, 1, 1.0);
    traffic::TrafficFlow flow;
    flow.origin = 0;
    flow.destination = 1;
    flow.path = {0, 1};
    flow.daily_vehicles = 1.0;
    flow.passengers_per_vehicle = 9.0;
    const std::uint32_t flow_start[] = {0, 2};
    const traffic::FlowStop stops[] = {{0, 0, 2.0}, {1, 1, 1.0}};
    assemble(std::span<const traffic::TrafficFlow>(&flow, 1), flow_start,
             stops);
  }
  // The base holds pointers to net_ and utility_.
  NonMonotoneModel(const NonMonotoneModel&) = delete;
  NonMonotoneModel& operator=(const NonMonotoneModel&) = delete;

 private:
  graph::RoadNetwork net_;
  NonMonotoneUtility utility_;
};

}  // namespace rap::testing
