// The fixed-path coverage model's two halves: IncidenceIndex (each flow's
// stops in path order) and the node-major CSR PlacementProblem assembles
// from those stops (reach lists, passing vehicles and flow counts).
#include "src/traffic/incidence.h"

#include <gtest/gtest.h>

#include <map>

#include "src/core/problem.h"
#include "tests/testing/builders.h"

namespace rap::traffic {
namespace {

using core::PlacementProblem;
using testing::Fig4;

class IncidenceFig4 : public ::testing::Test {
 protected:
  IncidenceFig4()
      : utility_(Fig4::threshold),
        problem_(fig_.net, fig_.flows, Fig4::shop, utility_),
        index_(problem_.incidence()) {}

  Fig4 fig_;
  ThresholdUtility utility_;
  PlacementProblem problem_;
  const IncidenceIndex& index_;
};

TEST_F(IncidenceFig4, Dimensions) {
  EXPECT_EQ(problem_.num_nodes(), 6u);
  EXPECT_EQ(problem_.num_flows(), 4u);
  EXPECT_EQ(index_.num_flows(), 4u);
}

TEST_F(IncidenceFig4, FlowsAtV3) {
  // V3 lies on T(2,5), T(3,5), T(4,3) — all with detour 4.
  const auto at_v3 = problem_.reach_at(Fig4::V3);
  ASSERT_EQ(at_v3.size(), 3u);
  for (const NodeIncidence& inc : at_v3) {
    EXPECT_DOUBLE_EQ(inc.detour, 4.0);
  }
}

TEST_F(IncidenceFig4, NoFlowsAtShop) {
  EXPECT_TRUE(problem_.reach_at(Fig4::V1).empty());
}

TEST_F(IncidenceFig4, StopsInPathOrder) {
  const auto stops = index_.stops_of(0);  // T(2,5): V2, V3, V5
  ASSERT_EQ(stops.size(), 3u);
  EXPECT_EQ(stops[0].node, Fig4::V2);
  EXPECT_EQ(stops[1].node, Fig4::V3);
  EXPECT_EQ(stops[2].node, Fig4::V5);
  EXPECT_EQ(stops[0].path_index, 0u);
  EXPECT_DOUBLE_EQ(stops[0].detour, 2.0);
  EXPECT_DOUBLE_EQ(stops[2].detour, 6.0);
}

TEST_F(IncidenceFig4, PassingVehicles) {
  // V3: 6 + 3 + 6 = 15 vehicles; V5: 6 + 3 + 2 = 11; V6: 2.
  EXPECT_DOUBLE_EQ(problem_.passing_vehicles(Fig4::V3), 15.0);
  EXPECT_DOUBLE_EQ(problem_.passing_vehicles(Fig4::V5), 11.0);
  EXPECT_DOUBLE_EQ(problem_.passing_vehicles(Fig4::V6), 2.0);
  EXPECT_DOUBLE_EQ(problem_.passing_vehicles(Fig4::V1), 0.0);
}

TEST_F(IncidenceFig4, PassingFlowCounts) {
  EXPECT_EQ(problem_.passing_flow_count(Fig4::V3), 3u);
  EXPECT_EQ(problem_.passing_flow_count(Fig4::V5), 3u);
  EXPECT_EQ(problem_.passing_flow_count(Fig4::V2), 1u);
  EXPECT_EQ(problem_.passing_flow_count(Fig4::V1), 0u);
}

TEST_F(IncidenceFig4, BoundsChecked) {
  EXPECT_THROW(problem_.reach_at(6), std::out_of_range);
  EXPECT_THROW(index_.stops_of(4), std::out_of_range);
  EXPECT_THROW(problem_.passing_vehicles(6), std::out_of_range);
  EXPECT_THROW(problem_.passing_flow_count(6), std::out_of_range);
  EXPECT_THROW(problem_.customers(4, 0.0), std::out_of_range);
}

TEST(IncidenceIndex, RepeatedNodeKeepsMinimumDetour) {
  // Path that revisits node 1: the stop records the minimum detour.
  const auto net = testing::line_network(4);
  TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 1;
  flow.path = {0, 1, 2, 1};
  flow.daily_vehicles = 5.0;
  const DetourCalculator calc(net, 3);
  const ThresholdUtility utility(10.0);
  const PlacementProblem problem(net, {flow}, 3, utility);
  const auto stops = problem.incidence().stops_of(0);
  ASSERT_EQ(stops.size(), 3u);  // nodes 0, 1, 2 (1 deduped)
  // Node 1 is visited at positions 1 and 3; its detour is the min of both.
  const auto path_detours = calc.detours_along_path(flow);
  EXPECT_DOUBLE_EQ(stops[1].detour,
                   std::min(path_detours[1], path_detours[3]));
  // Vehicles at node 1 counted once.
  EXPECT_DOUBLE_EQ(problem.passing_vehicles(1), 5.0);
}

TEST(IncidenceIndex, TransposeConsistency) {
  // Sum over nodes of incidences == sum over flows of stops, and the
  // (node, flow, detour) triples agree between both layouts.
  util::Rng rng(77);
  const auto net = testing::random_network(4, 4, 6, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const LinearUtility utility(10.0);
  const PlacementProblem problem(net, flows, 5, utility);

  std::map<std::pair<graph::NodeId, FlowIndex>, double> from_nodes;
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    for (const NodeIncidence& inc : problem.reach_at(v)) {
      from_nodes[{v, inc.flow}] = inc.detour;
    }
  }
  std::map<std::pair<graph::NodeId, FlowIndex>, double> from_flows;
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    for (const FlowStop& stop : problem.incidence().stops_of(f)) {
      from_flows[{stop.node, f}] = stop.detour;
    }
  }
  EXPECT_EQ(from_nodes, from_flows);
}

TEST(IncidenceIndex, EmptyFlowsYieldEmptyIndex) {
  const auto net = testing::line_network(3);
  const ThresholdUtility utility(10.0);
  const PlacementProblem problem(net, {}, 0, utility);
  EXPECT_EQ(problem.num_flows(), 0u);
  EXPECT_EQ(problem.incidence().num_flows(), 0u);
  for (graph::NodeId v = 0; v < 3; ++v) {
    EXPECT_TRUE(problem.reach_at(v).empty());
    EXPECT_DOUBLE_EQ(problem.passing_vehicles(v), 0.0);
  }
}

TEST(IncidenceIndex, ValidatesFlows) {
  const auto net = testing::line_network(3);
  const DetourCalculator calc(net, 0);
  TrafficFlow bad;
  bad.origin = 0;
  bad.destination = 2;
  bad.path = {0, 2};  // not a walk
  bad.daily_vehicles = 1.0;
  const std::vector<TrafficFlow> flows{bad};
  EXPECT_THROW(IncidenceIndex(net, flows, calc), std::invalid_argument);
}

}  // namespace
}  // namespace rap::traffic
