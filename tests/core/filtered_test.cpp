// filter_flows: a coverage model restricted to a subset of flows.
#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/core/problem.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

class FilteredFig4 : public ::testing::Test {
 protected:
  FilteredFig4()
      : utility_(Fig4::threshold),
        problem_(fig_.net, fig_.flows, Fig4::shop, utility_) {}

  Fig4 fig_;
  traffic::ThresholdUtility utility_;
  PlacementProblem problem_;
};

TEST_F(FilteredFig4, AllActiveEqualsBase) {
  const CoverageModel filtered =
      filter_flows(problem_, std::vector<bool>(4, true));
  for (graph::NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(filtered.reach_at(v).size(), problem_.reach_at(v).size());
    EXPECT_EQ(filtered.passing_flow_count(v), problem_.passing_flow_count(v));
  }
  const Placement nodes{Fig4::V3, Fig4::V5};
  EXPECT_DOUBLE_EQ(evaluate_placement(filtered, nodes),
                   evaluate_placement(problem_, nodes));
}

TEST_F(FilteredFig4, NoneActiveIsZero) {
  const CoverageModel filtered =
      filter_flows(problem_, std::vector<bool>(4, false));
  const Placement nodes{Fig4::V3, Fig4::V5};
  EXPECT_DOUBLE_EQ(evaluate_placement(filtered, nodes), 0.0);
  for (graph::NodeId v = 0; v < 6; ++v) {
    EXPECT_TRUE(filtered.reach_at(v).empty());
  }
}

TEST_F(FilteredFig4, SubsetCountsOnlyActiveFlows) {
  // Keep only T(2,5) (index 0).
  std::vector<bool> mask(4, false);
  mask[0] = true;
  const CoverageModel filtered = filter_flows(problem_, mask);
  const Placement nodes{Fig4::V3, Fig4::V5};
  EXPECT_DOUBLE_EQ(evaluate_placement(filtered, nodes), 6.0);
  EXPECT_EQ(filtered.passing_flow_count(Fig4::V3), 1u);
  EXPECT_DOUBLE_EQ(filtered.customers(1, 0.0), 0.0);  // masked flow
  EXPECT_DOUBLE_EQ(filtered.customers(0, 0.0), 6.0);
}

TEST_F(FilteredFig4, FlowIndicesPreserved) {
  std::vector<bool> mask(4, false);
  mask[2] = true;  // T(4,3)
  const CoverageModel filtered = filter_flows(problem_, mask);
  EXPECT_EQ(filtered.num_flows(), 4u);
  const auto at_v3 = filtered.reach_at(Fig4::V3);
  ASSERT_EQ(at_v3.size(), 1u);
  EXPECT_EQ(at_v3[0].flow, 2u);
}

TEST_F(FilteredFig4, MetadataForwarded) {
  const CoverageModel filtered =
      filter_flows(problem_, std::vector<bool>(4, true));
  EXPECT_EQ(&filtered.network(), &problem_.network());
  EXPECT_EQ(&filtered.utility(), &problem_.utility());
  EXPECT_EQ(filtered.shop(), problem_.shop());
  EXPECT_DOUBLE_EQ(filtered.passing_vehicles(Fig4::V3), 15.0);
}

TEST_F(FilteredFig4, SubsetMaskFiltersFlowCountsButNotVehicles) {
  // Keep only T(4,3) (index 2). V3 is on T(2,5), T(3,5) and T(4,3): the
  // flow count follows the mask, the vehicle count stays the base's.
  std::vector<bool> mask(4, false);
  mask[2] = true;
  const CoverageModel filtered = filter_flows(problem_, mask);
  EXPECT_EQ(problem_.passing_flow_count(Fig4::V3), 3u);
  EXPECT_EQ(filtered.passing_flow_count(Fig4::V3), 1u);
  EXPECT_EQ(filtered.passing_flow_count(Fig4::V5), 0u);
  for (graph::NodeId v = 0; v < 6; ++v) {
    EXPECT_EQ(filtered.passing_vehicles(v), problem_.passing_vehicles(v));
  }
  EXPECT_EQ(filtered.passing_vehicles(Fig4::V3), 15.0);
}

TEST_F(FilteredFig4, SizeMismatchThrows) {
  EXPECT_THROW(filter_flows(problem_, std::vector<bool>(3, true)),
               std::invalid_argument);
}

TEST_F(FilteredFig4, CustomersBoundsChecked) {
  const CoverageModel filtered =
      filter_flows(problem_, std::vector<bool>(4, true));
  EXPECT_THROW(filtered.customers(4, 0.0), std::out_of_range);
}

TEST_F(FilteredFig4, GreedyOnFilteredModelIgnoresMaskedFlows) {
  // Mask out everything except T(5,6): the greedy must place at V5 (the
  // only node covering it within D).
  std::vector<bool> mask(4, false);
  mask[3] = true;
  const CoverageModel filtered = filter_flows(problem_, mask);
  const PlacementResult result = greedy_coverage_placement(filtered, 2);
  EXPECT_EQ(result.nodes, Placement{Fig4::V5});
  EXPECT_DOUBLE_EQ(result.customers, 2.0);
}

}  // namespace
}  // namespace rap::core
