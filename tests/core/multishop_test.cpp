#include "src/core/multishop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

TEST(MultiShopDetour, RejectsEmptyShopList) {
  Fig4 fig;
  EXPECT_THROW(MultiShopDetour(fig.net, {}), std::invalid_argument);
}

TEST(MultiShopDetour, RejectsBadShopId) {
  Fig4 fig;
  EXPECT_THROW(MultiShopDetour(fig.net, {99}), std::out_of_range);
}

TEST(MultiShopDetour, RejectsNonWalksWhenNoShopReachesTheDestination) {
  // Streets 0 - 1 - 2; shops 3 and 4 are isolated, so d'' is kUnreachable
  // from both and only the walk check can reject the path.
  graph::RoadNetwork net;
  for (int i = 0; i < 5; ++i) net.add_node({static_cast<double>(i), 0.0});
  net.add_two_way_edge(0, 1, 1.0);
  net.add_two_way_edge(1, 2, 1.0);
  for (const traffic::DetourMode mode :
       {traffic::DetourMode::kAlongPath, traffic::DetourMode::kShortestPath}) {
    const MultiShopDetour multi(net, {3, 4}, mode);
    traffic::TrafficFlow flow;
    flow.daily_vehicles = 1.0;
    flow.origin = 0;
    flow.destination = 2;
    flow.path = {0, 2};  // no street 0 -> 2
    std::vector<double> out(2);
    EXPECT_THROW(multi.detours_into(flow, out), std::invalid_argument);
    EXPECT_THROW((void)multi.detours_along_path(flow), std::invalid_argument);
    flow.destination = 8;
    flow.path = {1, 8};  // node 8 does not exist
    EXPECT_THROW(multi.detours_into(flow, out), std::invalid_argument);
    EXPECT_THROW((void)multi.detours_along_path(flow), std::invalid_argument);
  }
}

TEST(MultiShopDetour, SingleShopMatchesCalculator) {
  Fig4 fig;
  const MultiShopDetour multi(fig.net, {Fig4::shop});
  const traffic::DetourCalculator single(fig.net, Fig4::shop);
  for (const auto& flow : fig.flows) {
    EXPECT_EQ(multi.detours_along_path(flow), single.detours_along_path(flow));
  }
}

TEST(MultiShopDetour, TakesMinimumOverShops) {
  Fig4 fig;
  const MultiShopDetour multi(fig.net, {Fig4::V1, Fig4::V6});
  const traffic::DetourCalculator at_v1(fig.net, Fig4::V1);
  const traffic::DetourCalculator at_v6(fig.net, Fig4::V6);
  for (const auto& flow : fig.flows) {
    const auto combined = multi.detours_along_path(flow);
    const auto a = at_v1.detours_along_path(flow);
    const auto b = at_v6.detours_along_path(flow);
    for (std::size_t i = 0; i < combined.size(); ++i) {
      EXPECT_DOUBLE_EQ(combined[i], std::min(a[i], b[i]));
    }
  }
}

TEST(MultiShop, MoreShopsNeverReduceCustomers) {
  util::Rng rng(41);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const traffic::LinearUtility utility(8.0);

  const auto one = make_multishop_problem(net, flows, {3}, utility);
  const auto two = make_multishop_problem(net, flows, {3, 20}, utility);
  for (std::size_t k = 1; k <= 4; ++k) {
    const double v1 = composite_greedy_placement(one, k).customers;
    const double v2 = composite_greedy_placement(two, k).customers;
    EXPECT_GE(v2, v1 - 1e-9) << "k=" << k;
  }
}

TEST(MultiShop, FixedPlacementImprovesWithExtraShop) {
  util::Rng rng(43);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const traffic::LinearUtility utility(8.0);
  const auto one = make_multishop_problem(net, flows, {0}, utility);
  const auto two = make_multishop_problem(net, flows, {0, 24}, utility);
  const Placement nodes{5, 12, 18};
  EXPECT_GE(evaluate_placement(two, nodes),
            evaluate_placement(one, nodes) - 1e-9);
}

TEST(MultiShop, ProblemReportsNoSingleShop) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const auto problem =
      make_multishop_problem(fig.net, fig.flows, {Fig4::V1, Fig4::V6}, utility);
  EXPECT_EQ(problem.shop(), graph::kInvalidNode);
  EXPECT_EQ(problem.num_flows(), 4u);
}

TEST(MultiShop, EquivalentToSingleWhenShopsCoincide) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem single(fig.net, fig.flows, Fig4::shop, utility);
  const auto multi = make_multishop_problem(fig.net, fig.flows,
                                            {Fig4::shop, Fig4::shop}, utility);
  const Placement nodes{Fig4::V2, Fig4::V4};
  EXPECT_DOUBLE_EQ(evaluate_placement(single, nodes),
                   evaluate_placement(multi, nodes));
}

TEST(MultiShop, ShopAtEveryFlowOriginAttractsEverything) {
  // With a shop at each flow's origin, every flow has a zero-detour option
  // at its first intersection: placing RAPs there attracts alpha * everyone.
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  std::vector<graph::NodeId> shops;
  Placement raps;
  for (const auto& flow : fig.flows) {
    shops.push_back(flow.origin);
    raps.push_back(flow.origin);
  }
  const auto problem =
      make_multishop_problem(fig.net, fig.flows, shops, utility);
  EXPECT_DOUBLE_EQ(evaluate_placement(problem, raps),
                   traffic::total_population(fig.flows));
}

}  // namespace
}  // namespace rap::core
