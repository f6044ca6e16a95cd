#include "src/eval/shop_siting.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/citygen/radial_city.h"
#include "src/core/composite_greedy.h"
#include "tests/testing/builders.h"

namespace rap::eval {
namespace {

using testing::Fig4;

TEST(ShopSiting, Validation) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 0;
  EXPECT_THROW(rank_shop_sites(fig.net, fig.flows, utility, options),
               std::invalid_argument);
  options.k = 2;
  options.candidates = {99};
  EXPECT_THROW(rank_shop_sites(fig.net, fig.flows, utility, options),
               std::out_of_range);
}

TEST(ShopSiting, RanksAllNodesByDefault) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 2;
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  ASSERT_EQ(scores.size(), fig.net.num_nodes());
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GE(scores[i - 1].customers, scores[i].customers);  // descending
  }
}

/// Every score must equal, bit for bit, what a hand-built problem for that
/// shop plus composite greedy reports.
void expect_scores_match_direct_greedy(
    const graph::RoadNetwork& net,
    const std::vector<traffic::TrafficFlow>& flows,
    const traffic::UtilityFunction& utility, std::size_t k) {
  ShopSitingOptions options;
  options.k = k;
  const auto scores = rank_shop_sites(net, flows, utility, options);
  ASSERT_EQ(scores.size(), net.num_nodes());
  for (const SiteScore& score : scores) {
    const core::PlacementProblem problem(net, flows, score.shop, utility);
    const core::PlacementResult direct =
        core::composite_greedy_placement(problem, k);
    EXPECT_EQ(score.customers, direct.customers) << "shop " << score.shop;
    EXPECT_EQ(score.placement, direct.nodes) << "shop " << score.shop;
  }
}

TEST(ShopSiting, ScoresMatchDirectGreedy) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  expect_scores_match_direct_greedy(fig.net, fig.flows, utility, 2);
}

TEST(ShopSiting, ScoresMatchDirectGreedyOnARadialCity) {
  // Jittered ring-and-spoke streets have non-integer lengths, where a
  // differently associated distance sum would move a score in the last ulp.
  util::Rng rng(11);
  citygen::RadialSpec spec;
  spec.rings = 5;
  spec.ring_spacing = 400.0;
  const graph::RoadNetwork net = citygen::build_radial_city(spec, rng);
  const std::vector<traffic::TrafficFlow> flows =
      testing::random_flows(net, 40, rng);
  const traffic::LinearUtility utility(1'500.0);
  expect_scores_match_direct_greedy(net, flows, utility, 3);
}

TEST(ShopSiting, BestSiteBeatsV1OnFig4) {
  // The Fig. 4 shop position V1 is off every flow; central V3 must rank
  // above it.
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 2;
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  double v1_score = -1.0;
  double v3_score = -1.0;
  for (const SiteScore& s : scores) {
    if (s.shop == Fig4::V1) v1_score = s.customers;
    if (s.shop == Fig4::V3) v3_score = s.customers;
  }
  EXPECT_GT(v3_score, v1_score);
  // And the global winner attracts at least as much as both.
  EXPECT_GE(scores.front().customers, v3_score);
}

TEST(ShopSiting, CandidateRestriction) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 1;
  options.candidates = {Fig4::V1, Fig4::V6};
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  ASSERT_EQ(scores.size(), 2u);
  for (const SiteScore& s : scores) {
    EXPECT_TRUE(s.shop == Fig4::V1 || s.shop == Fig4::V6);
  }
}

TEST(ShopSiting, TopTruncation) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  ShopSitingOptions options;
  options.k = 1;
  options.top = 3;
  const auto scores = rank_shop_sites(fig.net, fig.flows, utility, options);
  EXPECT_EQ(scores.size(), 3u);
}

TEST(ShopSiting, WorksOnRandomWorkload) {
  util::Rng rng(7);
  const auto net = testing::random_network(5, 5, 5, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const traffic::ThresholdUtility utility(5.0);
  ShopSitingOptions options;
  options.k = 3;
  options.top = 5;
  const auto scores = rank_shop_sites(net, flows, utility, options);
  ASSERT_EQ(scores.size(), 5u);
  EXPECT_GT(scores.front().customers, 0.0);
  for (const SiteScore& s : scores) {
    EXPECT_LE(s.placement.size(), 3u);
  }
}

}  // namespace
}  // namespace rap::eval
