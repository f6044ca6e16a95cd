#include "src/core/composite_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

TEST(CompositeGreedy, RejectsZeroK) {
  testing::Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, 0, utility);
  EXPECT_THROW(composite_greedy_placement(problem, 0), std::invalid_argument);
  EXPECT_THROW(lazy_marginal_greedy_placement(problem, 0),
               std::invalid_argument);
}

TEST(CompositeGreedy, ImprovementStepBeatsCoverageOnlyGreedy) {
  // On Fig. 4 with the linear utility, the coverage-only greedy (factor (i)
  // alone) stops at {V3} worth 5: the only uncovered flow T(5,6) cannot be
  // attracted anywhere. The composite greedy's factor (ii) places V2 to
  // shorten T(2,5)'s detour and reaches 7.
  testing::Fig4 fig;
  const traffic::LinearUtility utility(testing::Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, testing::Fig4::shop,
                                 utility);
  const double composite = composite_greedy_placement(problem, 2).customers;
  const double coverage_only = greedy_coverage_placement(problem, 2).customers;
  EXPECT_NEAR(coverage_only, 5.0, 1e-12);
  EXPECT_NEAR(composite, 7.0, 1e-12);
}

TEST(CompositeGreedy, ValueMatchesEvaluator) {
  util::Rng rng(13);
  const auto net = testing::random_network(5, 5, 5, rng);
  const auto flows = testing::random_flows(net, 18, rng);
  const traffic::LinearUtility utility(7.0);
  const PlacementProblem problem(net, flows, 6, utility);
  for (std::size_t k = 1; k <= 5; ++k) {
    const PlacementResult result = composite_greedy_placement(problem, k);
    EXPECT_NEAR(result.customers, evaluate_placement(problem, result.nodes),
                1e-9);
  }
}

TEST(CompositeGreedy, MonotoneInK) {
  util::Rng rng(17);
  const auto net = testing::random_network(5, 5, 5, rng);
  const auto flows = testing::random_flows(net, 18, rng);
  const traffic::LinearUtility utility(7.0);
  const PlacementProblem problem(net, flows, 6, utility);
  double prev = 0.0;
  for (std::size_t k = 1; k <= 8; ++k) {
    const double value = composite_greedy_placement(problem, k).customers;
    EXPECT_GE(value, prev - 1e-12);
    prev = value;
  }
}

TEST(CompositeGreedy, PlacementsAreNested) {
  util::Rng rng(19);
  const auto net = testing::random_network(5, 5, 5, rng);
  const auto flows = testing::random_flows(net, 18, rng);
  const traffic::LinearUtility utility(7.0);
  const PlacementProblem problem(net, flows, 6, utility);
  const Placement big = composite_greedy_placement(problem, 6).nodes;
  for (std::size_t k = 1; k < big.size(); ++k) {
    const Placement small = composite_greedy_placement(problem, k).nodes;
    for (std::size_t i = 0; i < small.size(); ++i) {
      EXPECT_EQ(small[i], big[i]);
    }
  }
}

TEST(CompositeGreedy, EqualsCoverageGreedyUnderThreshold) {
  // Algorithm 2 reduces to Algorithm 1 with the threshold utility — on
  // random instances, not just Fig. 4.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(seed * 3 + 1);
    const auto net = testing::random_network(4, 4, 5, rng);
    const auto flows = testing::random_flows(net, 12, rng);
    const traffic::ThresholdUtility utility(6.0);
    const PlacementProblem problem(net, flows, 0, utility);
    const PlacementResult alg1 = greedy_coverage_placement(problem, 4);
    const PlacementResult alg2 = composite_greedy_placement(problem, 4);
    EXPECT_DOUBLE_EQ(alg1.customers, alg2.customers) << "seed " << seed;
    EXPECT_EQ(alg1.nodes, alg2.nodes) << "seed " << seed;
  }
}

TEST(CompositeGreedy, AtLeastAsGoodAsCoverageOnlyGreedy) {
  // The composite objective dominates factor (i) alone on every instance.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Rng rng(seed + 100);
    const auto net = testing::random_network(4, 5, 6, rng);
    const auto flows = testing::random_flows(net, 15, rng);
    const traffic::LinearUtility utility(6.0);
    const PlacementProblem problem(net, flows, 1, utility);
    const double composite = composite_greedy_placement(problem, 3).customers;
    const double coverage = greedy_coverage_placement(problem, 3).customers;
    EXPECT_GE(composite, coverage - 1e-9) << "seed " << seed;
  }
}

TEST(NaiveGreedy, ValueMatchesEvaluator) {
  util::Rng rng(23);
  const auto net = testing::random_network(5, 5, 5, rng);
  const auto flows = testing::random_flows(net, 18, rng);
  const traffic::LinearUtility utility(7.0);
  const PlacementProblem problem(net, flows, 6, utility);
  const PlacementResult result = lazy_marginal_greedy_placement(problem, 4);
  EXPECT_NEAR(result.customers, evaluate_placement(problem, result.nodes), 1e-9);
}

TEST(CompositeGreedy, StopsWhenNothingGains) {
  const auto net = testing::line_network(4);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 1, 5.0));
  const traffic::ThresholdUtility utility(100.0);
  const PlacementProblem problem(net, flows, 0, utility);
  const PlacementResult result = composite_greedy_placement(problem, 3);
  EXPECT_EQ(result.nodes.size(), 1u);  // one RAP covers everything
}

}  // namespace
}  // namespace rap::core
