// Approximation-ratio property sweeps: on exhaustively-solvable random
// instances, Algorithm 1 must stay within 1 - 1/e of the optimum under the
// threshold utility (Section III-B), and Algorithm 2 within 1 - 1/sqrt(e)
// under any non-increasing utility (Theorem 2). The naive marginal greedy
// carries no bound; we record only that it can fall below the composite's
// guarantee structure (Fig. 4 proves it can tie or lose).
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/core/composite_greedy.h"
#include "src/core/exhaustive.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

constexpr double kRatioAlg1 = 1.0 - 1.0 / std::numbers::e;        // ~0.632
const double kRatioAlg2 = 1.0 - 1.0 / std::sqrt(std::numbers::e);  // ~0.393

struct Instance {
  graph::RoadNetwork net;
  std::vector<traffic::TrafficFlow> flows;
  graph::NodeId shop;
};

Instance make_instance(std::uint64_t seed) {
  util::Rng rng(seed * 101 + 7);
  Instance inst;
  inst.net = testing::random_network(3 + rng.next_below(2),
                                     3 + rng.next_below(2),
                                     rng.next_below(5), rng);
  inst.flows = testing::random_flows(inst.net, 6 + rng.next_below(6), rng);
  inst.shop = static_cast<graph::NodeId>(rng.next_below(inst.net.num_nodes()));
  return inst;
}

class ApproximationRatios : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproximationRatios, Algorithm1MeetsOneMinusOneOverE) {
  const Instance inst = make_instance(GetParam());
  const traffic::ThresholdUtility utility(4.0);
  const PlacementProblem problem(inst.net, inst.flows, inst.shop, utility);
  for (const std::size_t k : {1u, 2u, 3u}) {
    const double opt =
        exhaustive_optimal_placement(problem, k, {5'000'000}).customers;
    const double greedy = greedy_coverage_placement(problem, k).customers;
    EXPECT_GE(greedy, kRatioAlg1 * opt - 1e-9)
        << "k=" << k << " opt=" << opt << " greedy=" << greedy;
  }
}

TEST_P(ApproximationRatios, Algorithm2MeetsOneMinusOneOverSqrtE) {
  const Instance inst = make_instance(GetParam());
  for (const traffic::UtilityKind kind :
       {traffic::UtilityKind::kLinear, traffic::UtilityKind::kSqrt}) {
    const auto utility = traffic::make_utility(kind, 5.0);
    const PlacementProblem problem(inst.net, inst.flows, inst.shop, *utility);
    for (const std::size_t k : {1u, 2u, 3u}) {
      const double opt =
          exhaustive_optimal_placement(problem, k, {5'000'000}).customers;
      const double greedy = composite_greedy_placement(problem, k).customers;
      EXPECT_GE(greedy, kRatioAlg2 * opt - 1e-9)
          << utility->name() << " k=" << k << " opt=" << opt;
    }
  }
}

TEST_P(ApproximationRatios, KEqualsOneGreedyIsOptimal) {
  const Instance inst = make_instance(GetParam() + 1000);
  const traffic::LinearUtility utility(5.0);
  const PlacementProblem problem(inst.net, inst.flows, inst.shop, utility);
  const double opt = exhaustive_optimal_placement(problem, 1).customers;
  EXPECT_NEAR(composite_greedy_placement(problem, 1).customers, opt, 1e-9);
}

TEST_P(ApproximationRatios, GreedyNeverExceedsOptimum) {
  const Instance inst = make_instance(GetParam() + 2000);
  const traffic::LinearUtility utility(5.0);
  const PlacementProblem problem(inst.net, inst.flows, inst.shop, utility);
  for (const std::size_t k : {1u, 2u, 3u}) {
    const double opt =
        exhaustive_optimal_placement(problem, k, {5'000'000}).customers;
    EXPECT_LE(composite_greedy_placement(problem, k).customers, opt + 1e-9);
    EXPECT_LE(greedy_coverage_placement(problem, k).customers, opt + 1e-9);
    EXPECT_LE(lazy_marginal_greedy_placement(problem, k).customers, opt + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ApproximationRatios,
                         ::testing::Range<std::uint64_t>(0, 15));

// In practice Algorithm 1 is far better than its worst-case bound on
// threshold instances; sanity-check it is near-optimal on small ones.
TEST(ApproximationAggregate, Algorithm1NearOptimalOnAverage) {
  double greedy_total = 0.0;
  double opt_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance inst = make_instance(seed + 3000);
    const traffic::ThresholdUtility utility(4.0);
    const PlacementProblem problem(inst.net, inst.flows, inst.shop, utility);
    greedy_total += greedy_coverage_placement(problem, 2).customers;
    opt_total += exhaustive_optimal_placement(problem, 2).customers;
  }
  EXPECT_GE(greedy_total, 0.95 * opt_total);
}

}  // namespace
}  // namespace rap::core
