#include "src/core/lazy_greedy.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/check/differential.h"
#include "src/core/greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

TEST(LazyGreedy, RejectsZeroK) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  EXPECT_THROW(lazy_marginal_greedy_placement(problem, 0),
               std::invalid_argument);
}

TEST(LazyGreedy, MatchesNaiveOnFig4) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const PlacementResult eager = check::eager_marginal_greedy(problem, 2);
  const PlacementResult lazy = lazy_marginal_greedy_placement(problem, 2);
  EXPECT_EQ(eager.nodes, lazy.nodes);
  EXPECT_EQ(eager.customers, lazy.customers);  // bitwise
}

TEST(LazyGreedy, MatchesAlgorithm1OnFig4Threshold) {
  // Under the threshold utility the marginal gain is Algorithm 1's
  // uncovered gain, so the CELF loop reproduces Algorithm 1.
  Fig4 fig;
  const traffic::ThresholdUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const PlacementResult eager = greedy_coverage_placement(problem, 3);
  const PlacementResult lazy = lazy_marginal_greedy_placement(problem, 3);
  EXPECT_EQ(eager.nodes, lazy.nodes);
  EXPECT_EQ(eager.customers, lazy.customers);  // bitwise
}

class LazyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyEquivalence, MarginalIdenticalToEager) {
  util::Rng rng(GetParam() * 23 + 5);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const auto shop = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
  for (const auto kind :
       {traffic::UtilityKind::kThreshold, traffic::UtilityKind::kLinear,
        traffic::UtilityKind::kSqrt}) {
    const auto utility = traffic::make_utility(kind, 6.0);
    const PlacementProblem problem(net, flows, shop, *utility);
    for (const std::size_t k : {1u, 4u, 9u}) {
      const PlacementResult eager = check::eager_marginal_greedy(problem, k);
      const PlacementResult lazy = lazy_marginal_greedy_placement(problem, k);
      EXPECT_EQ(eager.nodes, lazy.nodes) << utility->name() << " k=" << k;
      EXPECT_EQ(eager.customers, lazy.customers);  // bitwise
    }
  }
}

TEST_P(LazyEquivalence, CoverageIdenticalToEager) {
  util::Rng rng(GetParam() * 29 + 7);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const traffic::ThresholdUtility utility(5.0);
  const PlacementProblem problem(
      net, flows, static_cast<graph::NodeId>(rng.next_below(net.num_nodes())),
      utility);
  for (const std::size_t k : {1u, 4u, 9u}) {
    const PlacementResult eager = greedy_coverage_placement(problem, k);
    const PlacementResult lazy = lazy_marginal_greedy_placement(problem, k);
    EXPECT_EQ(eager.nodes, lazy.nodes) << "k=" << k;
    EXPECT_EQ(eager.customers, lazy.customers);  // bitwise
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LazyEquivalence,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(LazyGreedy, EvaluatesFewerGainsThanEager) {
  util::Rng rng(71);
  const auto net = testing::random_network(8, 8, 10, rng);
  const auto flows = testing::random_flows(net, 60, rng);
  const traffic::LinearUtility utility(8.0);
  const PlacementProblem problem(net, flows, 10, utility);
  LazyGreedyStats stats;
  const std::size_t k = 10;
  (void)lazy_marginal_greedy_placement(problem, k, &stats);
  // Eager evaluates |V| gains per step; lazy must beat that clearly.
  EXPECT_LT(stats.gain_evaluations, k * net.num_nodes() / 2);
  // It always pays the initial full sweep.
  EXPECT_GE(stats.gain_evaluations, net.num_nodes());
}

TEST(LazyGreedy, StatsOptional) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  EXPECT_NO_THROW(lazy_marginal_greedy_placement(problem, 2, nullptr));
}

// --- The CELF kernel itself (celf_extend). ---

class CelfKernel : public ::testing::Test {
 protected:
  CelfKernel() : utility_(8.0), problem_(make_problem()) {}

  PlacementProblem make_problem() {
    util::Rng rng(83);
    net_ = testing::random_network(6, 6, 8, rng);
    return PlacementProblem(net_, testing::random_flows(net_, 40, rng), 7,
                            utility_);
  }

  graph::RoadNetwork net_;
  traffic::LinearUtility utility_;
  PlacementProblem problem_;
};

TEST_F(CelfKernel, ExtendsAPartialPlacementLikeTheEagerScan) {
  // Pre-placed RAPs (the two-stage algorithms' stage 1) are skipped, and
  // the extension equals eager argmax steps from the same state.
  PlacementState lazy(problem_);
  PlacementState eager(problem_);
  for (const graph::NodeId v : {3U, 17U}) {
    lazy.add(v);
    eager.add(v);
  }
  const CelfRun run = celf_extend(lazy, 4, {marginal_gains(lazy)});
  ASSERT_TRUE(run.completed);
  for (std::size_t step = 0; step < 4; ++step) {
    graph::NodeId best = graph::kInvalidNode;
    double best_gain = 0.0;
    for (graph::NodeId v = 0; v < problem_.num_nodes(); ++v) {
      if (eager.contains(v)) continue;
      if (eager.gain_if_added(v) > best_gain) {
        best_gain = eager.gain_if_added(v);
        best = v;
      }
    }
    if (best == graph::kInvalidNode) break;
    EXPECT_EQ(run.selected_gains.at(step), best_gain);
    eager.add(best);
  }
  EXPECT_EQ(lazy.placement(), eager.placement());
  EXPECT_EQ(lazy.value(), eager.value());
}

TEST_F(CelfKernel, UpperBoundSeedsSelectTheSamePlacement) {
  // Any keys at or above the true round-0 gains are safe seeds: each is
  // re-evaluated before it can be selected.
  PlacementState exact(problem_);
  const std::vector<double> gains = marginal_gains(exact);
  (void)celf_extend(exact, 6, {gains});
  std::vector<double> loose = gains;
  for (double& g : loose) g = 2.0 * g + 1.0;
  PlacementState seeded(problem_);
  std::size_t seeded_reevaluations = 0;
  const CelfRun run = celf_extend(seeded, 6, {loose, /*upper_bounds=*/true},
                                  [&](const CelfReevaluation& e) {
                                    if (e.seeded) {
                                      ++seeded_reevaluations;
                                      EXPECT_LE(e.gain, e.key);
                                    }
                                    return true;
                                  });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(seeded.placement(), exact.placement());
  EXPECT_EQ(seeded.value(), exact.value());
  EXPECT_GT(seeded_reevaluations, 0u);
}

TEST_F(CelfKernel, HookAbortStopsTheRun) {
  PlacementState state(problem_);
  std::size_t calls = 0;
  const CelfRun run = celf_extend(state, 5, {marginal_gains(state)},
                                  [&](const CelfReevaluation&) {
                                    return ++calls < 3;
                                  });
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(run.stats.gain_evaluations, 3u);
  EXPECT_EQ(state.placement().size(), run.selected_gains.size());
}

TEST_F(CelfKernel, RejectsMisSizedSeeds) {
  PlacementState state(problem_);
  const std::vector<double> short_seeds(problem_.num_nodes() - 1, 1.0);
  EXPECT_THROW((void)celf_extend(state, 2, {short_seeds}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rap::core
