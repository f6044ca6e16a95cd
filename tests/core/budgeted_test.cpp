#include "src/core/budgeted.h"

#include <gtest/gtest.h>

#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/lazy_greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

std::vector<double> unit_costs(const CoverageModel& model) {
  return std::vector<double>(model.num_nodes(), 1.0);
}

TEST(Budgeted, Validation) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const std::vector<double> costs = unit_costs(problem);
  const std::vector<double> short_costs(3, 1.0);
  std::vector<double> bad = costs;
  bad[2] = 0.0;
  EXPECT_THROW(budgeted_placement(problem, short_costs, 2.0),
               std::invalid_argument);
  EXPECT_THROW(budgeted_placement(problem, bad, 2.0), std::invalid_argument);
  EXPECT_THROW(budgeted_placement(problem, costs, 0.0), std::invalid_argument);
  EXPECT_THROW(budgeted_placement(problem, costs, -1.0), std::invalid_argument);
}

TEST(Budgeted, PlacementCostSums) {
  const std::vector<double> costs{1.0, 2.0, 4.0};
  const Placement nodes{0, 2};
  EXPECT_DOUBLE_EQ(placement_cost(costs, nodes), 5.0);
  const Placement bad{7};
  EXPECT_THROW(placement_cost(costs, bad), std::out_of_range);
}

TEST(Budgeted, RespectsBudget) {
  util::Rng rng(5);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const traffic::LinearUtility utility(7.0);
  const PlacementProblem problem(net, flows, 8, utility);
  std::vector<double> costs(net.num_nodes());
  for (double& c : costs) c = rng.next_double(0.5, 3.0);
  for (const double budget : {1.0, 3.0, 8.0}) {
    const PlacementResult result = budgeted_placement(problem, costs, budget);
    EXPECT_LE(placement_cost(costs, result.nodes), budget + 1e-12);
    EXPECT_NEAR(result.customers, evaluate_placement(problem, result.nodes),
                1e-9);
  }
}

TEST(Budgeted, UnitCostsAtLeastAsGoodAsNaiveGreedyAtK) {
  // With unit costs and budget k the ratio greedy IS the naive marginal
  // greedy; the singleton max can only improve the result.
  util::Rng rng(9);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const traffic::LinearUtility utility(7.0);
  const PlacementProblem problem(net, flows, 8, utility);
  const std::vector<double> costs = unit_costs(problem);
  for (const std::size_t k : {1u, 3u, 5u}) {
    const double budgeted =
        budgeted_placement(problem, costs, static_cast<double>(k)).customers;
    const double naive =
        lazy_marginal_greedy_placement(problem, k).customers;
    EXPECT_GE(budgeted, naive - 1e-9) << "k=" << k;
  }
}

TEST(Budgeted, PrefersCheapEquivalentIntersections) {
  // Two intersections cover the same flow; only the cheap one fits the
  // budget.
  const auto net = testing::line_network(4);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 1, 3, 10.0));
  const traffic::ThresholdUtility utility(100.0);
  const PlacementProblem problem(net, flows, 0, utility);
  std::vector<double> costs{1.0, 5.0, 1.0, 5.0};
  const PlacementResult result = budgeted_placement(problem, costs, 1.0);
  EXPECT_EQ(result.nodes, Placement{2});  // node 2 covers the flow at cost 1
  EXPECT_DOUBLE_EQ(result.customers, 10.0);
}

TEST(Budgeted, SingletonFallbackBeatsRatioTrap) {
  // Classic budgeted-coverage trap: a cheap set with the best ratio eats
  // just enough budget that the single most valuable set no longer fits.
  const auto net = testing::line_network(6);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 1, 3.0));    // small
  flows.push_back(traffic::make_shortest_path_flow(net, 5, 4, 100.0));  // big
  const traffic::ThresholdUtility utility(1000.0);
  const PlacementProblem problem(net, flows, 2, utility);
  // Node 0: gain 3 at cost 0.5 (ratio 6). Nodes 4/5: gain 100 at cost 20
  // (ratio 5). Budget 20: the ratio greedy takes node 0 first, after which
  // the big intersection no longer fits — greedy alone nets only 3.
  const std::vector<double> costs{0.5, 20.0, 20.0, 20.0, 20.0, 20.0};
  const PlacementResult result = budgeted_placement(problem, costs, 20.0);
  // The best-affordable-singleton fallback rescues the solution.
  EXPECT_DOUBLE_EQ(result.customers, 100.0);
  EXPECT_EQ(result.nodes, Placement{4});  // ties to the lowest node id
}

TEST(Budgeted, HugeBudgetMatchesUnconstrainedGreedy) {
  Fig4 fig;
  const traffic::LinearUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const std::vector<double> costs = unit_costs(problem);
  const PlacementResult budgeted = budgeted_placement(problem, costs, 1e6);
  const PlacementResult greedy = lazy_marginal_greedy_placement(problem, 6);
  EXPECT_DOUBLE_EQ(budgeted.customers, greedy.customers);
}

TEST(Budgeted, CoverageObjectiveOption) {
  Fig4 fig;
  const traffic::ThresholdUtility utility(6.0);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const std::vector<double> costs = unit_costs(problem);
  BudgetedOptions options;
  options.use_marginal_gain = false;
  const PlacementResult result =
      budgeted_placement(problem, costs, 2.0, options);
  // Under threshold utility with unit costs this mirrors Algorithm 1.
  EXPECT_DOUBLE_EQ(result.customers, 17.0);
}

}  // namespace
}  // namespace rap::core
