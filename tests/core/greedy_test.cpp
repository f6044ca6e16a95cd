#include "src/core/greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/lazy_greedy.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using testing::Fig4;

TEST(GreedyCoverage, RejectsZeroK) {
  Fig4 fig;
  const traffic::ThresholdUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  EXPECT_THROW(greedy_coverage_placement(problem, 0), std::invalid_argument);
}

TEST(GreedyCoverage, KOnePicksBestSingleton) {
  Fig4 fig;
  const traffic::ThresholdUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const PlacementResult result = greedy_coverage_placement(problem, 1);
  EXPECT_EQ(result.nodes, Placement{Fig4::V3});
  EXPECT_DOUBLE_EQ(result.customers, 15.0);
}

TEST(GreedyCoverage, NeverPlacesMoreThanNodes) {
  Fig4 fig;
  const traffic::ThresholdUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const PlacementResult result = greedy_coverage_placement(problem, 100);
  EXPECT_LE(result.nodes.size(), fig.net.num_nodes());
}

TEST(GreedyCoverage, ValueMatchesEvaluator) {
  util::Rng rng(5);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const traffic::ThresholdUtility utility(8.0);
  const PlacementProblem problem(net, flows, 12, utility);
  const PlacementResult result = greedy_coverage_placement(problem, 4);
  EXPECT_NEAR(result.customers, evaluate_placement(problem, result.nodes), 1e-9);
}

TEST(GreedyCoverage, ValueMonotoneInK) {
  util::Rng rng(7);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const traffic::ThresholdUtility utility(8.0);
  const PlacementProblem problem(net, flows, 12, utility);
  double prev = 0.0;
  for (std::size_t k = 1; k <= 8; ++k) {
    const double value = greedy_coverage_placement(problem, k).customers;
    EXPECT_GE(value, prev - 1e-12);
    prev = value;
  }
}

TEST(GreedyCoverage, PlacementsAreNested) {
  // Greedy placements are prefixes of each other across k.
  util::Rng rng(9);
  const auto net = testing::random_network(5, 5, 6, rng);
  const auto flows = testing::random_flows(net, 20, rng);
  const traffic::ThresholdUtility utility(8.0);
  const PlacementProblem problem(net, flows, 12, utility);
  const Placement big = greedy_coverage_placement(problem, 6).nodes;
  for (std::size_t k = 1; k < big.size(); ++k) {
    const Placement small = greedy_coverage_placement(problem, k).nodes;
    ASSERT_EQ(small.size(), k);
    for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(small[i], big[i]);
  }
}

TEST(GreedyCoverage, NoDuplicateNodes) {
  util::Rng rng(11);
  const auto net = testing::random_network(4, 4, 5, rng);
  const auto flows = testing::random_flows(net, 15, rng);
  const traffic::ThresholdUtility utility(6.0);
  const PlacementProblem problem(net, flows, 0, utility);
  const Placement nodes = greedy_coverage_placement(problem, 8).nodes;
  Placement sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(GreedyCoverage, CoversDisjointFlowsOnLine) {
  // Two disjoint flows on a line: greedy must cover both with k = 2.
  const auto net = testing::line_network(8);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 2, 10.0));
  flows.push_back(traffic::make_shortest_path_flow(net, 5, 7, 4.0));
  const traffic::ThresholdUtility utility(100.0);
  const PlacementProblem problem(net, flows, 3, utility);
  const PlacementResult result = greedy_coverage_placement(problem, 2);
  EXPECT_DOUBLE_EQ(result.customers, 14.0);
}

TEST(GreedyCoverage, ZeroRangeUtilityCoversOnlyOnRouteFlows) {
  // Tiny D: only flows passing the shop itself (detour 0) can be covered.
  const auto net = testing::line_network(6);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 4, 5.0));  // via shop 2
  flows.push_back(traffic::make_shortest_path_flow(net, 3, 5, 7.0));  // away
  const traffic::ThresholdUtility utility(1e-9);
  const PlacementProblem problem(net, flows, 2, utility);
  const PlacementResult result = greedy_coverage_placement(problem, 2);
  EXPECT_DOUBLE_EQ(result.customers, 5.0);
}

// --- Section III-B: under the threshold utility the placement problem IS
// a weighted maximum coverage instance. Sets are intersections, elements
// are flows, and a flow's weight f(d) * |T| does not depend on the detour
// within D. The model needs no second coverage representation: its reach
// lists are the sets. The cases below read the set system off the model
// and check Algorithm 1 and the exhaustive optimum against it.

/// The set system of a threshold model: sets[v] = flows node v reaches
/// within D, weights[f] = flow f's customers. Records a test failure when a
/// flow is worth different amounts at different nodes within D, or
/// anything beyond D — i.e. when the model is not a coverage instance.
struct CoverageView {
  std::vector<double> weights;                        // per flow
  std::vector<std::vector<traffic::FlowIndex>> sets;  // per node
};

CoverageView coverage_view(const CoverageModel& model) {
  const double range = model.utility().range();
  CoverageView view{std::vector<double>(model.num_flows(), 0.0),
                    std::vector<std::vector<traffic::FlowIndex>>(
                        model.num_nodes())};
  std::vector<bool> seen(model.num_flows(), false);
  for (graph::NodeId v = 0; v < model.num_nodes(); ++v) {
    for (const traffic::NodeIncidence& inc : model.reach_at(v)) {
      const double value = model.customers(inc.flow, inc.detour);
      if (inc.detour > range) {
        EXPECT_EQ(value, 0.0) << "flow " << inc.flow << " at node " << v;
        continue;
      }
      if (seen[inc.flow]) {
        EXPECT_EQ(value, view.weights[inc.flow])  // bitwise
            << "flow " << inc.flow << " at node " << v;
      } else {
        seen[inc.flow] = true;
        view.weights[inc.flow] = value;
      }
      view.sets[v].push_back(inc.flow);
    }
  }
  return view;
}

/// Total weight of the flows the given sets cover (each flow once).
double coverage_weight(const CoverageView& view,
                       std::span<const graph::NodeId> nodes) {
  std::vector<bool> covered(view.weights.size(), false);
  double total = 0.0;
  for (const graph::NodeId v : nodes) {
    for (const traffic::FlowIndex f : view.sets[v]) {
      if (!covered[f]) {
        covered[f] = true;
        total += view.weights[f];
      }
    }
  }
  return total;
}

/// Textbook greedy maximum coverage on the set system: largest uncovered
/// weight first, ties to the lowest set id, stop when nothing gains.
Placement textbook_greedy(const CoverageView& view, std::size_t k) {
  Placement chosen;
  for (std::size_t step = 0; step < k; ++step) {
    graph::NodeId best = graph::kInvalidNode;
    double best_gain = 0.0;
    for (graph::NodeId v = 0; v < view.sets.size(); ++v) {
      chosen.push_back(v);
      const double gain = coverage_weight(view, chosen) -
                          coverage_weight(view, {chosen.data(), step});
      chosen.pop_back();
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    if (best == graph::kInvalidNode) break;
    chosen.push_back(best);
  }
  return chosen;
}

/// Best coverage weight over all subsets of at most k sets.
double brute_force_max_coverage(const CoverageView& view, std::size_t k) {
  const std::size_t n = view.sets.size();
  double best = 0.0;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    Placement nodes;
    for (graph::NodeId v = 0; v < n; ++v) {
      if ((mask >> v) & 1U) nodes.push_back(v);
    }
    if (nodes.size() <= k) best = std::max(best, coverage_weight(view, nodes));
  }
  return best;
}

/// A small random threshold instance; integer vehicle counts keep every
/// coverage sum exact, so weight comparisons can be exact too.
PlacementProblem random_threshold_problem(util::Rng& rng,
                                          const graph::RoadNetwork& net,
                                          std::size_t flow_count,
                                          const traffic::UtilityFunction& u) {
  auto flows = testing::random_flows(net, flow_count, rng);
  const auto shop = static_cast<graph::NodeId>(rng.next_below(net.num_nodes()));
  return PlacementProblem(net, std::move(flows), shop, u);
}

TEST(SectionIIIB, Fig4IsAWeightedMaxCoverageInstance) {
  Fig4 fig;
  const traffic::ThresholdUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const CoverageView view = coverage_view(problem);
  ASSERT_EQ(view.weights.size(), 4u);  // four flows
  ASSERT_EQ(view.sets.size(), 6u);     // six intersections
  // Weights = alpha * population = vehicle counts here.
  EXPECT_EQ(view.weights, (std::vector<double>{6.0, 3.0, 6.0, 2.0}));
  // V3 reaches flows 0-2 within D; V1 and V6 reach none (V6's detour is
  // 8 > D).
  EXPECT_EQ(view.sets[Fig4::V3], (std::vector<traffic::FlowIndex>{0, 1, 2}));
  EXPECT_TRUE(view.sets[Fig4::V1].empty());
  EXPECT_TRUE(view.sets[Fig4::V6].empty());
}

TEST(SectionIIIB, RandomThresholdInstancesAreMaxCoverage) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Rng rng(seed * 11 + 3);
    const auto net = testing::random_network(4, 4, 5, rng);
    const traffic::ThresholdUtility utility(6.0);
    const PlacementProblem problem =
        random_threshold_problem(rng, net, 15, utility);
    const CoverageView view = coverage_view(problem);
    for (const std::size_t k : {1u, 3u, 5u}) {
      const PlacementResult direct = greedy_coverage_placement(problem, k);
      EXPECT_EQ(direct.nodes, textbook_greedy(view, k))
          << "seed " << seed << " k=" << k;
      EXPECT_EQ(direct.customers, coverage_weight(view, direct.nodes));
    }
  }
}

TEST(SectionIIIB, DecreasingUtilityIsNotMaxCoverage) {
  // Under the linear utility flow T(2,5) is worth 6 * (1 - 2/6) at V2 but
  // 6 * (1 - 4/6) at V3: no single element weight exists, which is why
  // Algorithm 2 needs its improvement candidate.
  Fig4 fig;
  const traffic::LinearUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  std::vector<double> values;
  for (const graph::NodeId v : {Fig4::V2, Fig4::V3}) {
    for (const traffic::NodeIncidence& inc : problem.reach_at(v)) {
      if (inc.flow == 0) values.push_back(problem.customers(0, inc.detour));
    }
  }
  ASSERT_EQ(values.size(), 2u);
  EXPECT_GT(values[0], values[1]);
  EXPECT_GT(values[1], 0.0);
}

TEST(SectionIIIB, PerFlowAlphaSetsTheWeights) {
  // Different alphas across flows only change the element weights; the
  // reduction needs a single weight per flow, not across flows.
  const auto net = testing::line_network(5);
  std::vector<traffic::TrafficFlow> flows;
  flows.push_back(traffic::make_shortest_path_flow(net, 0, 2, 10.0, 1.0, 0.5));
  flows.push_back(traffic::make_shortest_path_flow(net, 2, 4, 10.0, 1.0, 0.9));
  const traffic::ThresholdUtility utility(100.0);
  const PlacementProblem problem(net, flows, 1, utility);
  const CoverageView view = coverage_view(problem);
  EXPECT_DOUBLE_EQ(view.weights[0], 5.0);
  EXPECT_DOUBLE_EQ(view.weights[1], 9.0);
}

TEST(GreedyMaxCoverage, HandExample) {
  // Fig. 4: V3 covers flows 0-2 (weight 15); the second pick covers T(5,6).
  Fig4 fig;
  const traffic::ThresholdUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const CoverageView view = coverage_view(problem);
  const PlacementResult result = greedy_coverage_placement(problem, 2);
  EXPECT_EQ(result.nodes, textbook_greedy(view, 2));
  ASSERT_EQ(result.nodes.size(), 2u);
  EXPECT_EQ(result.nodes.front(), Fig4::V3);
  EXPECT_DOUBLE_EQ(result.customers, 17.0);
}

TEST(GreedyMaxCoverage, StopsWhenNothingGains) {
  // Asked for every node, Algorithm 1 stops once each coverable flow is
  // covered: every pick gains, and the value is the total coverable weight.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    util::Rng rng(seed * 13 + 1);
    const auto net = testing::random_network(4, 4, 5, rng);
    const traffic::ThresholdUtility utility(6.0);
    const PlacementProblem problem =
        random_threshold_problem(rng, net, 12, utility);
    const CoverageView view = coverage_view(problem);
    Placement all(net.num_nodes());
    for (graph::NodeId v = 0; v < all.size(); ++v) all[v] = v;
    const PlacementResult result =
        greedy_coverage_placement(problem, net.num_nodes());
    EXPECT_EQ(result.customers, coverage_weight(view, all)) << "seed " << seed;
    double prev = 0.0;
    for (std::size_t i = 1; i <= result.nodes.size(); ++i) {
      const double value =
          coverage_weight(view, {result.nodes.data(), i});
      EXPECT_GT(value, prev) << "seed " << seed << " pick " << i;
      prev = value;
    }
  }
}

TEST(GreedyMaxCoverage, WeightMatchesCoverageWeight) {
  Fig4 fig;
  const traffic::ThresholdUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const CoverageView view = coverage_view(problem);
  for (std::size_t k = 1; k <= 4; ++k) {
    const PlacementResult result = greedy_coverage_placement(problem, k);
    EXPECT_EQ(result.customers, coverage_weight(view, result.nodes));
  }
}

TEST(ExhaustiveMaxCoverage, HandExample) {
  // The exhaustive placement optimum is the maximum coverage optimum of
  // the model's set system.
  Fig4 fig;
  const traffic::ThresholdUtility utility(Fig4::threshold);
  const PlacementProblem problem(fig.net, fig.flows, Fig4::shop, utility);
  const CoverageView view = coverage_view(problem);
  for (std::size_t k = 1; k <= 3; ++k) {
    EXPECT_EQ(exhaustive_optimal_placement(problem, k).customers,
              brute_force_max_coverage(view, k))
        << "k=" << k;
  }
}

// Under the threshold utility a covered flow can gain nothing more, so the
// marginal gain equals Algorithm 1's uncovered gain term for term: the CELF
// loop must select exactly what the eager coverage scan selects. Integer
// vehicle counts make ties common on purpose.
class LazyVsEager : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LazyVsEager, IdenticalSelections) {
  util::Rng rng(GetParam() * 31 + 2);
  const auto net = testing::random_network(5, 4, 6, rng);
  const traffic::ThresholdUtility utility(5.0);
  const PlacementProblem problem =
      random_threshold_problem(rng, net, 10 + rng.next_below(30), utility);
  for (const std::size_t k : {1u, 3u, 7u, 15u}) {
    const PlacementResult eager = greedy_coverage_placement(problem, k);
    const PlacementResult lazy = lazy_marginal_greedy_placement(problem, k);
    EXPECT_EQ(eager.nodes, lazy.nodes) << "k=" << k;
    EXPECT_EQ(eager.customers, lazy.customers);  // bitwise
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LazyVsEager,
                         ::testing::Range<std::uint64_t>(0, 15));

class GreedyRatio : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyRatio, MeetsOneMinusOneOverE) {
  util::Rng rng(GetParam() * 17 + 3);
  const auto net = testing::random_network(3, 3, 3, rng);
  const traffic::ThresholdUtility utility(4.0);
  const PlacementProblem problem =
      random_threshold_problem(rng, net, 6 + rng.next_below(8), utility);
  for (const std::size_t k : {1u, 2u, 3u}) {
    const double greedy = greedy_coverage_placement(problem, k).customers;
    const double opt = exhaustive_optimal_placement(problem, k).customers;
    EXPECT_GE(greedy, (1.0 - 1.0 / std::exp(1.0)) * opt - 1e-9) << "k=" << k;
    EXPECT_LE(greedy, opt + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, GreedyRatio,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace rap::core
