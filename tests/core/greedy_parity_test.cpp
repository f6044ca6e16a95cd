// Regression suite for the unified budget contract (core/k_policy.h) and
// lazy/eager parity.
//
// Every public placement entry point validates its budget through
// checked_budget(): k == 0 throws, k > num_nodes clamps and is recorded
// once per call on "placement.k_clamped" / "placement.k_clamp_events".
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/check/differential.h"
#include "src/core/ad_selection.h"
#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/exhaustive.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/stochastic.h"
#include "src/obs/telemetry.h"
#include "src/traffic/utility.h"
#include "src/util/rng.h"
#include "tests/testing/builders.h"

namespace rap::core {
namespace {

using rap::testing::Fig4;

class GreedyParity : public ::testing::Test {
 protected:
  GreedyParity()
      : threshold_(Fig4::threshold),
        linear_(Fig4::threshold),
        threshold_problem_(fig_.net, fig_.flows, Fig4::shop, threshold_),
        linear_problem_(fig_.net, fig_.flows, Fig4::shop, linear_) {}

  Fig4 fig_;
  traffic::ThresholdUtility threshold_;
  traffic::LinearUtility linear_;
  PlacementProblem threshold_problem_;
  PlacementProblem linear_problem_;
};

void expect_bitwise_equal(const PlacementResult& a, const PlacementResult& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.customers, b.customers);  // bitwise, not NEAR
}

TEST_F(GreedyParity, DefaultOptionsStillAgree) {
  for (std::size_t k = 1; k <= 6; ++k) {
    expect_bitwise_equal(greedy_coverage_placement(threshold_problem_, k),
                         lazy_marginal_greedy_placement(threshold_problem_, k));
    expect_bitwise_equal(check::eager_marginal_greedy(linear_problem_, k),
                         lazy_marginal_greedy_placement(linear_problem_, k));
  }
}

TEST_F(GreedyParity, ZeroBudgetThrowsEverywhere) {
  EXPECT_THROW(greedy_coverage_placement(threshold_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(composite_greedy_placement(linear_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(lazy_marginal_greedy_placement(linear_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(exhaustive_optimal_placement(threshold_problem_, 0),
               std::invalid_argument);
  EXPECT_THROW(max_cardinality_placement(linear_problem_, 0),
               std::invalid_argument);
  const CoverageModel* one[] = {&linear_problem_};
  EXPECT_THROW(stochastic_greedy_placement(one, 0), std::invalid_argument);
  EXPECT_THROW(multi_ad_greedy_placement(
                   linear_problem_,
                   InterestMatrix::uniform(linear_problem_.num_flows(), 2), 0),
               std::invalid_argument);
}

TEST_F(GreedyParity, OverBudgetClampsAndSetsTheGauge) {
  const std::size_t n = threshold_problem_.num_nodes();
  obs::Telemetry telemetry;
  {
    const obs::TelemetryScope scope(telemetry);
    const PlacementResult result =
        greedy_coverage_placement(threshold_problem_, n + 5);
    EXPECT_LE(result.nodes.size(), n);
  }
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("placement.k_clamped").value(),
                   5.0);
}

TEST_F(GreedyParity, OverBudgetClampsForTheWholeFamily) {
  const std::size_t n = threshold_problem_.num_nodes();
  // No throw, never more than n RAPs, for every entry point.
  EXPECT_LE(greedy_coverage_placement(threshold_problem_, n + 1).nodes.size(), n);
  EXPECT_LE(composite_greedy_placement(linear_problem_, n + 1).nodes.size(), n);
  EXPECT_LE(lazy_marginal_greedy_placement(linear_problem_, n + 1).nodes.size(),
            n);
  EXPECT_LE(exhaustive_optimal_placement(threshold_problem_, n + 1).nodes.size(),
            n);
  // Clamped and unclamped budgets agree: k caps at n either way.
  expect_bitwise_equal(exhaustive_optimal_placement(threshold_problem_, n + 1),
                       exhaustive_optimal_placement(threshold_problem_, n));
  expect_bitwise_equal(lazy_marginal_greedy_placement(linear_problem_, n + 1),
                       lazy_marginal_greedy_placement(linear_problem_, n));
}

TEST_F(GreedyParity, OverBudgetRecordsOneClampEventPerCall) {
  const std::size_t n = linear_problem_.num_nodes();
  const CoverageModel* scenarios[] = {&linear_problem_, &linear_problem_};
  const InterestMatrix interest =
      InterestMatrix::uniform(linear_problem_.num_flows(), 2);
  util::Rng rng(5);
  const std::vector<std::pair<std::string, std::function<void()>>> calls = {
      {"max_cardinality",
       [&] { (void)max_cardinality_placement(linear_problem_, n + 3); }},
      {"max_vehicles",
       [&] { (void)max_vehicles_placement(linear_problem_, n + 3); }},
      {"max_customers",
       [&] { (void)max_customers_placement(linear_problem_, n + 3); }},
      {"random", [&] { (void)random_placement(linear_problem_, n + 3, rng); }},
      {"stochastic",
       [&] { (void)stochastic_greedy_placement(scenarios, n + 3); }},
      {"multi_ad",
       [&] {
         (void)multi_ad_greedy_placement(linear_problem_, interest, n + 3);
       }},
  };
  for (const auto& [name, call] : calls) {
    obs::Telemetry telemetry;
    {
      const obs::TelemetryScope scope(telemetry);
      call();
      call();
    }
    EXPECT_EQ(telemetry.metrics.counter("placement.k_clamp_events").value(), 2u)
        << name;
    EXPECT_DOUBLE_EQ(telemetry.metrics.gauge("placement.k_clamped").value(),
                     3.0)
        << name;
  }
}

}  // namespace
}  // namespace rap::core
