// Serve layer on metro-sized scenarios (ctest label "serve-stress", TSan'd
// in CI): a city above the 4,096-intersection crossover is labelled "alt"
// in its summary and `load` reply, and concurrent sessions on one shared
// scenario of that size stay coherent.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/graph/io.h"
#include "src/serve/scenario_cache.h"
#include "src/serve/session.h"
#include "src/trace/io.h"
#include "tests/testing/builders.h"

namespace rap::serve {
namespace {

/// A 65 x 65 grid with non-integer chords: 4,225 intersections, just above
/// the engine label crossover.
ScenarioSpec metro_spec() {
  util::Rng rng(3);
  const graph::RoadNetwork net = testing::random_network(65, 65, 40, rng);
  ScenarioSpec spec;
  spec.network_csv = graph::network_to_csv(net);
  spec.flows_csv = trace::flows_to_csv(testing::random_flows(net, 40, rng));
  spec.range = 30.0;
  spec.shop = 32 * 65 + 32;
  return spec;
}

TEST(ServeOracle, ConcurrentSessionsShareOneOracleScenario) {
  // Many sessions on one shared metro-sized scenario, placing concurrently:
  // every answer must stay identical to the reference.
  const ScenarioSpec spec = metro_spec();
  const auto scenario = build_scenario(spec, scenario_key(spec));
  ASSERT_EQ(scenario->detour_engine, "alt");

  Session reference(scenario);
  const WarmStartResult want = reference.place(5, {});

  constexpr int kThreads = 4;
  constexpr int kRoundsPerThread = 8;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&scenario, &want, &failures, t] {
      Session session(scenario);
      for (int round = 0; round < kRoundsPerThread; ++round) {
        const WarmStartResult got = session.place(5, {});
        if (got.placement.nodes != want.placement.nodes ||
            got.placement.customers != want.placement.customers) {
          failures[t] = "thread " + std::to_string(t) + " round " +
                        std::to_string(round) + " diverged";
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

TEST(ServeOracle, OracleScenarioSummaryAnnouncesTheEngine) {
  const ScenarioSpec metro = metro_spec();
  const auto labelled = build_scenario(metro, scenario_key(metro));
  EXPECT_NE(labelled->summary.find("detours alt"), std::string::npos);
  // Cities up to the crossover keep the historical summary untouched.
  ScenarioSpec spec;
  spec.city = "grid";
  spec.seed = 1;
  spec.journeys = 20;
  const auto classic = build_scenario(spec, scenario_key(spec));
  EXPECT_EQ(classic->summary.find("detours"), std::string::npos);
  EXPECT_EQ(classic->detour_engine, "dijkstra");
}

}  // namespace
}  // namespace rap::serve
