// Oracle-backed detour engine: bitwise parity with ApspDetourCalculator in
// both detour modes, deterministic parallel warm(), cache accounting, and
// the shared DetourEnginePolicy factory behind rap_cli / rap_serve / the
// serve scenario builder, whose every engine prices like DetourCalculator.
#include "src/traffic/oracle_detour.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/graph/apsp.h"
#include "src/obs/telemetry.h"
#include "src/traffic/apsp_detour.h"
#include "src/util/thread_pool.h"
#include "tests/testing/builders.h"

namespace rap::traffic {
namespace {

class ConfigGuard {
 public:
  ConfigGuard() : saved_(util::parallel_config()) {}
  ~ConfigGuard() { util::set_parallel_config(saved_); }

 private:
  util::ParallelConfig saved_;
};

struct Fixture {
  graph::RoadNetwork net;
  std::vector<TrafficFlow> flows;
  graph::NodeId shop = 0;
};

Fixture make_fixture(std::uint64_t seed) {
  util::Rng rng(seed);
  Fixture f;
  f.net = testing::random_network(5, 4, 6, rng);
  f.flows = testing::random_flows(f.net, 12, rng);
  f.shop = static_cast<graph::NodeId>(rng.next_below(f.net.num_nodes()));
  return f;
}

TEST(OracleDetour, BitwiseMatchesApspBothModes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Fixture f = make_fixture(seed);
    const graph::DistanceMatrix matrix =
        graph::all_pairs_shortest_paths(f.net);
    const auto oracle = std::make_shared<graph::AltOracle>(
        f.net, graph::AltParams{4, seed});
    for (const DetourMode mode :
         {DetourMode::kAlongPath, DetourMode::kShortestPath}) {
      const ApspDetourCalculator reference(f.net, matrix, f.shop, mode);
      const OracleDetourCalculator engine(
          f.net, oracle, f.shop, mode,
          std::make_shared<graph::SparseDistanceCache>());
      for (const TrafficFlow& flow : f.flows) {
        const std::vector<double> want = reference.detours_along_path(flow);
        const std::vector<double> got = engine.detours_along_path(flow);
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i], got[i]) << "seed " << seed << " node " << i;
        }
      }
    }
  }
}

TEST(OracleDetour, WarmMakesSubsequentPricingAllHits) {
  const Fixture f = make_fixture(3);
  const auto cache = std::make_shared<graph::SparseDistanceCache>();
  const OracleDetourCalculator engine(
      f.net, std::make_shared<graph::BidirectionalOracle>(f.net), f.shop,
      DetourMode::kAlongPath, cache);
  engine.warm(f.flows);
  const graph::SparseDistanceCache::Stats after_warm = cache->stats();
  EXPECT_GT(after_warm.insertions, 0u);
  EXPECT_EQ(after_warm.hits, 0u);  // warm prices each distinct pair once
  for (const TrafficFlow& flow : f.flows) {
    (void)engine.detours_along_path(flow);
  }
  const graph::SparseDistanceCache::Stats after_pricing = cache->stats();
  EXPECT_EQ(after_pricing.misses, after_warm.misses);  // no new misses
  EXPECT_GT(after_pricing.hits, 0u);
}

TEST(OracleDetour, WarmIsThreadCountInvariant) {
  // Same values AND same hit/miss accounting for 1 vs 4 workers: each
  // distinct pair is priced exactly once regardless of the chunking.
  graph::SparseDistanceCache::Stats stats[2];
  std::vector<std::vector<double>> detours[2];
  for (int leg = 0; leg < 2; ++leg) {
    const ConfigGuard guard;
    util::set_parallel_config({leg == 0 ? std::size_t{1} : std::size_t{4}});
    const Fixture f = make_fixture(5);
    const auto cache = std::make_shared<graph::SparseDistanceCache>();
    const OracleDetourCalculator engine(
        f.net, std::make_shared<graph::AltOracle>(f.net), f.shop,
        DetourMode::kAlongPath, cache);
    engine.warm(f.flows);
    stats[leg] = cache->stats();
    for (const TrafficFlow& flow : f.flows) {
      detours[leg].push_back(engine.detours_along_path(flow));
    }
  }
  EXPECT_EQ(stats[0].insertions, stats[1].insertions);
  EXPECT_EQ(stats[0].misses, stats[1].misses);
  EXPECT_EQ(detours[0], detours[1]);
}

TEST(OracleDetour, WarmEmitsPairMetrics) {
  const Fixture f = make_fixture(7);
  obs::Telemetry telemetry;
  const auto cache = std::make_shared<graph::SparseDistanceCache>();
  const OracleDetourCalculator engine(
      f.net, std::make_shared<graph::AltOracle>(f.net), f.shop,
      DetourMode::kAlongPath, cache);
  {
    const obs::TelemetryScope scope(telemetry);
    engine.warm(f.flows);
  }
  EXPECT_EQ(telemetry.metrics.counter("graph.oracle.warm.pairs").value(),
            cache->stats().insertions);
}

TEST(OracleDetour, NullOracleIsRejected) {
  const Fixture f = make_fixture(1);
  EXPECT_THROW(OracleDetourCalculator(f.net, nullptr, f.shop),
               std::invalid_argument);
}

TEST(DetourEnginePolicy, AutoResolvesByNodeCount) {
  DetourEnginePolicy policy;
  policy.dijkstra_node_limit = 100;
  EXPECT_EQ(resolve_detour_engine(policy, 100), "dijkstra");
  EXPECT_EQ(resolve_detour_engine(policy, 101), "alt");
  policy.engine = "bidijkstra";
  EXPECT_EQ(resolve_detour_engine(policy, 5), "bidijkstra");
  policy.engine = "warp";
  EXPECT_THROW((void)resolve_detour_engine(policy, 5), std::invalid_argument);
}

TEST(DetourEnginePolicy, FactoryBuildsDijkstraWithoutOracleState) {
  const Fixture f = make_fixture(2);
  DetourEnginePolicy policy;  // auto; the toy city stays under the limit
  const DetourEngine built =
      make_detour_engine(f.net, f.shop, f.flows, policy);
  EXPECT_EQ(built.engine, "dijkstra");
  ASSERT_NE(built.detours, nullptr);
  EXPECT_EQ(built.oracle, nullptr);
  EXPECT_EQ(built.cache, nullptr);
}

/// Every engine name must price every flow exactly like the shop's own
/// DetourCalculator — EXPECT_EQ on the doubles, no tolerance — so neither a
/// forced engine nor the auto crossover can change a placement.
void expect_every_engine_matches_dijkstra(const graph::RoadNetwork& net,
                                          graph::NodeId shop,
                                          const std::vector<TrafficFlow>& flows) {
  const DetourCalculator reference(net, shop);
  DetourEnginePolicy policy;
  policy.oracle.landmarks = 3;
  for (const std::string engine : {"dijkstra", "dense", "bidijkstra", "alt"}) {
    policy.engine = engine;
    const DetourEngine built = make_detour_engine(net, shop, flows, policy);
    EXPECT_EQ(built.engine, engine);
    EXPECT_EQ(built.oracle == nullptr, engine == "dijkstra") << engine;
    EXPECT_EQ(built.cache, nullptr) << engine;
    ASSERT_NE(built.detours, nullptr) << engine;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      EXPECT_EQ(reference.detours_along_path(flows[f]),
                built.detours->detours_along_path(flows[f]))
          << engine << " flow " << f;
    }
  }
}

TEST(DetourEnginePolicy, EveryEngineMatchesDetourCalculatorOnAGrid) {
  const citygen::GridCity city({9, 7, 100.0});
  util::Rng rng(11);
  const std::vector<TrafficFlow> flows =
      testing::random_flows(city.network(), 30, rng);
  expect_every_engine_matches_dijkstra(city.network(), city.center_node(),
                                       flows);
}

TEST(DetourEnginePolicy, EveryEngineMatchesDetourCalculatorOnARadialCity) {
  // Jittered ring-and-spoke streets have non-integer lengths, where
  // differently associated sums (a reverse tree vs forward point-to-point
  // searches) can disagree in the last ulp.
  util::Rng rng(5);
  citygen::RadialSpec spec;
  spec.rings = 10;
  spec.ring_spacing = 600.0;
  const graph::RoadNetwork net = citygen::build_radial_city(spec, rng);
  const std::vector<TrafficFlow> flows = testing::random_flows(net, 60, rng);
  expect_every_engine_matches_dijkstra(net, 0, flows);
}

}  // namespace
}  // namespace rap::traffic
