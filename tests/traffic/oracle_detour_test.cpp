// The production detour-engine factory behind the serve scenario builder
// and the benches: it builds the shop's DetourCalculator, labels it by node
// count, and leaves the perfbench-only `oracle` / `cache` fields null.
#include "src/traffic/oracle_detour.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/testing/builders.h"

namespace rap::traffic {
namespace {

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

TEST(DetourEnginePolicy, AutoResolvesByNodeCount) {
  // The label is "dijkstra" up to 4,096 intersections and "alt" above; the
  // pricing behind either label is the shop's DetourCalculator.
  const std::size_t limit = DetourEnginePolicy{}.dijkstra_node_limit;
  EXPECT_EQ(limit, 4096U);
  const graph::RoadNetwork at_limit = testing::line_network(limit);
  EXPECT_EQ(make_detour_engine(at_limit, 0, {}).engine, "dijkstra");

  const graph::RoadNetwork above_limit = testing::line_network(limit + 1);
  const DetourEngine above = make_detour_engine(above_limit, 7, {});
  EXPECT_EQ(above.engine, "alt");
  EXPECT_EQ(above.oracle, nullptr);
  EXPECT_EQ(above.cache, nullptr);
  TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 9;
  flow.path = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  flow.daily_vehicles = 1.0;
  EXPECT_EQ(above.detours->detours_along_path(flow),
            DetourCalculator(above_limit, 7).detours_along_path(flow));
}

TEST(DetourEnginePolicy, FactoryBuildsDijkstraWithoutOracleState) {
  const Fixture f = make_fixture(2);
  const DetourEngine built = make_detour_engine(f.net, f.shop, f.flows);
  EXPECT_EQ(built.engine, "dijkstra");
  ASSERT_NE(built.detours, nullptr);
  EXPECT_EQ(built.oracle, nullptr);
  EXPECT_EQ(built.cache, nullptr);
}

}  // namespace
}  // namespace rap::traffic
