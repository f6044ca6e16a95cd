// The Bellman–Ford detour reference behind rap_fuzz --family=oracle (ctest
// label "oracle"): hand-checked distances, bitwise agreement with
// DetourCalculator on a city with non-integer street lengths in both detour
// modes, and sensitivity to a differently associated d'.
#include "src/check/detour_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/citygen/radial_city.h"
#include "src/graph/apsp.h"
#include "src/graph/path.h"
#include "tests/testing/builders.h"

namespace rap::check {
namespace {

using testing::Fig4;

struct RadialFixture {
  graph::RoadNetwork net;
  std::vector<traffic::TrafficFlow> flows;
};

/// Jittered ring-and-spoke streets: non-integer lengths, where differently
/// associated sums can disagree in the last ulp.
RadialFixture radial_fixture() {
  util::Rng rng(5);
  citygen::RadialSpec spec;
  spec.rings = 10;
  spec.ring_spacing = 600.0;
  RadialFixture f;
  f.net = citygen::build_radial_city(spec, rng);
  f.flows = testing::random_flows(f.net, 60, rng);
  return f;
}

TEST(DetourReference, FixpointDistancesOnFig4) {
  const Fig4 fig;
  const std::vector<double> from_shop =
      fixpoint_distances(fig.net, Fig4::V1, graph::Direction::kForward);
  EXPECT_EQ(from_shop, (std::vector<double>{0, 1, 2, 1, 3, 4}));
  EXPECT_EQ(fixpoint_distances(fig.net, Fig4::V6, graph::Direction::kReverse),
            (std::vector<double>{4, 3, 2, 3, 1, 0}));
}

TEST(DetourReference, OneWayStreetsAndUnreachableNodes) {
  graph::RoadNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({static_cast<double>(i), 0.0});
  net.add_edge(0, 1, 1.5);  // one way 0 -> 1; node 2 is isolated
  EXPECT_EQ(fixpoint_distances(net, 0, graph::Direction::kForward),
            (std::vector<double>{0.0, 1.5, graph::kUnreachable}));
  EXPECT_EQ(fixpoint_distances(net, 0, graph::Direction::kReverse),
            (std::vector<double>{0.0, graph::kUnreachable,
                                 graph::kUnreachable}));
  EXPECT_THROW((void)fixpoint_distances(net, 3, graph::Direction::kForward),
               std::out_of_range);
}

TEST(DetourReference, MatchesDetourCalculatorOnFig4) {
  const Fig4 fig;
  const ReferenceDetours reference(fig.net, Fig4::shop);
  const traffic::DetourCalculator production(fig.net, Fig4::shop);
  for (const traffic::TrafficFlow& flow : fig.flows) {
    EXPECT_EQ(reference.detours_along_path(flow),
              production.detours_along_path(flow));
  }
  // T(2,5) passes V2 (detour 1 + 3 - 2 = 2), V3 (2 + 3 - 1 = 4) and
  // V5 (3 + 3 - 0 = 6).
  EXPECT_EQ(reference.detours_along_path(fig.flows[0]),
            (std::vector<double>{2, 4, 6}));
}

TEST(DetourReference, MatchesDetourCalculatorBitwiseOnARadialCity) {
  const RadialFixture f = radial_fixture();
  for (const traffic::DetourMode mode :
       {traffic::DetourMode::kAlongPath, traffic::DetourMode::kShortestPath}) {
    const ReferenceDetours reference(f.net, 0, mode);
    const traffic::DetourCalculator production(f.net, 0, mode);
    for (std::size_t i = 0; i < f.flows.size(); ++i) {
      EXPECT_EQ(reference.detours_along_path(f.flows[i]),
                production.detours_along_path(f.flows[i]))
          << "flow " << i;
    }
  }
}

TEST(DetourReference, CatchesADifferentlyAssociatedDistanceToShop) {
  // d'(v) read from the dense APSP matrix is a forward search from v, not
  // the reverse tree from the shop: the same shortest paths summed in the
  // opposite order. On non-integer lengths some detours must differ in the
  // last ulp, which is what lets the fuzz family compare with ==.
  const RadialFixture f = radial_fixture();
  const graph::DistanceMatrix matrix = graph::all_pairs_shortest_paths(f.net);
  const graph::NodeId shop = 0;
  const ReferenceDetours reference(f.net, shop);
  std::size_t differing = 0;
  for (const traffic::TrafficFlow& flow : f.flows) {
    const std::vector<double> want = reference.detours_along_path(flow);
    const std::vector<double> walked =
        graph::cumulative_lengths(f.net, flow.path);
    const double d2 = matrix(shop, flow.destination);
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      const double d1 = matrix(flow.path[i], shop);
      const double got =
          std::max(0.0, d1 + d2 - (walked.back() - walked[i]));
      if (got != want[i]) ++differing;
    }
  }
  EXPECT_GT(differing, 0U);
}

TEST(DetourReference, RejectsAPathThatIsNotAWalk) {
  const Fig4 fig;
  traffic::TrafficFlow flow = fig.flows[0];
  flow.path = {Fig4::V2, Fig4::V5};  // no street V2 -> V5
  flow.destination = Fig4::V5;
  EXPECT_THROW((void)ReferenceDetours(fig.net, Fig4::shop)
                   .detours_along_path(flow),
               std::invalid_argument);
}

TEST(DetourReference, UnreachableShopPricesInfinity) {
  graph::RoadNetwork net;
  for (int i = 0; i < 3; ++i) net.add_node({static_cast<double>(i), 0.0});
  net.add_two_way_edge(0, 1, 1.0);  // node 2 (the shop) is isolated
  traffic::TrafficFlow flow;
  flow.origin = 0;
  flow.destination = 1;
  flow.path = {0, 1};
  flow.daily_vehicles = 1.0;
  const std::vector<double> got =
      ReferenceDetours(net, 2).detours_along_path(flow);
  EXPECT_EQ(got, (std::vector<double>{graph::kUnreachable,
                                      graph::kUnreachable}));
  EXPECT_EQ(got, traffic::DetourCalculator(net, 2).detours_along_path(flow));
}

}  // namespace
}  // namespace rap::check
