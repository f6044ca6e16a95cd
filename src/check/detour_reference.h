// Independent detour reference for the oracle fuzz family
// (rap_fuzz --family=oracle, DESIGN.md §13).
//
// Prices d = d' + d'' - d''' (paper Section III-A) from first principles:
// d' and d'' are the Bellman–Ford least fixpoints of edge relaxation from
// the shop (reverse and forward), d''' is either a path-order cumulative
// sum along the driver's route or the reverse fixpoint from the
// destination. It shares no code with graph::dijkstra or
// graph::cumulative_lengths, but it deliberately uses the same
// floating-point association as production — `dist + length` per
// relaxation, left-to-right sums along the path — so the fixpoint is the
// one Dijkstra settles and DetourCalculator must match it with `==`, not
// within a tolerance. A pricer that reaches d' by a differently associated
// sum (say a forward search from every path node) disagrees in the last
// ulp on non-integer street lengths and fails the family.
#pragma once

#include <vector>

#include "src/graph/road_network.h"
#include "src/traffic/detour.h"

namespace rap::check {

/// Bellman–Ford least fixpoint from `source`: with kForward,
/// dist[v] = min over edges (u, v) of dist[u] + length; with kReverse,
/// dist[u] = min over edges (u, v) of dist[v] + length. kUnreachable where
/// no path exists.
[[nodiscard]] std::vector<double> fixpoint_distances(
    const graph::RoadNetwork& net, graph::NodeId source,
    graph::Direction direction);

/// The reference detour pricer. Stateless after construction, so
/// detours_along_path is safe to call concurrently.
class ReferenceDetours final : public traffic::DetourSource {
 public:
  /// `net` must outlive the reference.
  ReferenceDetours(const graph::RoadNetwork& net, graph::NodeId shop,
                   traffic::DetourMode mode = traffic::DetourMode::kAlongPath);

  /// Throws std::out_of_range on a node id outside `net`, and
  /// std::invalid_argument (kAlongPath) when the path is not a walk.
  [[nodiscard]] std::vector<double> detours_along_path(
      const traffic::TrafficFlow& flow) const override;

 private:
  const graph::RoadNetwork* net_;
  traffic::DetourMode mode_;
  std::vector<double> to_shop_;    // d'
  std::vector<double> from_shop_;  // d''
};

}  // namespace rap::check
