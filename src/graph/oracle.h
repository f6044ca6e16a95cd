// Point-to-point distance oracle interface.
//
// No backend implements it any more: every detour is priced from the
// shop's two Dijkstra trees (traffic::DetourCalculator, DESIGN.md §13), so
// nothing in librap queries point-to-point distances. The interface is kept
// only because the frozen benchmark harness (perfbench/) still reads
// `DetourEngine::oracle->memory_bytes()`; that field is always null.
#pragma once

#include <cstddef>
#include <string_view>

#include "src/graph/road_network.h"

namespace rap::graph {

/// Point-to-point shortest-path distances on a fixed RoadNetwork.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Shortest-path distance from -> to (kUnreachable when disconnected).
  [[nodiscard]] virtual double distance(NodeId from, NodeId to) const = 0;

  /// Backend name for logs/metrics.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Resident bytes of preprocessing state.
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;

 protected:
  DistanceOracle() = default;
  DistanceOracle(const DistanceOracle&) = default;
  DistanceOracle& operator=(const DistanceOracle&) = default;
};

}  // namespace rap::graph
