// Detour-distance engine (Section III-A, Fig. 3).
//
// A driver of flow T(i,j) who receives the advertisement at intersection v
// faces detour distance
//     d = d' + d'' - d'''
// where d'   = shortest distance from v to the shop,
//       d''  = shortest distance from the shop to the destination j,
//       d''' = distance from v to j "directly".
//
// For a flow travelling a shortest path, the remaining distance along the
// path equals the shortest-path distance, so the two readings of d'''
// coincide. Trace-extracted paths can deviate slightly from shortest, so
// both modes are provided:
//   kAlongPath     — d''' is the remaining distance along the driver's own
//                    route (their frame of reference); the default.
//   kShortestPath  — d''' is the network shortest-path distance v -> j
//                    (one cached reverse Dijkstra per distinct destination).
// Detours are clamped at 0 (a shop directly on the route costs nothing) and
// are +infinity when the shop cannot be reached from v or j from the shop.
//
// One pricing entry point: every DetourSource implements one virtual that
// prices a flow into a caller's span (DetourSource::detours_into), and that
// virtual is where the walk check happens — DetourCalculator's edge lookup
// on each hop is both the hop's walk check and its term of the cumulative
// path length, so the model build (traffic/incidence.h) validates and
// prices each path in one walk with no per-flow allocation. The
// vector-returning detours_along_path is a convenience on top that checks
// the flow's other fields first.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/graph/dijkstra.h"
#include "src/graph/road_network.h"
#include "src/traffic/flow.h"

namespace rap::traffic {

enum class DetourMode { kAlongPath, kShortestPath };

/// Anything that can price a flow's detour at every node of its path.
/// DetourCalculator is the single-shop implementation; the multi-shop
/// extension (core/multishop.h) takes the minimum over several shops.
class DetourSource {
 public:
  virtual ~DetourSource() = default;

  /// Detour distances at every node of the flow's path, in path order;
  /// kUnreachable where no detour exists. Validates the whole flow
  /// (validate_flow_fields, then the walk check inside detours_into) and
  /// throws std::invalid_argument on a bad one.
  [[nodiscard]] std::vector<double> detours_along_path(
      const TrafficFlow& flow) const;

  /// Prices the flow into `out`, one slot per path node in path order. The
  /// walk check is part of pricing: throws std::invalid_argument when the
  /// path is empty, names a node outside the network or is not a walk —
  /// before any early exit — and when out.size() != flow.path.size(). The
  /// flow's other fields are the caller's to check (validate_flow_fields).
  void detours_into(const TrafficFlow& flow, std::span<double> out) const;

 protected:
  DetourSource() = default;
  DetourSource(const DetourSource&) = default;
  DetourSource& operator=(const DetourSource&) = default;

 private:
  /// detours_into after its size check — the one pricing virtual.
  virtual void price(const TrafficFlow& flow, std::span<double> out) const = 0;
};

/// Adapts a shared detour source to the unique_ptr a PlacementProblem owns,
/// so one engine can back several problems (serve deltas, the CLI, benches).
class SharedDetours final : public DetourSource {
 public:
  explicit SharedDetours(std::shared_ptr<const DetourSource> inner)
      : inner_(std::move(inner)) {}

 private:
  void price(const TrafficFlow& flow, std::span<double> out) const override {
    inner_->detours_into(flow, out);
  }

  std::shared_ptr<const DetourSource> inner_;
};

class DetourCalculator final : public DetourSource {
 public:
  /// Runs the two shop Dijkstras eagerly (O(|E| log |V|) each).
  DetourCalculator(const graph::RoadNetwork& net, graph::NodeId shop,
                   DetourMode mode = DetourMode::kAlongPath);

  /// Rebuilds the calculator from the shop's d' and d'' arrays (one
  /// distance per node, kUnreachable where disconnected) without running a
  /// Dijkstra — the scenario store's rehydration path (serve/store.h).
  /// Prices bitwise like the calculator the arrays came from. Throws
  /// std::out_of_range on a bad shop id and std::invalid_argument unless
  /// both arrays cover every node of `net`.
  DetourCalculator(const graph::RoadNetwork& net, graph::NodeId shop,
                   std::vector<double> to_shop, std::vector<double> from_shop,
                   DetourMode mode = DetourMode::kAlongPath);

  [[nodiscard]] graph::NodeId shop() const noexcept { return shop_; }
  [[nodiscard]] DetourMode mode() const noexcept { return mode_; }

  /// d' — shortest distance from each node to the shop, by node id.
  [[nodiscard]] const std::vector<double>& to_shop() const noexcept {
    return to_shop_;
  }
  /// d'' — shortest distance from the shop to each node, by node id.
  [[nodiscard]] const std::vector<double>& from_shop() const noexcept {
    return from_shop_;
  }

  /// Detour distance at one path position (0-based index into flow.path).
  /// Prefer detours_into when evaluating the whole path.
  [[nodiscard]] double detour_at(const TrafficFlow& flow,
                                 std::size_t path_index) const;

 private:
  void price(const TrafficFlow& flow, std::span<double> out) const override;

  [[nodiscard]] const std::vector<double>& distances_to_destination(
      graph::NodeId destination) const;

  const graph::RoadNetwork* net_;
  graph::NodeId shop_;
  DetourMode mode_;
  std::vector<double> to_shop_;    // reverse Dijkstra from the shop: d'
  std::vector<double> from_shop_;  // forward Dijkstra from the shop: d''
  // kShortestPath mode: per-destination reverse distances, built on demand.
  mutable std::unordered_map<graph::NodeId, std::vector<double>>
      to_destination_;
};

}  // namespace rap::traffic
