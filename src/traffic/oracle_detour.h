// The production detour-engine factory behind rap_serve's scenario builder
// and the benches. There is one detour pricer: d' and d'' are both rooted
// at the one shop, so the shop's reverse and forward Dijkstra trees
// (DetourCalculator) hold every distance any flow needs (DESIGN.md §13).
//
// The file name and the DetourEngine fields `oracle` / `cache` predate that
// design; they are kept because the frozen benchmark harness (perfbench/)
// compiles against them. Both fields are always null.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "src/graph/oracle.h"
#include "src/graph/oracle_cache.h"
#include "src/traffic/detour.h"

namespace rap::traffic {

/// The engine label's crossover; a struct rather than a constant because
/// perfbench/ reads `DetourEnginePolicy{}.dijkstra_node_limit`.
struct DetourEnginePolicy {
  /// Node count above which the engine is labelled "alt" instead of
  /// "dijkstra". The label is reported in `load` replies, scenario summaries
  /// and store segments; it never changes how detours are priced.
  std::size_t dijkstra_node_limit = 4096;
};

/// A built detour engine.
struct DetourEngine {
  /// "dijkstra" up to DetourEnginePolicy{}.dijkstra_node_limit nodes, "alt"
  /// above.
  std::string engine;
  /// The shop's DetourCalculator.
  std::shared_ptr<const DetourSource> detours;
  /// Always null.
  std::shared_ptr<const graph::DistanceOracle> oracle;
  /// Always null.
  std::shared_ptr<graph::SparseDistanceCache> cache;
};

/// Builds the shop's DetourCalculator (two Dijkstras) and labels it by node
/// count. `flows` is not read — the trees price any flow on `net`. `net`
/// must outlive the returned engine.
[[nodiscard]] DetourEngine make_detour_engine(
    const graph::RoadNetwork& net, graph::NodeId shop,
    std::span<const TrafficFlow> flows);

}  // namespace rap::traffic
