// Oracle-backed detour engine: ApspDetourCalculator's pricing formula with
// the n^2 matrix replaced by a pluggable DistanceOracle plus a sparse
// per-flow distance cache — a flow only ever pays for the O(path-length)
// distances it actually queries, so metro-scale cities never materialise
// an n x n matrix. Shop siting and the fuzz reference price through it;
// the production factory below does not (see make_detour_engine).
//
// Determinism: the oracle contract (src/graph/oracle.h) guarantees every
// distance is bitwise identical to the dense matrix entry, so detours — and
// therefore placements — are bitwise identical to ApspDetourCalculator's no
// matter which backend prices them (fuzzed by rap_fuzz --family=oracle).
//
// Thread safety: detours_along_path is safe to call concurrently (the cache
// is internally synchronised, oracle queries use thread-local scratch).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "src/graph/oracle.h"
#include "src/graph/oracle_cache.h"
#include "src/traffic/detour.h"

namespace rap::traffic {

class OracleDetourCalculator final : public DetourSource {
 public:
  /// `net` must outlive the calculator; `oracle` must match `net`. A null
  /// `cache` disables caching (every query hits the oracle).
  OracleDetourCalculator(const graph::RoadNetwork& net,
                         std::shared_ptr<const graph::DistanceOracle> oracle,
                         graph::NodeId shop,
                         DetourMode mode = DetourMode::kAlongPath,
                         std::shared_ptr<graph::SparseDistanceCache> cache =
                             nullptr);

  [[nodiscard]] graph::NodeId shop() const noexcept { return shop_; }
  [[nodiscard]] DetourMode mode() const noexcept { return mode_; }
  [[nodiscard]] const graph::DistanceOracle& oracle() const noexcept {
    return *oracle_;
  }
  [[nodiscard]] std::shared_ptr<graph::SparseDistanceCache> cache()
      const noexcept {
    return cache_;
  }

  [[nodiscard]] std::vector<double> detours_along_path(
      const TrafficFlow& flow) const override;

  /// Pre-computes every distance the given flows will query, in parallel
  /// (deterministic: the distinct key set is sorted, values are pure
  /// functions of keys). With a cache attached, the subsequent per-flow
  /// pricing pass is all hits; without one this is a no-op.
  void warm(std::span<const TrafficFlow> flows) const;

 private:
  [[nodiscard]] double cached_distance(graph::NodeId from,
                                       graph::NodeId to) const;

  const graph::RoadNetwork* net_;
  std::shared_ptr<const graph::DistanceOracle> oracle_;
  graph::NodeId shop_;
  DetourMode mode_;
  std::shared_ptr<graph::SparseDistanceCache> cache_;
};

/// Engine-selection policy shared by rap_cli, rap_serve and the serve
/// scenario builder: which detour engine prices a scenario's flows.
///
/// Every engine prices along-path detours the same way: d' and d'' are both
/// rooted at the one shop, so the shop's reverse and forward Dijkstra trees
/// (DetourCalculator) hold every distance a flow needs. The engine name
/// picks the distance oracle built alongside: none for "dijkstra" (what
/// "auto" picks for n <= dijkstra_node_limit), a dense/bidirectional/ALT
/// oracle otherwise. Placements are therefore bitwise identical for every
/// engine and across the auto crossover.
struct DetourEnginePolicy {
  /// "auto" | "dijkstra" | "dense" | "bidijkstra" | "alt".
  std::string engine = "auto";
  /// Auto crossover: node count above which auto builds the ALT oracle.
  std::size_t dijkstra_node_limit = 4096;
  /// Oracle construction knobs; `oracle.backend` is overridden by `engine`
  /// when a concrete oracle engine is named.
  graph::OraclePolicy oracle;
};

/// The resolved engine name for a concrete node count:
/// "dijkstra" | "dense" | "bidijkstra" | "alt". Throws
/// std::invalid_argument on an unknown engine string.
[[nodiscard]] std::string resolve_detour_engine(
    const DetourEnginePolicy& policy, std::size_t num_nodes);

/// A built detour engine plus the oracle built for it (null for the
/// "dijkstra" engine, which has none).
struct DetourEngine {
  std::string engine;  ///< resolved name
  /// The shop's DetourCalculator, whatever the engine name.
  std::shared_ptr<const DetourSource> detours;
  std::shared_ptr<const graph::DistanceOracle> oracle;
  /// Always null: along-path pricing queries no point-to-point distances.
  std::shared_ptr<graph::SparseDistanceCache> cache;
};

/// Builds the policy-selected engine for `shop`: the oracle first (so a
/// forced "dense" over its node limit throws DenseLimitError before any
/// search runs), then the shop's two Dijkstra trees. `flows` is not read —
/// the trees price any flow on `net`. `net` must outlive the returned
/// engine.
[[nodiscard]] DetourEngine make_detour_engine(
    const graph::RoadNetwork& net, graph::NodeId shop,
    std::span<const TrafficFlow> flows, const DetourEnginePolicy& policy = {});

}  // namespace rap::traffic
