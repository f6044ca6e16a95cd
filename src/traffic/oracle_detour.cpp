#include "src/traffic/oracle_detour.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/graph/path.h"
#include "src/obs/telemetry.h"
#include "src/util/thread_pool.h"

namespace rap::traffic {
namespace {

// Distinct (from, to) pairs per warm chunk — fixed so the chunk partition
// (and the chunk-ordered telemetry merge) is thread-count independent.
constexpr std::size_t kWarmPairsPerChunk = 64;

std::uint64_t pack(graph::NodeId from, graph::NodeId to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

}  // namespace

OracleDetourCalculator::OracleDetourCalculator(
    const graph::RoadNetwork& net,
    std::shared_ptr<const graph::DistanceOracle> oracle, graph::NodeId shop,
    DetourMode mode, std::shared_ptr<graph::SparseDistanceCache> cache)
    : net_(&net),
      oracle_(std::move(oracle)),
      shop_(shop),
      mode_(mode),
      cache_(std::move(cache)) {
  if (oracle_ == nullptr) {
    throw std::invalid_argument("OracleDetourCalculator: null oracle");
  }
  net.check_node(shop);
}

double OracleDetourCalculator::cached_distance(graph::NodeId from,
                                               graph::NodeId to) const {
  if (cache_ != nullptr) {
    double value = 0.0;
    if (cache_->lookup(from, to, &value)) return value;
    value = oracle_->distance(from, to);
    cache_->insert(from, to, value);
    return value;
  }
  return oracle_->distance(from, to);
}

std::vector<double> OracleDetourCalculator::detours_along_path(
    const TrafficFlow& flow) const {
  validate_flow(*net_, flow);
  std::vector<double> out(flow.path.size(), graph::kUnreachable);
  const double d2 = cached_distance(shop_, flow.destination);  // d''
  if (d2 == graph::kUnreachable) return out;

  std::vector<double> direct(flow.path.size());
  if (mode_ == DetourMode::kAlongPath) {
    const std::vector<double> cum = graph::cumulative_lengths(*net_, flow.path);
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      direct[i] = cum.back() - cum[i];
    }
  } else {
    for (std::size_t i = 0; i < flow.path.size(); ++i) {
      direct[i] = cached_distance(flow.path[i], flow.destination);
    }
  }
  for (std::size_t i = 0; i < flow.path.size(); ++i) {
    const double d1 = cached_distance(flow.path[i], shop_);  // d'
    if (d1 == graph::kUnreachable || direct[i] == graph::kUnreachable) continue;
    out[i] = std::max(0.0, d1 + d2 - direct[i]);
  }
  return out;
}

void OracleDetourCalculator::warm(std::span<const TrafficFlow> flows) const {
  if (cache_ == nullptr) return;
  const obs::Span span("graph.oracle.warm");

  // The distinct pairs every detours_along_path call below will ask for.
  std::vector<std::uint64_t> pairs;
  pairs.reserve(flows.size() * 2);
  for (const TrafficFlow& flow : flows) {
    pairs.push_back(pack(shop_, flow.destination));
    for (const graph::NodeId v : flow.path) {
      pairs.push_back(pack(v, shop_));
      if (mode_ == DetourMode::kShortestPath) {
        pairs.push_back(pack(v, flow.destination));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  // Each distinct pair is priced exactly once (values are pure functions of
  // the pair), so cache hit/miss accounting — and of course the values —
  // are identical for any thread count. Workers get private telemetry,
  // merged in chunk order, like the parallel APSP sweep.
  obs::Telemetry* const parent = obs::ambient();
  std::vector<obs::Telemetry> chunk_telemetry(
      parent != nullptr
          ? util::chunk_count(0, pairs.size(), kWarmPairsPerChunk)
          : 0);
  util::parallel_for(
      0, pairs.size(), kWarmPairsPerChunk,
      [&](const util::ChunkRange& chunk) {
        std::optional<obs::TelemetryScope> scope;
        if (parent != nullptr) scope.emplace(chunk_telemetry[chunk.index]);
        for (std::size_t i = chunk.first; i < chunk.last; ++i) {
          const auto from = static_cast<graph::NodeId>(pairs[i] >> 32);
          const auto to = static_cast<graph::NodeId>(pairs[i] & 0xffffffffU);
          (void)cached_distance(from, to);
        }
      });
  if (parent != nullptr) {
    for (const obs::Telemetry& t : chunk_telemetry) parent->merge(t);
  }
  if (parent != nullptr) {
    obs::add_counter("graph.oracle.warm.pairs", pairs.size());
  }
}

std::string resolve_detour_engine(const DetourEnginePolicy& policy,
                                  std::size_t num_nodes) {
  if (policy.engine == "auto") {
    return num_nodes <= policy.dijkstra_node_limit ? "dijkstra" : "alt";
  }
  if (policy.engine == "dijkstra" || policy.engine == "dense" ||
      policy.engine == "bidijkstra" || policy.engine == "alt") {
    return policy.engine;
  }
  throw std::invalid_argument(
      "unknown detour engine '" + policy.engine +
      "' (auto|dijkstra|dense|bidijkstra|alt)");
}

DetourEngine make_detour_engine(const graph::RoadNetwork& net,
                                graph::NodeId shop,
                                std::span<const TrafficFlow> /*flows*/,
                                const DetourEnginePolicy& policy) {
  DetourEngine built;
  built.engine = resolve_detour_engine(policy, net.num_nodes());
  if (built.engine != "dijkstra") {
    graph::OraclePolicy oracle_policy = policy.oracle;
    oracle_policy.backend = built.engine;
    built.oracle = graph::make_oracle(net, oracle_policy);
  }
  built.detours = std::make_shared<const DetourCalculator>(net, shop);
  return built;
}

}  // namespace rap::traffic
