#include "src/graph/apsp.h"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/dijkstra.h"
#include "src/obs/telemetry.h"
#include "src/util/thread_pool.h"

namespace rap::graph {
namespace {

std::string dense_limit_message(std::size_t nodes, std::size_t limit) {
  // n^2 doubles, reported in MiB so the message is meaningful whether the
  // overshoot is 2x or 100x.
  const double mib =
      static_cast<double>(nodes) * static_cast<double>(nodes) * 8.0 /
      (1024.0 * 1024.0);
  return "dense distance matrix refused: " + std::to_string(nodes) +
         " nodes > limit " + std::to_string(limit) + " (n*n doubles = " +
         std::to_string(static_cast<long long>(mib)) +
         " MiB); no dense distance oracle at this size - price from "
         "per-source Dijkstra trees instead";
}

}  // namespace

DenseLimitError::DenseLimitError(std::size_t nodes, std::size_t limit)
    : std::runtime_error(dense_limit_message(nodes, limit)),
      nodes_(nodes),
      limit_(limit) {}

void DistanceMatrix::check_dense_limit(std::size_t n, std::size_t node_limit) {
  if (node_limit != 0 && n > node_limit) {
    throw DenseLimitError(n, node_limit);
  }
}

namespace {

// Source rows per chunk. Fixed — never derived from the thread count — so
// the chunk partition and the telemetry merge order below are identical for
// every ParallelConfig.
constexpr std::size_t kRowsPerChunk = 16;

}  // namespace

DistanceMatrix all_pairs_shortest_paths(const RoadNetwork& net) {
  const obs::Span span("apsp");
  const std::size_t n = net.num_nodes();
  obs::add_counter("apsp.sources", n);
  DistanceMatrix out(n);
  if (n == 0) return out;

  // Each chunk of source rows runs its Dijkstras into disjoint matrix rows.
  // Dijkstra flushes work counters to the ambient sink, so every chunk gets
  // a private Telemetry (workers never share one) and the results merge in
  // chunk order afterwards — counters end up bit-identical to the serial
  // sweep for any thread count.
  obs::Telemetry* const parent = obs::ambient();
  std::vector<obs::Telemetry> chunk_telemetry(
      parent != nullptr ? util::chunk_count(0, n, kRowsPerChunk) : 0);
  util::parallel_for(0, n, kRowsPerChunk, [&](const util::ChunkRange& chunk) {
    std::optional<obs::TelemetryScope> scope;
    if (parent != nullptr) scope.emplace(chunk_telemetry[chunk.index]);
    for (std::size_t source = chunk.first; source < chunk.last; ++source) {
      const auto src = static_cast<NodeId>(source);
      const ShortestPathTree tree = dijkstra(net, src);
      const std::span<double> row = out.mutable_row(src);
      std::copy(tree.distances().begin(), tree.distances().end(), row.begin());
    }
  });
  if (parent != nullptr) {
    for (const obs::Telemetry& t : chunk_telemetry) parent->merge(t);
  }
  return out;
}

DistanceMatrix floyd_warshall(const RoadNetwork& net) {
  const obs::Span span("floyd_warshall");
  const std::size_t n = net.num_nodes();
  DistanceMatrix out(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      out.set(i, j, i == j ? 0.0 : kUnreachable);
    }
  }
  for (const Edge& e : net.edges()) {
    out.set(e.from, e.to, std::min(out(e.from, e.to), e.length));
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      const double dik = out(i, k);
      if (dik == kUnreachable) continue;
      for (NodeId j = 0; j < n; ++j) {
        const double via = dik + out(k, j);
        if (via < out(i, j)) out.set(i, j, via);
      }
    }
  }
  return out;
}

}  // namespace rap::graph
