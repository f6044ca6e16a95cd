#include "src/graph/path.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/graph/dijkstra.h"

namespace rap::graph {
namespace {

// Length of the shortest edge from -> to, or infinity if absent (including
// when `to` is not a node of the network).
double direct_edge_length(const RoadNetwork& net, NodeId from, NodeId to) {
  double best = std::numeric_limits<double>::infinity();
  for (const EdgeId id : net.out_edges(from)) {
    const Edge& e = net.edge(id);
    if (e.to == to && e.length < best) best = e.length;
  }
  return best;
}

[[noreturn]] void throw_not_a_walk(const char* caller) {
  throw std::invalid_argument(std::string(caller) +
                              ": not a walk in this network");
}

// Calls `hop(i, length)` for every hop i -> i+1 of the walk in path order.
// The edge lookup of each hop is also its walk check: a missing edge or a
// node outside the network throws std::invalid_argument naming `caller`.
// Only path.front() needs its own range check — every later node is the
// head of an edge that was found.
template <typename Hop>
void walk_hops(const RoadNetwork& net, std::span<const NodeId> path,
               const char* caller, Hop&& hop) {
  if (path.empty() || path.front() >= net.num_nodes()) {
    throw_not_a_walk(caller);
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const double length = direct_edge_length(net, path[i], path[i + 1]);
    if (!std::isfinite(length)) throw_not_a_walk(caller);
    hop(i, length);
  }
}

}  // namespace

bool is_walk(const RoadNetwork& net, std::span<const NodeId> path) {
  if (path.empty()) return false;
  for (const NodeId v : path) {
    if (v >= net.num_nodes()) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!std::isfinite(direct_edge_length(net, path[i], path[i + 1]))) {
      return false;
    }
  }
  return true;
}

double path_length(const RoadNetwork& net, std::span<const NodeId> path) {
  double total = 0.0;
  walk_hops(net, path, "path_length",
            [&](std::size_t, double length) { total += length; });
  return total;
}

void cumulative_lengths_into(const RoadNetwork& net,
                             std::span<const NodeId> path,
                             std::span<double> out) {
  if (out.size() != path.size()) {
    throw std::invalid_argument(
        "cumulative_lengths_into: output size differs from the path");
  }
  if (!out.empty()) out.front() = 0.0;
  walk_hops(net, path, "cumulative_lengths", [&](std::size_t i, double length) {
    out[i + 1] = out[i] + length;
  });
}

std::vector<double> cumulative_lengths(const RoadNetwork& net,
                                       std::span<const NodeId> path) {
  std::vector<double> out(path.size(), 0.0);
  cumulative_lengths_into(net, path, out);
  return out;
}

bool is_shortest_path(const RoadNetwork& net, std::span<const NodeId> path) {
  const double walked = path_length(net, path);  // validates the walk
  const double optimal = dijkstra_distance(net, path.front(), path.back());
  return walked <= optimal * (1.0 + 1e-9) + 1e-9;
}

}  // namespace rap::graph
