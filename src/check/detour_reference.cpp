#include "src/check/detour_reference.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/graph/dijkstra.h"

namespace rap::check {
namespace {

/// Shortest parallel edge from -> to, found by scanning every edge;
/// infinity when the step is not a street.
double step_length(const graph::RoadNetwork& net, graph::NodeId from,
                   graph::NodeId to) {
  double best = std::numeric_limits<double>::infinity();
  for (const graph::Edge& e : net.edges()) {
    if (e.from == from && e.to == to) best = std::min(best, e.length);
  }
  return best;
}

}  // namespace

std::vector<double> fixpoint_distances(const graph::RoadNetwork& net,
                                       graph::NodeId source,
                                       graph::Direction direction) {
  net.check_node(source);
  std::vector<double> dist(net.num_nodes(), graph::kUnreachable);
  dist[source] = 0.0;
  const bool forward = direction == graph::Direction::kForward;
  // Sweep every edge until nothing improves. Lengths are positive, so each
  // sweep settles at least one more hop of every shortest path and the
  // loop ends after at most |V| sweeps, at the least fixpoint.
  for (bool changed = true; changed;) {
    changed = false;
    for (const graph::Edge& e : net.edges()) {
      const graph::NodeId near = forward ? e.from : e.to;
      const graph::NodeId far = forward ? e.to : e.from;
      const double candidate = dist[near] + e.length;
      if (candidate < dist[far]) {
        dist[far] = candidate;
        changed = true;
      }
    }
  }
  return dist;
}

ReferenceDetours::ReferenceDetours(const graph::RoadNetwork& net,
                                   graph::NodeId shop,
                                   traffic::DetourMode mode)
    : net_(&net),
      mode_(mode),
      to_shop_(fixpoint_distances(net, shop, graph::Direction::kReverse)),
      from_shop_(fixpoint_distances(net, shop, graph::Direction::kForward)) {}

std::vector<double> ReferenceDetours::detours_along_path(
    const traffic::TrafficFlow& flow) const {
  const std::vector<graph::NodeId>& path = flow.path;
  for (const graph::NodeId v : path) net_->check_node(v);
  net_->check_node(flow.destination);
  std::vector<double> out(path.size(), graph::kUnreachable);
  if (path.empty()) return out;

  // d''' per position.
  std::vector<double> direct(path.size());
  if (mode_ == traffic::DetourMode::kAlongPath) {
    std::vector<double> walked(path.size(), 0.0);
    for (std::size_t i = 1; i < path.size(); ++i) {
      const double step = step_length(*net_, path[i - 1], path[i]);
      if (step == std::numeric_limits<double>::infinity()) {
        throw std::invalid_argument("ReferenceDetours: path is not a walk");
      }
      walked[i] = walked[i - 1] + step;
    }
    for (std::size_t i = 0; i < path.size(); ++i) {
      direct[i] = walked.back() - walked[i];
    }
  } else {
    const std::vector<double> to_destination = fixpoint_distances(
        *net_, flow.destination, graph::Direction::kReverse);
    for (std::size_t i = 0; i < path.size(); ++i) {
      direct[i] = to_destination[path[i]];
    }
  }

  const double d2 = from_shop_[flow.destination];
  if (d2 == graph::kUnreachable) return out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const double d1 = to_shop_[path[i]];
    if (d1 == graph::kUnreachable || direct[i] == graph::kUnreachable) continue;
    out[i] = std::max(0.0, d1 + d2 - direct[i]);
  }
  return out;
}

}  // namespace rap::check
