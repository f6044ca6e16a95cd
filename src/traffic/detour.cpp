#include "src/traffic/detour.h"

#include <algorithm>
#include <stdexcept>

#include "src/graph/path.h"

namespace rap::traffic {
namespace {

/// d = max(0, d' + d'' - d'''); kUnreachable when the shop or the
/// destination cannot be reached from `v`.
double detour(double to_shop, double from_shop, double direct) {
  if (to_shop == graph::kUnreachable || direct == graph::kUnreachable) {
    return graph::kUnreachable;
  }
  return std::max(0.0, to_shop + from_shop - direct);
}

}  // namespace

std::vector<double> DetourSource::detours_along_path(
    const TrafficFlow& flow) const {
  validate_flow_fields(flow);
  std::vector<double> out(flow.path.size());
  price(flow, out);
  return out;
}

void DetourSource::detours_into(const TrafficFlow& flow,
                                std::span<double> out) const {
  if (out.size() != flow.path.size()) {
    throw std::invalid_argument(
        "DetourSource::detours_into: output size differs from the path");
  }
  price(flow, out);
}

DetourCalculator::DetourCalculator(const graph::RoadNetwork& net,
                                   graph::NodeId shop, DetourMode mode)
    : DetourCalculator(
          net, shop,
          graph::shortest_distances(net, shop, graph::Direction::kReverse),
          graph::shortest_distances(net, shop, graph::Direction::kForward),
          mode) {}

DetourCalculator::DetourCalculator(const graph::RoadNetwork& net,
                                   graph::NodeId shop,
                                   std::vector<double> to_shop,
                                   std::vector<double> from_shop,
                                   DetourMode mode)
    : net_(&net),
      shop_(shop),
      mode_(mode),
      to_shop_(std::move(to_shop)),
      from_shop_(std::move(from_shop)) {
  net.check_node(shop);
  if (to_shop_.size() != net.num_nodes() ||
      from_shop_.size() != net.num_nodes()) {
    throw std::invalid_argument(
        "DetourCalculator: distance arrays must cover every node");
  }
}

const std::vector<double>& DetourCalculator::distances_to_destination(
    graph::NodeId destination) const {
  const auto it = to_destination_.find(destination);
  if (it != to_destination_.end()) return it->second;
  return to_destination_
      .emplace(destination, graph::shortest_distances(
                                *net_, destination, graph::Direction::kReverse))
      .first->second;
}

void DetourCalculator::price(const TrafficFlow& flow,
                             std::span<double> out) const {
  const std::vector<graph::NodeId>& path = flow.path;
  // The walk check comes first: it range-checks every node read below, and
  // a non-walk must throw even when d'' is unreachable and nothing is
  // priced. In kAlongPath mode it is the same pass that leaves the
  // cumulative path length in out[i].
  if (mode_ == DetourMode::kAlongPath) {
    graph::cumulative_lengths_into(*net_, path, out);
  } else if (!graph::is_walk(*net_, path)) {
    throw std::invalid_argument(
        "DetourCalculator: path is not a walk on the network");
  }
  const double d2 = from_shop_[path.back()];  // d''
  if (d2 == graph::kUnreachable) {
    std::fill(out.begin(), out.end(), graph::kUnreachable);
    return;
  }
  if (mode_ == DetourMode::kAlongPath) {
    const double total = out.back();
    for (std::size_t i = 0; i < path.size(); ++i) {
      // d''' is the remaining distance along the driver's route.
      out[i] = detour(to_shop_[path[i]], d2, total - out[i]);
    }
  } else {
    const std::vector<double>& direct = distances_to_destination(path.back());
    for (std::size_t i = 0; i < path.size(); ++i) {
      out[i] = detour(to_shop_[path[i]], d2, direct[path[i]]);
    }
  }
}

double DetourCalculator::detour_at(const TrafficFlow& flow,
                                   std::size_t path_index) const {
  if (path_index >= flow.path.size()) {
    throw std::out_of_range("DetourCalculator::detour_at: bad path index");
  }
  return detours_along_path(flow)[path_index];
}

}  // namespace rap::traffic
