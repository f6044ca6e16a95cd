#include "src/manhattan/flexible_eval.h"

#include <algorithm>
#include <unordered_map>

#include "src/graph/dijkstra.h"
#include "src/obs/telemetry.h"

namespace rap::manhattan {
namespace {

constexpr double kTol = 1e-9;

}  // namespace

FlexibleProblem::FlexibleProblem(const graph::RoadNetwork& net,
                                 std::vector<traffic::TrafficFlow> flows,
                                 graph::NodeId shop,
                                 const traffic::UtilityFunction& utility)
    : CoverageModel(net, utility, shop), flows_(std::move(flows)) {
  const obs::Span span("incidence_index");
  net.check_node(shop);
  for (const traffic::TrafficFlow& flow : flows_) {
    traffic::validate_flow(net, flow);
  }
  const std::size_t n = net.num_nodes();
  const std::vector<double> to_shop =
      graph::shortest_distances(net, shop, graph::Direction::kReverse);
  const std::vector<double> from_shop =
      graph::shortest_distances(net, shop, graph::Direction::kForward);

  // Distance arrays cached by endpoint: many flows share origins/destinations.
  std::unordered_map<graph::NodeId, std::vector<double>> from_origin;
  std::unordered_map<graph::NodeId, std::vector<double>> to_destination;
  const auto cached = [&](auto& cache, graph::NodeId source,
                          graph::Direction direction)
      -> const std::vector<double>& {
    const auto it = cache.find(source);
    if (it != cache.end()) return it->second;
    return cache
        .emplace(source, graph::shortest_distances(net, source, direction))
        .first->second;
  };

  // Each flow reaches every node of its shortest-path DAG.
  std::vector<std::uint32_t> flow_start(flows_.size() + 1, 0);
  std::vector<traffic::FlowStop> stops;
  for (traffic::FlowIndex f = 0; f < flows_.size(); ++f) {
    flow_start[f] = static_cast<std::uint32_t>(stops.size());
    const traffic::TrafficFlow& flow = flows_[f];
    const std::vector<double>& fwd =
        cached(from_origin, flow.origin, graph::Direction::kForward);
    const std::vector<double>& rev =
        cached(to_destination, flow.destination, graph::Direction::kReverse);
    const double total = fwd[flow.destination];
    if (total == graph::kUnreachable) continue;  // isolated OD: unreachable
    const double shop_to_dest = from_shop[flow.destination];
    for (graph::NodeId v = 0; v < n; ++v) {
      const double a = fwd[v];
      const double b = rev[v];
      if (a == graph::kUnreachable || b == graph::kUnreachable) continue;
      if (a + b > total + kTol * (1.0 + total)) continue;  // not on the DAG
      double detour = graph::kUnreachable;
      if (to_shop[v] != graph::kUnreachable &&
          shop_to_dest != graph::kUnreachable) {
        detour = std::max(0.0, to_shop[v] + shop_to_dest - b);
      }
      stops.push_back({v, 0, detour});
    }
  }
  flow_start.back() = static_cast<std::uint32_t>(stops.size());
  assemble(std::span<const traffic::TrafficFlow>(flows_), flow_start, stops);
}

}  // namespace rap::manhattan
