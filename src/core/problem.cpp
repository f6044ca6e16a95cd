#include "src/core/problem.h"

#include <cmath>
#include <stdexcept>

#include "src/obs/telemetry.h"

namespace rap::core {

std::span<const traffic::NodeIncidence> CoverageModel::reach_at(
    graph::NodeId node) const {
  check_node(node);
  return {node_entries_.data() + node_start_[node],
          node_entries_.data() + node_start_[node + 1]};
}

double CoverageModel::customers(traffic::FlowIndex flow, double detour) const {
  if (flow >= weights_.size()) {
    throw std::out_of_range("CoverageModel::customers: bad flow index");
  }
  if (std::isinf(detour)) return 0.0;
  const FlowWeight& w = weights_[flow];
  return utility_->probability(detour, w.alpha) * w.population;
}

double CoverageModel::passing_vehicles(graph::NodeId node) const {
  check_node(node);
  return vehicles_at_node_[node];
}

std::size_t CoverageModel::passing_flow_count(graph::NodeId node) const {
  check_node(node);
  return node_start_[node + 1] - node_start_[node];
}

void CoverageModel::check_node(graph::NodeId node) const {
  if (node >= num_nodes()) {
    throw std::out_of_range("CoverageModel: bad node id");
  }
}

void CoverageModel::assemble_nodes(std::span<const double> daily_vehicles,
                                   std::span<const std::uint32_t> flow_start,
                                   std::span<const traffic::FlowStop> stops) {
  const std::size_t n = num_nodes();
  node_start_.assign(n + 1, 0);
  vehicles_at_node_.assign(n, 0.0);
  for (const traffic::FlowStop& stop : stops) ++node_start_[stop.node + 1];
  for (std::size_t v = 1; v <= n; ++v) node_start_[v] += node_start_[v - 1];
  node_entries_.resize(stops.size());
  std::vector<std::uint32_t> cursor(node_start_.begin(), node_start_.end() - 1);
  for (traffic::FlowIndex f = 0; f < daily_vehicles.size(); ++f) {
    for (std::uint32_t k = flow_start[f]; k < flow_start[f + 1]; ++k) {
      const traffic::FlowStop& stop = stops[k];
      node_entries_[cursor[stop.node]++] = {f, stop.detour};
      vehicles_at_node_[stop.node] += daily_vehicles[f];
    }
  }
  obs::add_counter("incidence.flows", daily_vehicles.size());
  obs::add_counter("incidence.entries", stops.size());
}

CoverageModel filter_flows(const CoverageModel& base,
                           const std::vector<bool>& active) {
  if (active.size() != base.num_flows()) {
    throw std::invalid_argument("filter_flows: active mask size != num_flows");
  }
  CoverageModel filtered(base.network(), base.utility(), base.shop());
  filtered.weights_ = base.weights_;
  for (traffic::FlowIndex f = 0; f < active.size(); ++f) {
    if (!active[f]) filtered.weights_[f].population = 0.0;
  }
  filtered.vehicles_at_node_ = base.vehicles_at_node_;
  const std::size_t n = base.num_nodes();
  filtered.node_start_.assign(n + 1, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const traffic::NodeIncidence& inc : base.reach_at(v)) {
      if (active[inc.flow]) filtered.node_entries_.push_back(inc);
    }
    filtered.node_start_[v + 1] =
        static_cast<std::uint32_t>(filtered.node_entries_.size());
  }
  return filtered;
}

PlacementProblem::PlacementProblem(const graph::RoadNetwork& net,
                                   std::vector<traffic::TrafficFlow> flows,
                                   graph::NodeId shop,
                                   const traffic::UtilityFunction& utility,
                                   traffic::DetourMode mode)
    : PlacementProblem(net, std::move(flows), shop, utility,
                       std::make_unique<traffic::DetourCalculator>(
                           net, (net.check_node(shop), shop), mode)) {}

PlacementProblem::PlacementProblem(
    const graph::RoadNetwork& net, std::vector<traffic::TrafficFlow> flows,
    graph::NodeId shop, const traffic::UtilityFunction& utility,
    std::unique_ptr<const traffic::DetourSource> detours)
    : CoverageModel(net, utility, shop),
      flows_(std::move(flows)),
      detours_(std::move(detours)) {
  if (!detours_) {
    throw std::invalid_argument("PlacementProblem: null detour source");
  }
  const obs::Span span("incidence_index");
  // The index validates and prices each flow once; the model takes its
  // stops as the (node, flow, detour) triples.
  incidence_ =
      std::make_unique<traffic::IncidenceIndex>(net, flows_, *detours_);
  assemble(std::span<const traffic::TrafficFlow>(flows_),
           incidence_->flow_start(), incidence_->stops());
}

}  // namespace rap::core
