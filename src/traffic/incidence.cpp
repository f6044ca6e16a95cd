#include "src/traffic/incidence.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/telemetry.h"

namespace rap::traffic {

IncidenceIndex::IncidenceIndex(const graph::RoadNetwork& net,
                               const std::vector<TrafficFlow>& flows,
                               const DetourSource& detours) {
  const obs::Span span("incidence_index");
  const std::size_t n = net.num_nodes();
  vehicles_at_node_.assign(n, 0.0);
  node_start_.assign(n + 1, 0);
  flow_start_.assign(flows.size() + 1, 0);
  std::size_t path_nodes = 0;
  std::size_t longest = 0;
  for (const TrafficFlow& flow : flows) {
    path_nodes += flow.path.size();
    longest = std::max(longest, flow.path.size());
  }
  flow_entries_.reserve(path_nodes);
  std::vector<double> path_detours(longest);

  // One pass per flow: check its fields, price its path (the pricing pass
  // is the walk check), and append its stops straight to flow_entries_,
  // collapsing repeated path nodes to their minimum detour (the first
  // visit, by Theorem 1, on shortest paths; minimum kept for robustness on
  // trace paths). `last_slot[v]` is the flow_entries_ slot of v's latest
  // stop; v already has a stop in the current flow iff that slot lies at or
  // after the flow's first slot.
  std::vector<std::uint32_t> last_slot(n, ~std::uint32_t{0});
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    const TrafficFlow& flow = flows[f];
    validate_flow_fields(flow);
    const std::span<double> priced(path_detours.data(), flow.path.size());
    detours.detours_into(flow, priced);
    const std::uint32_t first = flow_start_[f];
    for (std::uint32_t i = 0; i < flow.path.size(); ++i) {
      const graph::NodeId v = flow.path[i];
      const std::uint32_t slot = last_slot[v];
      if (slot >= first && slot < flow_entries_.size()) {
        FlowStop& existing = flow_entries_[slot];
        existing.detour = std::min(existing.detour, priced[i]);
        continue;
      }
      last_slot[v] = static_cast<std::uint32_t>(flow_entries_.size());
      flow_entries_.push_back(FlowStop{v, i, priced[i]});
      vehicles_at_node_[v] += flow.daily_vehicles;
      ++node_start_[v + 1];
    }
    flow_start_[f + 1] = static_cast<std::uint32_t>(flow_entries_.size());
  }

  // Transpose into the node -> flows layout (flows ascending per node).
  for (std::size_t v = 1; v <= n; ++v) node_start_[v] += node_start_[v - 1];
  node_entries_.resize(flow_entries_.size());
  std::vector<std::uint32_t> cursor(node_start_.begin(), node_start_.end() - 1);
  for (FlowIndex f = 0; f < flows.size(); ++f) {
    for (std::uint32_t k = flow_start_[f]; k < flow_start_[f + 1]; ++k) {
      const FlowStop& stop = flow_entries_[k];
      node_entries_[cursor[stop.node]++] = NodeIncidence{f, stop.detour};
    }
  }
  obs::add_counter("incidence.flows", flows.size());
  obs::add_counter("incidence.entries", flow_entries_.size());
}

std::span<const NodeIncidence> IncidenceIndex::at_node(graph::NodeId node) const {
  check_node(node);
  return {node_entries_.data() + node_start_[node],
          node_entries_.data() + node_start_[node + 1]};
}

std::span<const FlowStop> IncidenceIndex::stops_of(FlowIndex flow) const {
  check_flow(flow);
  return {flow_entries_.data() + flow_start_[flow],
          flow_entries_.data() + flow_start_[flow + 1]};
}

double IncidenceIndex::passing_vehicles(graph::NodeId node) const {
  check_node(node);
  return vehicles_at_node_[node];
}

std::size_t IncidenceIndex::passing_flow_count(graph::NodeId node) const {
  check_node(node);
  return node_start_[node + 1] - node_start_[node];
}

void IncidenceIndex::check_node(graph::NodeId node) const {
  if (node >= num_nodes()) {
    throw std::out_of_range("IncidenceIndex: bad node id");
  }
}

void IncidenceIndex::check_flow(FlowIndex flow) const {
  if (flow >= num_flows()) {
    throw std::out_of_range("IncidenceIndex: bad flow index");
  }
}

}  // namespace rap::traffic
