#include "src/traffic/incidence.h"

#include <algorithm>
#include <stdexcept>

namespace rap::traffic {

IncidenceIndex::IncidenceIndex(const graph::RoadNetwork& net,
                               const std::vector<TrafficFlow>& flows,
                               const DetourSource& detours) {
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
  std::vector<std::uint32_t> last_slot(net.num_nodes(), ~std::uint32_t{0});
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
    }
    flow_start_[f + 1] = static_cast<std::uint32_t>(flow_entries_.size());
  }
}

std::span<const FlowStop> IncidenceIndex::stops_of(FlowIndex flow) const {
  if (flow >= num_flows()) {
    throw std::out_of_range("IncidenceIndex: bad flow index");
  }
  return {flow_entries_.data() + flow_start_[flow],
          flow_entries_.data() + flow_start_[flow + 1]};
}

}  // namespace rap::traffic
