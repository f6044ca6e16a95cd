// Node/flow incidence index: which flows pass which intersections and at
// what detour distance. Built once per (network, flows, shop) triple, it is
// the data structure every placement algorithm and baseline consumes:
//   * at_node(v)  — the flows passing v with their detour distance at v
//                   (the marginal-gain scan of Algorithms 1 and 2),
//   * stops_of(f) — the intersections of flow f in path order with detours
//                   (non-decreasing by Theorem 1 on shortest-path flows),
//   * passing_vehicles / passing_flow_count — the MaxVehicles and
//     MaxCardinality baseline rankings.
//
// This is the coverage-model build, and it is one walk per flow: the
// constructor checks the flow's fields (validate_flow_fields), prices its
// path into a reused buffer with DetourSource::detours_into — whose walk
// check completes the validation, so each flow is validated exactly once —
// and appends the flow's collapsed stops straight to the flow CSR array,
// reserved once for every path node, while counting the node CSR offsets.
// A transpose then fills the node CSR array. No per-flow table is
// allocated. The build runs under the obs span "incidence_index" with the
// counters incidence.flows and incidence.entries (stops after collapsing).
#pragma once

#include <span>
#include <vector>

#include "src/traffic/detour.h"
#include "src/traffic/flow.h"

namespace rap::traffic {

struct NodeIncidence {
  FlowIndex flow = 0;
  double detour = graph::kUnreachable;  ///< detour distance of `flow` at this node

  friend bool operator==(const NodeIncidence&, const NodeIncidence&) = default;
};

struct FlowStop {
  graph::NodeId node = graph::kInvalidNode;
  std::uint32_t path_index = 0;  ///< first position of `node` on the path
  double detour = graph::kUnreachable;

  friend bool operator==(const FlowStop&, const FlowStop&) = default;
};

class IncidenceIndex {
 public:
  /// Validates every flow (fields here, the walk inside pricing); throws
  /// std::invalid_argument on a bad one.
  IncidenceIndex(const graph::RoadNetwork& net,
                 const std::vector<TrafficFlow>& flows,
                 const DetourSource& detours);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return node_start_.size() - 1;
  }
  [[nodiscard]] std::size_t num_flows() const noexcept {
    return flow_start_.size() - 1;
  }

  /// Flows passing `node`, each with its (minimum) detour distance there.
  [[nodiscard]] std::span<const NodeIncidence> at_node(graph::NodeId node) const;

  /// Distinct intersections of flow `flow` in path order with detours.
  [[nodiscard]] std::span<const FlowStop> stops_of(FlowIndex flow) const;

  /// Total daily vehicles passing `node` (MaxVehicles ranking).
  [[nodiscard]] double passing_vehicles(graph::NodeId node) const;

  /// Number of distinct flows passing `node` (MaxCardinality ranking).
  [[nodiscard]] std::size_t passing_flow_count(graph::NodeId node) const;

 private:
  void check_node(graph::NodeId node) const;
  void check_flow(FlowIndex flow) const;

  // CSR layouts.
  std::vector<std::uint32_t> node_start_;
  std::vector<NodeIncidence> node_entries_;
  std::vector<std::uint32_t> flow_start_;
  std::vector<FlowStop> flow_entries_;
  std::vector<double> vehicles_at_node_;
};

}  // namespace rap::traffic
