// Flow-major incidence index of the fixed-path scenario: the distinct
// intersections of each flow's path, in path order, with the detour a RAP
// there offers the flow (non-decreasing by Theorem 1 on shortest-path
// flows). core::PlacementProblem builds it and hands its stops to the
// coverage model as (node, flow, detour) triples; the node-major half
// (flows per node, passing vehicles and flow counts) lives in
// core::CoverageModel.
//
// The build is one walk per flow: the constructor checks the flow's fields
// (validate_flow_fields), prices its path into a reused buffer with
// DetourSource::detours_into — whose walk check completes the validation,
// so each flow is validated exactly once — and appends the flow's
// collapsed stops straight to the flow CSR array, reserved once for every
// path node. No per-flow table is allocated.
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
  /// First position of `node` on the flow's path (0 in the flexible-route
  /// models, which have no fixed path).
  std::uint32_t path_index = 0;
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

  [[nodiscard]] std::size_t num_flows() const noexcept {
    return flow_start_.size() - 1;
  }

  /// Distinct intersections of flow `flow` in path order with detours.
  [[nodiscard]] std::span<const FlowStop> stops_of(FlowIndex flow) const;

  /// The whole CSR: flow f's stops are stops()[k] for flow_start()[f] <= k
  /// < flow_start()[f + 1].
  [[nodiscard]] std::span<const std::uint32_t> flow_start() const noexcept {
    return flow_start_;
  }
  [[nodiscard]] std::span<const FlowStop> stops() const noexcept {
    return flow_entries_;
  }

 private:
  std::vector<std::uint32_t> flow_start_;
  std::vector<FlowStop> flow_entries_;
};

}  // namespace rap::traffic
