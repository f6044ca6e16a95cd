// The RAP placement problem (Section III-A) as one concrete coverage model.
//
// CoverageModel is what every placement algorithm consumes: for each
// intersection, which flows a RAP there reaches and at what detour
// distance, and how many customers a flow is worth at a detour. It is one
// node-major CSR plus a per-flow (alpha, population) array, built by one
// assembly routine. The scenarios are builders that only decide which
// (node, flow, detour) triples exist:
//   * PlacementProblem (this file) — the general scenario: flows travel a
//     fixed path, so a RAP reaches a flow only at the path's intersections;
//   * manhattan::FlexibleProblem — the Section IV scenario on a real
//     network: flows choose among all of their shortest paths, so a RAP
//     reaches a flow at any intersection of the shortest-path DAG;
//   * manhattan::GridCoverageModel — the same scenario on the ideal grid,
//     where the DAG is the flow's bounding rectangle;
//   * filter_flows — a copy of any model restricted to a subset of flows
//     (Algorithm 3's straight-flow stage).
// One model type is exactly what lets Algorithms 1/2 and the baselines run
// unchanged under every scenario (Figs. 12 vs 13).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/road_network.h"
#include "src/traffic/detour.h"
#include "src/traffic/flow.h"
#include "src/traffic/incidence.h"
#include "src/traffic/utility.h"

namespace rap::core {

/// A placement is the set of intersections hosting RAPs.
using Placement = std::vector<graph::NodeId>;

/// A placement plus its objective value (expected attracted customers/day).
struct PlacementResult {
  Placement nodes;
  double customers = 0.0;
};

/// What the model keeps of a flow: at detour d it is worth
/// utility.probability(d, alpha) * population customers.
struct FlowWeight {
  double alpha = 1.0;
  double population = 0.0;
};

/// The coverage model consumed by all placement algorithms. The network and
/// utility must outlive it; everything else it owns.
class CoverageModel {
 public:
  [[nodiscard]] const graph::RoadNetwork& network() const noexcept {
    return *net_;
  }
  [[nodiscard]] const traffic::UtilityFunction& utility() const noexcept {
    return *utility_;
  }
  /// The shop intersection, or kInvalidNode when not a single-shop model.
  [[nodiscard]] graph::NodeId shop() const noexcept { return shop_; }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return network().num_nodes();
  }
  [[nodiscard]] std::size_t num_flows() const noexcept {
    return weights_.size();
  }

  /// Flows reachable from `node`, ascending by flow index, with the detour
  /// distance a RAP there would offer them.
  [[nodiscard]] std::span<const traffic::NodeIncidence> reach_at(
      graph::NodeId node) const;

  /// Expected customers from flow `flow` at best detour `detour`:
  /// f(detour) * population; 0 for infinite detour.
  [[nodiscard]] double customers(traffic::FlowIndex flow, double detour) const;

  /// Daily vehicles passing `node` (MaxVehicles baseline ranking).
  [[nodiscard]] double passing_vehicles(graph::NodeId node) const;
  /// Distinct flows passing `node` (MaxCardinality baseline ranking).
  [[nodiscard]] std::size_t passing_flow_count(graph::NodeId node) const;

 protected:
  /// A model with no flows yet; the builder calls assemble() once. Only
  /// stores the references, so a builder may pass its own members.
  CoverageModel(const graph::RoadNetwork& net,
                const traffic::UtilityFunction& utility, graph::NodeId shop)
      : net_(&net), utility_(&utility), shop_(shop) {}

  /// The one assembly routine. Flow f reaches the distinct nodes of
  /// stops[flow_start[f]], ..., stops[flow_start[f + 1] - 1], each with the
  /// detour a RAP there offers it; `flows[f]` supplies alpha, population()
  /// and daily_vehicles. Records the counters incidence.flows and
  /// incidence.entries.
  template <typename Flow>
  void assemble(std::span<const Flow> flows,
                std::span<const std::uint32_t> flow_start,
                std::span<const traffic::FlowStop> stops) {
    std::vector<double> daily_vehicles;
    weights_.reserve(flows.size());
    daily_vehicles.reserve(flows.size());
    for (const Flow& flow : flows) {
      weights_.push_back({flow.alpha, flow.population()});
      daily_vehicles.push_back(flow.daily_vehicles);
    }
    assemble_nodes(daily_vehicles, flow_start, stops);
  }

 private:
  friend CoverageModel filter_flows(const CoverageModel& base,
                                    const std::vector<bool>& active);

  // Count, prefix-sum, then scatter in flow order, so flows ascend within
  // each node and each node's vehicle sum adds its flows in index order.
  void assemble_nodes(std::span<const double> daily_vehicles,
                      std::span<const std::uint32_t> flow_start,
                      std::span<const traffic::FlowStop> stops);
  void check_node(graph::NodeId node) const;

  const graph::RoadNetwork* net_;
  const traffic::UtilityFunction* utility_;
  graph::NodeId shop_;
  std::vector<FlowWeight> weights_;
  // Node-major CSR: node v's reach is node_entries_[node_start_[v]..
  // node_start_[v + 1]).
  std::vector<std::uint32_t> node_start_;
  std::vector<traffic::NodeIncidence> node_entries_;
  std::vector<double> vehicles_at_node_;
};

/// `base` restricted to the flows with `active[f]` set — Algorithm 3's
/// straight-flow stage. Flow indices are preserved (num_flows() matches the
/// base): masked flows leave every reach list and are worth 0 customers, so
/// passing_flow_count follows the mask. passing_vehicles is the base's:
/// vehicle counts stay a property of the physical traffic. Throws
/// std::invalid_argument on a mask of the wrong size.
[[nodiscard]] CoverageModel filter_flows(const CoverageModel& base,
                                         const std::vector<bool>& active);

/// The general-scenario problem instance: fixed travel paths.
class PlacementProblem final : public CoverageModel {
 public:
  /// Single-shop problem. `net` and `utility` must outlive the problem;
  /// flows are copied and validated. Throws std::invalid_argument on a bad
  /// flow or shop id.
  PlacementProblem(const graph::RoadNetwork& net,
                   std::vector<traffic::TrafficFlow> flows,
                   graph::NodeId shop,
                   const traffic::UtilityFunction& utility,
                   traffic::DetourMode mode = traffic::DetourMode::kAlongPath);

  /// Generalised constructor with an externally supplied detour source
  /// (used by the multi-shop extension). `shop` is only used for reporting
  /// and the Random baseline; pass kInvalidNode when there is no single shop.
  PlacementProblem(const graph::RoadNetwork& net,
                   std::vector<traffic::TrafficFlow> flows,
                   graph::NodeId shop,
                   const traffic::UtilityFunction& utility,
                   std::unique_ptr<const traffic::DetourSource> detours);

  PlacementProblem(const PlacementProblem&) = delete;
  PlacementProblem& operator=(const PlacementProblem&) = delete;
  PlacementProblem(PlacementProblem&&) = default;
  PlacementProblem& operator=(PlacementProblem&&) = default;

  [[nodiscard]] const std::vector<traffic::TrafficFlow>& flows() const noexcept {
    return flows_;
  }
  [[nodiscard]] const traffic::DetourSource& detours() const noexcept {
    return *detours_;
  }
  /// The flow-major half of the model: each flow's stops in path order.
  [[nodiscard]] const traffic::IncidenceIndex& incidence() const noexcept {
    return *incidence_;
  }

 private:
  std::vector<traffic::TrafficFlow> flows_;
  std::unique_ptr<const traffic::DetourSource> detours_;
  std::unique_ptr<const traffic::IncidenceIndex> incidence_;
};

}  // namespace rap::core
