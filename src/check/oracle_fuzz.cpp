#include "src/check/oracle_fuzz.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/check/detour_reference.h"
#include "src/check/scenario.h"
#include "src/core/composite_greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/graph/path.h"
#include "src/traffic/incidence.h"
#include "src/traffic/oracle_detour.h"
#include "src/util/thread_pool.h"

namespace rap::check {
namespace {

class ThreadConfigGuard {
 public:
  ThreadConfigGuard() : saved_(util::parallel_config()) {}
  ~ThreadConfigGuard() { util::set_parallel_config(saved_); }
  ThreadConfigGuard(const ThreadConfigGuard&) = delete;
  ThreadConfigGuard& operator=(const ThreadConfigGuard&) = delete;

 private:
  util::ParallelConfig saved_;
};

std::string full_precision(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Per-flow detour vectors of `candidate` against the reference — exact
/// equality, element by element.
void check_detours(const Scenario& scenario,
                   const traffic::DetourSource& reference,
                   const traffic::DetourSource& candidate,
                   const std::string& check_name, OracleFuzzReport& report) {
  ++report.checks_run;
  for (std::size_t f = 0; f < scenario.flows.size(); ++f) {
    const std::vector<double> want =
        reference.detours_along_path(scenario.flows[f]);
    const std::vector<double> got =
        candidate.detours_along_path(scenario.flows[f]);
    if (want.size() != got.size()) {
      report.failures.push_back(
          {check_name, "flow " + std::to_string(f) + ": size " +
                           std::to_string(want.size()) + " != " +
                           std::to_string(got.size())});
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (want[i] == got[i]) continue;
      report.failures.push_back(
          {check_name, "flow " + std::to_string(f) + " node " +
                           std::to_string(i) + ": " + full_precision(want[i]) +
                           " != " + full_precision(got[i])});
      return;
    }
  }
}

/// The coverage index assembled independently of the production build:
/// per-flow detour vectors from the reference pricer, duplicate path nodes
/// collapsed by a linear search of the flow's stops, and the node view
/// appended flow by flow instead of transposed from CSR offsets.
struct ReferenceIndex {
  std::vector<std::vector<traffic::FlowStop>> stops;          // per flow
  std::vector<std::vector<traffic::NodeIncidence>> at_node;   // per node
  std::vector<double> vehicles;                               // per node
};

ReferenceIndex reference_index(const graph::RoadNetwork& net,
                               const std::vector<traffic::TrafficFlow>& flows,
                               const traffic::DetourSource& reference) {
  ReferenceIndex index;
  const std::size_t n = net.num_nodes();
  index.at_node.resize(n);
  index.vehicles.assign(n, 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const traffic::TrafficFlow& flow = flows[f];
    const std::vector<double> detours = reference.detours_along_path(flow);
    std::vector<traffic::FlowStop> stops;
    for (std::uint32_t i = 0; i < flow.path.size(); ++i) {
      const auto seen =
          std::find_if(stops.begin(), stops.end(), [&](const auto& stop) {
            return stop.node == flow.path[i];
          });
      if (seen == stops.end()) {
        stops.push_back({flow.path[i], i, detours[i]});
      } else {
        seen->detour = std::min(seen->detour, detours[i]);
      }
    }
    for (const traffic::FlowStop& stop : stops) {
      index.at_node[stop.node].push_back(
          {static_cast<traffic::FlowIndex>(f), stop.detour});
      index.vehicles[stop.node] += flow.daily_vehicles;
    }
    index.stops.push_back(std::move(stops));
  }
  return index;
}

/// The scenario's flows with a back-and-forth step appended where the
/// street allows it (..., u, v becomes ..., u, v, u, v), so paths revisit
/// nodes at different detours and the index must collapse them. Generated
/// flows are shortest paths, which never revisit a node.
std::vector<traffic::TrafficFlow> revisiting_flows(const Scenario& scenario) {
  std::vector<traffic::TrafficFlow> flows = scenario.flows;
  for (traffic::TrafficFlow& flow : flows) {
    const std::size_t m = flow.path.size();
    if (m < 2) continue;
    std::vector<graph::NodeId> path = flow.path;
    path.push_back(flow.path[m - 2]);
    path.push_back(flow.path[m - 1]);
    if (graph::is_walk(scenario.net, path)) flow.path = std::move(path);
  }
  return flows;
}

/// The production model against the reference index — exact equality of
/// stops_of, reach_at, passing_vehicles and passing_flow_count.
void check_incidence(const ReferenceIndex& want,
                     const core::PlacementProblem& got,
                     const std::string& check_name, OracleFuzzReport& report) {
  ++report.checks_run;
  if (got.num_flows() != want.stops.size() ||
      got.num_nodes() != want.at_node.size()) {
    report.failures.push_back({check_name, "index dimensions differ"});
    return;
  }
  for (traffic::FlowIndex f = 0; f < got.num_flows(); ++f) {
    if (!std::ranges::equal(got.incidence().stops_of(f), want.stops[f])) {
      report.failures.push_back(
          {check_name, "stops_of(" + std::to_string(f) + ") differs"});
      return;
    }
  }
  for (graph::NodeId v = 0; v < got.num_nodes(); ++v) {
    std::string what;
    if (!std::ranges::equal(got.reach_at(v), want.at_node[v])) {
      what = "reach_at";
    } else if (got.passing_vehicles(v) != want.vehicles[v]) {
      what = "passing_vehicles";
    } else if (got.passing_flow_count(v) != want.at_node[v].size()) {
      what = "passing_flow_count";
    } else {
      continue;
    }
    report.failures.push_back(
        {check_name, what + "(" + std::to_string(v) + ") differs"});
    return;
  }
}

void check_placements(const core::PlacementResult& want,
                      const core::PlacementResult& got,
                      const std::string& check_name,
                      OracleFuzzReport& report) {
  ++report.checks_run;
  if (want.nodes != got.nodes) {
    report.failures.push_back(
        {check_name,
         "placements differ (sizes " + std::to_string(want.nodes.size()) +
             " vs " + std::to_string(got.nodes.size()) + ")"});
    return;
  }
  if (want.customers != got.customers) {
    report.failures.push_back({check_name, "objective " +
                                               full_precision(want.customers) +
                                               " != " +
                                               full_precision(got.customers)});
  }
}

/// The scenario's problem priced by the production factory, the way the
/// serve layer and the benches build it.
std::unique_ptr<core::PlacementProblem> build_production_problem(
    const Scenario& scenario) {
  return std::make_unique<core::PlacementProblem>(
      scenario.net, scenario.flows, scenario.shop, *scenario.utility,
      std::make_unique<traffic::SharedDetours>(
          traffic::make_detour_engine(scenario.net, scenario.shop,
                                      scenario.flows)
              .detours));
}

}  // namespace

OracleFuzzReport fuzz_oracle_one(std::uint64_t seed,
                                 const OracleFuzzOptions& options) {
  OracleFuzzReport report;
  report.seed = seed;
  const std::unique_ptr<Scenario> scenario = generate_scenario(seed);
  const graph::RoadNetwork& net = scenario->net;

  for (const traffic::DetourMode mode :
       {traffic::DetourMode::kAlongPath, traffic::DetourMode::kShortestPath}) {
    const char* mode_name =
        mode == traffic::DetourMode::kAlongPath ? "along" : "shortest";
    check_detours(*scenario, ReferenceDetours(net, scenario->shop, mode),
                  traffic::DetourCalculator(net, scenario->shop, mode),
                  std::string("detours_") + mode_name, report);
  }

  // Coverage-model parity: the production model (as the serve layer builds
  // it, one priced in kShortestPath mode, and one over paths that revisit
  // nodes) against an index assembled from the reference's per-flow
  // vectors.
  const std::unique_ptr<core::PlacementProblem> production =
      build_production_problem(*scenario);
  const traffic::UtilityFunction& utility = *scenario->utility;
  const ReferenceDetours along(net, scenario->shop);
  check_incidence(reference_index(net, scenario->flows, along), *production,
                  "incidence_along", report);
  check_incidence(
      reference_index(net, scenario->flows,
                      ReferenceDetours(net, scenario->shop,
                                       traffic::DetourMode::kShortestPath)),
      core::PlacementProblem(net, scenario->flows, scenario->shop, utility,
                             traffic::DetourMode::kShortestPath),
      "incidence_shortest", report);
  const std::vector<traffic::TrafficFlow> revisiting =
      revisiting_flows(*scenario);
  check_incidence(
      reference_index(net, revisiting, along),
      core::PlacementProblem(net, revisiting, scenario->shop, utility),
      "incidence_revisits", report);

  // Placement parity: the same algorithms over the production problem and
  // a reference-priced problem must pick identical nodes and objectives.
  // Lazy-vs-lazy and composite-vs-composite are valid for every utility
  // family (identical inputs -> identical run), unlike lazy-vs-eager.
  const core::PlacementProblem reference_problem(
      net, scenario->flows, scenario->shop, *scenario->utility,
      std::make_unique<ReferenceDetours>(net, scenario->shop));
  const core::PlacementResult production_lazy =
      core::lazy_marginal_greedy_placement(*production, scenario->k);
  check_placements(
      core::lazy_marginal_greedy_placement(reference_problem, scenario->k),
      production_lazy, "placement_lazy", report);
  check_placements(
      core::composite_greedy_placement(reference_problem, scenario->k),
      core::composite_greedy_placement(*production, scenario->k),
      "placement_composite", report);

  // Parallel leg: rebuild + re-place with the worker pool engaged (model
  // build, greedy scans); everything must stay bitwise.
  {
    const ThreadConfigGuard guard;
    util::set_parallel_config({options.parallel_threads});
    const std::unique_ptr<core::PlacementProblem> parallel_problem =
        build_production_problem(*scenario);
    check_placements(
        production_lazy,
        core::lazy_marginal_greedy_placement(*parallel_problem, scenario->k),
        "placement_lazy_serial_vs_parallel", report);
  }

  if (!report.ok()) report.reproducer_json = scenario_to_json(*scenario);
  return report;
}

}  // namespace rap::check
