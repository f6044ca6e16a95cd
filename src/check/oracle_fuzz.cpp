#include "src/check/oracle_fuzz.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/check/detour_reference.h"
#include "src/check/scenario.h"
#include "src/core/composite_greedy.h"
#include "src/core/lazy_greedy.h"
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

  // Placement parity: the same algorithms over the production problem and
  // a reference-priced problem must pick identical nodes and objectives.
  // Lazy-vs-lazy and composite-vs-composite are valid for every utility
  // family (identical inputs -> identical run), unlike lazy-vs-eager.
  const core::PlacementProblem reference_problem(
      net, scenario->flows, scenario->shop, *scenario->utility,
      std::make_unique<ReferenceDetours>(net, scenario->shop));
  const std::unique_ptr<core::PlacementProblem> production =
      build_production_problem(*scenario);
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
