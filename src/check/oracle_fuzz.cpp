#include "src/check/oracle_fuzz.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "src/check/scenario.h"
#include "src/core/composite_greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/graph/apsp.h"
#include "src/graph/oracle.h"
#include "src/graph/oracle_cache.h"
#include "src/traffic/apsp_detour.h"
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

/// Every (from, to) pair of the sparse backend against the dense matrix —
/// exact equality, infinities included.
void check_all_pairs(const graph::DistanceMatrix& dense,
                     const graph::DistanceOracle& oracle,
                     OracleFuzzReport& report) {
  ++report.checks_run;
  for (graph::NodeId from = 0; from < dense.size(); ++from) {
    for (graph::NodeId to = 0; to < dense.size(); ++to) {
      const double want = dense(from, to);
      const double got = oracle.distance(from, to);
      if (want == got || (want != want && got != got)) continue;
      report.failures.push_back(
          {std::string("distance_dense_vs_") + std::string(oracle.name()),
           std::to_string(from) + "->" + std::to_string(to) + ": dense " +
               full_precision(want) + " != " + full_precision(got)});
      return;  // one mismatch per backend is a complete bug report
    }
  }
}

/// Per-flow detour vectors of `candidate` against the dense-matrix
/// reference engine — exact equality, element by element.
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

/// The oracle-backed problem for the scenario: ALT oracle + shared cache,
/// cache pre-warmed exactly like the serve/CLI paths do it.
std::unique_ptr<core::PlacementProblem> build_oracle_problem(
    const Scenario& scenario,
    const std::shared_ptr<const graph::DistanceOracle>& oracle,
    std::size_t cache_entries) {
  auto engine = std::make_unique<traffic::OracleDetourCalculator>(
      scenario.net, oracle, scenario.shop, traffic::DetourMode::kAlongPath,
      std::make_shared<graph::SparseDistanceCache>(cache_entries));
  engine->warm(scenario.flows);
  return std::make_unique<core::PlacementProblem>(
      scenario.net, scenario.flows, scenario.shop, *scenario.utility,
      std::move(engine));
}

/// The production factory under every engine name must price and place
/// bitwise like its "dijkstra" engine: the engine name may only change
/// which oracle is built, never an answer.
void check_engines(const Scenario& scenario, const OracleFuzzOptions& options,
                   OracleFuzzReport& report) {
  traffic::DetourEnginePolicy policy;
  policy.oracle.landmarks = options.landmarks;
  policy.oracle.landmark_seed = scenario.seed;
  const auto problem_for = [&](const std::string& engine) {
    policy.engine = engine;
    return std::make_unique<core::PlacementProblem>(
        scenario.net, scenario.flows, scenario.shop, *scenario.utility,
        std::make_unique<traffic::SharedDetours>(
            traffic::make_detour_engine(scenario.net, scenario.shop,
                                        scenario.flows, policy)
                .detours));
  };
  const std::unique_ptr<core::PlacementProblem> reference =
      problem_for("dijkstra");
  const core::PlacementResult want =
      core::composite_greedy_placement(*reference, scenario.k);
  for (const char* engine : {"dense", "bidijkstra", "alt"}) {
    const std::unique_ptr<core::PlacementProblem> candidate =
        problem_for(engine);
    check_detours(scenario, reference->detours(), candidate->detours(),
                  std::string("engine_detours_") + engine, report);
    check_placements(
        want, core::composite_greedy_placement(*candidate, scenario.k),
        std::string("engine_composite_") + engine, report);
  }
}

}  // namespace

OracleFuzzReport fuzz_oracle_one(std::uint64_t seed,
                                 const OracleFuzzOptions& options) {
  OracleFuzzReport report;
  report.seed = seed;
  const std::unique_ptr<Scenario> scenario = generate_scenario(seed);
  const graph::RoadNetwork& net = scenario->net;

  const graph::DistanceMatrix dense = graph::all_pairs_shortest_paths(net);
  const auto bidi = std::make_shared<graph::BidirectionalOracle>(net);
  const auto alt = std::make_shared<graph::AltOracle>(
      net, graph::AltParams{options.landmarks, seed});

  check_all_pairs(dense, *bidi, report);
  check_all_pairs(dense, *alt, report);

  // Detour parity in both modes, including the tiny cache whose generation
  // flushes force recomputation mid-pricing.
  for (const traffic::DetourMode mode :
       {traffic::DetourMode::kAlongPath, traffic::DetourMode::kShortestPath}) {
    const char* mode_name =
        mode == traffic::DetourMode::kAlongPath ? "along" : "shortest";
    const traffic::ApspDetourCalculator reference(net, dense, scenario->shop,
                                                  mode);
    const traffic::OracleDetourCalculator alt_engine(
        net, alt, scenario->shop, mode,
        std::make_shared<graph::SparseDistanceCache>());
    const traffic::OracleDetourCalculator bidi_engine(net, bidi,
                                                      scenario->shop, mode);
    const traffic::OracleDetourCalculator tiny_cache_engine(
        net, alt, scenario->shop, mode,
        std::make_shared<graph::SparseDistanceCache>(
            options.tiny_cache_entries));
    check_detours(*scenario, reference, alt_engine,
                  std::string("detours_alt_") + mode_name, report);
    check_detours(*scenario, reference, bidi_engine,
                  std::string("detours_bidijkstra_") + mode_name, report);
    check_detours(*scenario, reference, tiny_cache_engine,
                  std::string("detours_tiny_cache_") + mode_name, report);
  }

  // Placement parity: the same algorithms over a dense-matrix problem and
  // an oracle-backed problem must pick identical nodes and objectives.
  // Lazy-vs-lazy and composite-vs-composite are valid for every utility
  // family (identical inputs -> identical run), unlike lazy-vs-eager.
  const core::PlacementProblem dense_problem(
      net, scenario->flows, scenario->shop, *scenario->utility,
      std::make_unique<traffic::ApspDetourCalculator>(net, dense,
                                                      scenario->shop));
  const std::unique_ptr<core::PlacementProblem> oracle_problem =
      build_oracle_problem(*scenario, alt,
                           graph::SparseDistanceCache::kDefaultMaxEntries);
  const core::PlacementResult dense_lazy =
      core::lazy_marginal_greedy_placement(dense_problem, scenario->k);
  const core::PlacementResult oracle_lazy =
      core::lazy_marginal_greedy_placement(*oracle_problem, scenario->k);
  check_placements(dense_lazy, oracle_lazy, "placement_lazy_dense_vs_oracle",
                   report);
  check_placements(
      core::composite_greedy_placement(dense_problem, scenario->k),
      core::composite_greedy_placement(*oracle_problem, scenario->k),
      "placement_composite_dense_vs_oracle", report);

  check_engines(*scenario, options, report);

  // Parallel leg: rebuild + re-place with the worker pool engaged (warm()
  // chunks, APSP row sweep, greedy scans); everything must stay bitwise.
  {
    const ThreadConfigGuard guard;
    util::set_parallel_config({options.parallel_threads});
    const std::unique_ptr<core::PlacementProblem> parallel_problem =
        build_oracle_problem(*scenario, alt,
                             graph::SparseDistanceCache::kDefaultMaxEntries);
    check_placements(
        oracle_lazy,
        core::lazy_marginal_greedy_placement(*parallel_problem, scenario->k),
        "placement_lazy_serial_vs_parallel", report);
  }

  if (!report.ok()) report.reproducer_json = scenario_to_json(*scenario);
  return report;
}

}  // namespace rap::check
