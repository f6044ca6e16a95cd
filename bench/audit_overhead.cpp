// Audit-hook overhead bench: times PlacementState-heavy kernels (evaluation
// sweeps, Algorithm 1, the marginal greedy) on the Seattle-like
// workload with and without an installed ScopedAuditor, and writes
// BENCH_audit.json. Two regimes:
//   * RAP_AUDIT=OFF (the default build): the hook call site does not exist,
//     so "with auditor" must cost the same as "without" — the structural
//     zero-overhead claim, cross-checked by
//     tests/integration/audit_overhead_test.cpp;
//   * RAP_AUDIT=ON: the ratio reported here is the price of machine-checking
//     every add(), for deciding where audit builds are affordable.
// Writes BENCH_audit.json in the rap.bench.v1 schema (bench/common.h).
//
//   audit_overhead [--out=BENCH_audit.json] [--trials=5] [--k=8]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/check/audit.h"
#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/problem.h"
#include "src/traffic/utility.h"
#include "src/util/cli.h"

namespace {

using namespace rap;

template <typename Fn>
double time_best_ms(std::size_t trials, Fn&& fn) {
  double best = 1e300;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

struct Timing {
  std::string name;
  double plain_ms = 0.0;
  double audited_ms = 0.0;
  [[nodiscard]] double ratio() const {
    return plain_ms > 0.0 ? audited_ms / plain_ms : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliFlags flags(argc, argv);
    const std::string out = flags.get_string("out", "BENCH_audit.json");
    const auto trials = static_cast<std::size_t>(flags.get_int("trials", 5));
    const auto k = static_cast<std::size_t>(flags.get_int("k", 8));

    const bench::CityWorkload city = bench::build_seattle(/*seed=*/7);
    const traffic::LinearUtility utility(3'000.0);
    const graph::NodeId shop = city.workload.flows.front().origin;
    const core::PlacementProblem problem(*city.net, city.workload.flows, shop,
                                         utility);

    const core::Placement greedy_nodes =
        core::greedy_coverage_placement(problem, k).nodes;
    std::vector<Timing> timings;
    const auto bench_case = [&](const std::string& name, auto&& run) {
      Timing t{name, 0.0, 0.0};
      t.plain_ms = time_best_ms(trials, run);
      {
        const check::ScopedAuditor auditor;
        t.audited_ms = time_best_ms(trials, run);
      }
      timings.push_back(t);
      std::cout << name << ": plain " << t.plain_ms << " ms, audited "
                << t.audited_ms << " ms (x" << t.ratio() << ")\n";
    };

    bench_case("evaluate_sweep", [&] {
      // Many short add() sequences: the hook-dominated regime.
      double sink = 0.0;
      for (int rep = 0; rep < 50; ++rep) {
        sink += core::evaluate_placement(problem, greedy_nodes);
      }
      if (sink < 0.0) std::abort();  // keep the work observable
    });
    bench_case("greedy_coverage", [&] {
      (void)core::greedy_coverage_placement(problem, k);
    });
    // Named after the committed baseline's metric; times the marginal
    // greedy, which runs on the CELF loop.
    bench_case("naive_marginal_greedy", [&] {
      (void)core::lazy_marginal_greedy_placement(problem, k);
    });

    std::vector<bench::BenchMetric> metrics;
    for (const Timing& t : timings) {
      metrics.push_back({t.name + ".plain_ms", t.plain_ms, "ms", true});
      metrics.push_back({t.name + ".audited_ms", t.audited_ms, "ms", true});
      metrics.push_back({t.name + ".ratio", t.ratio(), "ratio", true});
    }
    metrics.push_back({"audits_run",
                       static_cast<double>(check::hook_audits_run()), "count",
                       false});
    bench::write_bench_json(
        out, "audit_overhead",
        {{"city", city.workload.name},
         {"audit_compiled_in", core::kAuditCompiledIn ? "true" : "false"},
         {"k", std::to_string(k)},
         {"trials", std::to_string(trials)}},
        metrics);
    std::cout << "wrote " << out
              << (core::kAuditCompiledIn
                      ? " (RAP_AUDIT build: ratio is the audit price)"
                      : " (hookless build: ratios should be ~1.0)")
              << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "audit_overhead: " << error.what() << "\n";
    return 1;
  }
}
