// perfbench — the repo benchmark's driver. perfbench/run.py builds and runs
// it; see that file for the command line users type.
//
//   perfbench --workload=metro_grid|paper_sweep|serve_mix --seed=N
//             --seconds=S --trace=0|1 --work-dir=DIR --serve-binary=PATH
//             [--smoke]
//   perfbench --dump-inputs=PATH --workload=W --seed=N [--smoke]
//   perfbench --list-metrics
//   perfbench --selftest
//
// A run prints one JSON line: correct/attempted/failed, every metric of the
// run's kind (end-to-end untraced, per-layer traced) with its unit, and an
// "info" object with provenance and descriptive counts.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/inputs.h"
#include "rap_version.h"
#include "src/util/cli.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

using MetricTable = std::vector<std::pair<std::string, std::string>>;

/// End-to-end metrics: every untraced run of every workload reports these.
const MetricTable& end_to_end_metrics() {
  static const MetricTable table = {
      {"setup_s", "s"},
      {"job_p50_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"objective_customers", "customers"},
  };
  return table;
}

/// Per-layer metrics: every traced run reports these; a layer the workload
/// bypasses reads 0.
const MetricTable& per_layer_metrics() {
  static const MetricTable table = [] {
    MetricTable t = {
        {"job_p90_s", "s"},
        {"traffic.detour_engine_ms", "ms"},
        {"graph.oracle_mb", "MiB"},
        {"graph.cache_pairs", "count"},
        {"graph.cache_hit_ratio", "ratio"},
        {"core.model_build_ms", "ms"},
        {"core.incidences", "count"},
        {"core.alg1_ms", "ms"},
        {"core.alg2_ms", "ms"},
        {"core.lazy_ms", "ms"},
        {"core.baselines_ms", "ms"},
        {"core.evaluate_ms", "ms"},
        {"core.lazy_gain_evaluations", "count"},
        {"core.lazy_useful_ratio", "ratio"},
        {"exact.bound_ms", "ms"},
        {"exact.bound_iterations", "count"},
        {"exact.gap", "ratio"},
        {"trace.match_ms", "ms"},
        {"trace.records", "count"},
        {"trace.flows", "count"},
    };
    for (const char* verb :
         {"load_hit", "load_miss", "place", "place_batch", "evaluate", "delta"}) {
      t.emplace_back(std::string("serve.") + verb + ".rtt_p50_ms", "ms");
      t.emplace_back(std::string("serve.") + verb + ".rtt_p90_ms", "ms");
    }
    for (const char* verb : {"load", "place", "place_batch", "evaluate", "delta"}) {
      t.emplace_back(std::string("serve.") + verb + ".server_p50_ms", "ms");
    }
    const MetricTable serve = {
        {"serve.transport_ms", "ms"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.cache_evictions", "count"},
        {"serve.scenario_builds", "count"},
        {"serve.warm_start_ratio", "ratio"},
        {"serve.pool_utilization", "ratio"},
        {"protocol.parse_us", "us"},
        {"protocol.serialize_us", "us"},
        {"serve.store_rehydrate_ms", "ms"},
        {"client.lateness_p99_ms", "ms"},
        {"serve_p50_ms", "ms"},
        {"serve_p99_ms", "ms"},
        {"serve_max_req_s", "req/s"},
        {"op_fail_ratio", "ratio"},
        {"trace.job_p50_untraced_s", "s"},
        {"trace.job_p50_traced_s", "s"},
        {"trace.overhead_ratio", "ratio"},
    };
    t.insert(t.end(), serve.begin(), serve.end());
    for (const char* root : {"setup", "job"}) {
      for (const std::string& layer : layer_names()) {
        t.emplace_back("selftime." + std::string(root) + "." + layer + "_ms", "ms");
      }
      t.emplace_back("selftime." + std::string(root) + ".unattributed_ms", "ms");
    }
    return t;
  }();
  return table;
}

/// Makes `report` carry exactly the metrics of `table`: bypassed layers are
/// filled with 0; a metric outside the table or with the wrong unit is a
/// benchmark bug and throws.
void conform(Report& report, const MetricTable& table, bool fill_missing) {
  std::map<std::string, std::string> units(table.begin(), table.end());
  for (const auto& [name, metric] : report.metrics) {
    const auto it = units.find(name);
    if (it == units.end()) throw std::logic_error("unlisted metric " + name);
    if (it->second != metric.unit) {
      throw std::logic_error("metric " + name + " has unit " + metric.unit +
                             ", expected " + it->second);
    }
  }
  for (const auto& [name, unit] : table) {
    if (report.metrics.count(name) != 0) continue;
    if (!fill_missing) throw std::logic_error("missing metric " + name);
    report.set(name, 0.0, unit);
  }
}

/// Refuses numbers from builds whose timings mean nothing.
void require_optimized_build() {
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  bool debug = std::string(RAP_BUILD_TYPE) == "Debug";
#ifndef NDEBUG
  debug = true;
#endif
  if (sanitized || debug) {
    throw std::runtime_error(std::string("refusing to report from a ") +
                             (sanitized ? "sanitizer" : "Debug") +
                             " build (build type " + RAP_BUILD_TYPE + ")");
  }
}

/// Aggregate CPU tick counters from /proc/stat: {steal, total}. Steal is
/// time the hypervisor ran someone else on this machine's CPUs; runs taken
/// while it is high are slow for reasons outside the program.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) break;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

void selftest() {
  const auto expect = [](bool ok, const char* what) {
    if (!ok) throw std::runtime_error(std::string("selftest: ") + what);
  };
  expect(percentile_supported(20, 50.0), "p50 of 20 samples");
  expect(!percentile_supported(19, 50.0), "p50 of 19 samples");
  expect(percentile_supported(100, 90.0), "p90 of 100 samples");
  expect(!percentile_supported(99, 90.0), "p90 of 99 samples");
  expect(percentile_supported(1'000, 99.0), "p99 of 1000 samples");
  expect(!percentile_supported(999, 99.0), "p99 of 999 samples");
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);
  expect(tail_percentile(ramp, 90.0) == 90.0, "p90 of 1..100");
  expect(tail_percentile(ramp, 50.0) == 50.0, "p50 of 1..100");
  bool threw = false;
  try {
    (void)tail_percentile(std::vector<double>(50, 1.0), 90.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "p90 of 50 samples must be refused");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of four");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const rap::util::CliFlags flags(argc, argv);
    if (flags.get_bool("list-metrics", false)) {
      for (const auto& [name, unit] : end_to_end_metrics()) {
        std::cout << "end_to_end " << name << " " << unit << "\n";
      }
      for (const auto& [name, unit] : per_layer_metrics()) {
        std::cout << "per_layer " << name << " " << unit << "\n";
      }
      return 0;
    }
    if (flags.get_bool("selftest", false)) {
      selftest();
      std::cout << "selftest ok\n";
      return 0;
    }
    RunOptions options;
    options.workload = flags.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.smoke = flags.get_bool("smoke", false);
    const std::string dump = flags.get_string("dump-inputs", "");
    if (!dump.empty()) {
      write_inputs(options.workload, options.seed, options.smoke, dump);
      return 0;
    }
    options.seconds = flags.get_double("seconds", 10.0);
    options.trace = flags.get_int("trace", 0) != 0;
    options.work_dir = flags.get_string("work-dir", ".");
    options.serve_binary = flags.get_string("serve-binary", "");
    const std::string commit = flags.get_string("commit", "unknown");
    for (const std::string& flag : flags.unused()) {
      std::cerr << "perfbench: unknown flag --" << flag << "\n";
      return 2;
    }
    require_optimized_build();
    // RAP_THREADS when set, else half the cores: on a shared host, a pool as
    // wide as the machine turns every neighbour's burst into a stall of the
    // whole parallel region.
    const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
    const char* env_threads = std::getenv("RAP_THREADS");
    options.threads = env_threads != nullptr
                          ? static_cast<std::size_t>(std::stoul(env_threads))
                          : std::max<std::size_t>(1, nproc / 2);
    if (options.threads == 0 || options.threads > nproc) {
      throw std::runtime_error("thread count must be within 1.." +
                               std::to_string(nproc));
    }
    rap::util::set_parallel_config({options.threads});

    const auto ticks_before = cpu_ticks();
    Report report;
    if (options.workload == "metro_grid") {
      report = run_metro_grid(options);
    } else if (options.workload == "paper_sweep") {
      report = run_paper_sweep(options);
    } else if (options.workload == "serve_mix") {
      report = run_serve_mix(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "' (metro_grid|paper_sweep|serve_mix)\n";
      return 2;
    }
    if (options.trace) {
      report.set("op_fail_ratio",
                 static_cast<double>(report.failed) /
                     static_cast<double>(std::max<std::uint64_t>(report.attempted, 1)),
                 "ratio");
      conform(report, per_layer_metrics(), true);
    } else {
      conform(report, end_to_end_metrics(), false);
    }
    report.info["workload"] = options.workload;
    report.info["seed"] = std::to_string(options.seed);
    report.info["nproc"] = std::to_string(std::thread::hardware_concurrency());
    report.info["threads"] =
        std::to_string(rap::util::parallel_config().effective());
    const auto ticks_after = cpu_ticks();
    if (ticks_after.second > ticks_before.second) {
      report.info["cpu_steal_ratio"] =
          std::to_string((ticks_after.first - ticks_before.first) /
                         (ticks_after.second - ticks_before.second));
    }
    report.info["build_type"] = RAP_BUILD_TYPE;
    report.info["commit"] = commit;
    std::cout << report.to_json() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
