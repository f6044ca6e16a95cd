// The two batch workloads: metro_grid (pricing and model build dominate)
// and paper_sweep (solve and the certified bound dominate; map matching
// dominates set-up). Each runs a fixed, seeded job list at least once and
// then keeps cycling it until the run's time is up; the objective sums the
// fixed list only, so it is deterministic for a seed.
#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/inputs.h"
#include "src/check/oracle.h"
#include "src/citygen/grid_city.h"
#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/problem.h"
#include "src/exact/bound.h"
#include "src/serve/scenario_cache.h"
#include "src/trace/flow_extractor.h"
#include "src/trace/map_matcher.h"
#include "src/traffic/oracle_detour.h"
#include "src/traffic/utility.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using rap::graph::NodeId;
using rap::obs::Span;
using rap::obs::Tracer;

/// What one job hands back to the job loop.
struct JobOutcome {
  double objective = 0.0;
};

/// Per-layer work counters, summed over the traced jobs.
struct LayerCounters {
  double jobs = 0.0;
  double incidences = 0.0;
  double oracle_mib = 0.0;
  double cache_pairs = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  double lazy_evaluations = 0.0;
  double lazy_selections = 0.0;
  double bound_iterations = 0.0;
  double bound_gap = 0.0;
};

/// Fewest jobs behind a reported median (ten samples beyond it).
constexpr std::size_t kMinMedianJobs = 2 * kTailSamples;

/// Runs job(i) for i over the fixed list (cycling) until at least
/// `min_jobs` have run and `seconds` have passed. Returns each job's wall
/// time in seconds and adds the first pass's objectives to `objective`.
template <typename JobFn>
std::vector<double> run_jobs(std::size_t fixed_jobs, std::size_t min_jobs,
                             double seconds, Tracer* tracer, double& objective,
                             JobFn&& job) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < min_jobs || seconds_since(start) < seconds; ++i) {
    const Clock::time_point job_start = Clock::now();
    JobOutcome outcome;
    {
      const Span span(tracer, "job");
      outcome = job(i % fixed_jobs, tracer);
    }
    times.push_back(seconds_since(job_start));
    if (i < fixed_jobs) objective += outcome.objective;
  }
  return times;
}

std::size_t incidence_count(const rap::core::CoverageModel& model) {
  std::size_t total = 0;
  for (NodeId v = 0; v < model.num_nodes(); ++v) total += model.reach_at(v).size();
  return total;
}

/// A PlacementProblem priced by an engine from make_detour_engine.
rap::core::PlacementProblem build_problem(
    const rap::graph::RoadNetwork& net,
    const std::vector<rap::traffic::TrafficFlow>& flows, NodeId shop,
    const rap::traffic::UtilityFunction& utility,
    const rap::traffic::DetourEngine& engine) {
  return rap::core::PlacementProblem(
      net, flows, shop, utility,
      std::make_unique<rap::serve::SharedDetours>(engine.detours));
}

/// Time in span `name` under the root span `root`, per call of the root
/// (per job, or per set-up); 0 when the span never ran.
double mean_span_ms(const Tracer& tracer, const std::string& name,
                    const std::string& root = "job") {
  for (const auto& top : tracer.root().children) {
    if (top->name != root) continue;
    for (const auto& child : top->children) {
      if (child->name == name && child->calls > 0) {
        return child->total_ms() / static_cast<double>(top->calls);
      }
    }
  }
  return 0.0;
}

/// Every per-layer metric a batch workload reports; layers the workload
/// bypasses read 0.
void report_batch_layers(const LayerTrace& trace, const LayerCounters& c,
                         Report& report) {
  const Tracer& t = trace.tree();
  const double jobs = std::max(c.jobs, 1.0);
  report.set("trace.match_ms", mean_span_ms(t, "trace.match", "setup"), "ms");
  report.set("traffic.detour_engine_ms", mean_span_ms(t, "traffic.detour_engine"), "ms");
  report.set("graph.oracle_mb", c.oracle_mib / jobs, "MiB");
  report.set("graph.cache_pairs", c.cache_pairs / jobs, "count");
  report.set("graph.cache_hit_ratio",
             c.cache_lookups > 0.0 ? c.cache_hits / c.cache_lookups : 0.0, "ratio");
  report.set("core.model_build_ms", mean_span_ms(t, "core.model_build"), "ms");
  report.set("core.incidences", c.incidences / jobs, "count");
  report.set("core.alg1_ms", mean_span_ms(t, "core.alg1"), "ms");
  report.set("core.alg2_ms", mean_span_ms(t, "core.alg2"), "ms");
  report.set("core.lazy_ms", mean_span_ms(t, "core.lazy"), "ms");
  report.set("core.baselines_ms", mean_span_ms(t, "core.baselines"), "ms");
  report.set("core.evaluate_ms", mean_span_ms(t, "core.evaluate"), "ms");
  report.set("core.lazy_gain_evaluations", c.lazy_evaluations / jobs, "count");
  report.set("core.lazy_useful_ratio",
             c.lazy_evaluations > 0.0 ? c.lazy_selections / c.lazy_evaluations : 0.0,
             "ratio");
  report.set("exact.bound_ms", mean_span_ms(t, "exact.bound"), "ms");
  report.set("exact.bound_iterations", c.bound_iterations / jobs, "count");
  report.set("exact.gap", c.bound_gap / jobs, "ratio");
}

/// Shared driver: set-up repetitions, then the job loop. Untraced, the loop
/// runs the whole fixed list (the objective needs it) and reports the
/// end-to-end metrics. Traced, it runs two halves of the same jobs —
/// untraced, then, after one more set-up with recording on, traced — so
/// their medians differ only by the tracing cost.
template <typename SetupFn, typename JobFactory, typename LayerFn>
Report run_batch(const RunOptions& options, std::size_t fixed_jobs,
                 int setup_repetitions, SetupFn&& setup, JobFactory&& make_job,
                 LayerFn&& report_layers) {
  Report report;
  LayerTrace trace(options.trace);

  std::vector<double> setup_s;
  for (int r = 0; r < setup_repetitions; ++r) {
    const Clock::time_point start = Clock::now();
    setup(nullptr);
    setup_s.push_back(seconds_since(start));
  }

  auto job = make_job(report);
  double objective = 0.0;
  if (!options.trace) {
    const std::vector<double> times =
        run_jobs(fixed_jobs, fixed_jobs, options.seconds, nullptr, objective, job);
    report.set("job_p50_s", tail_percentile(times, 50.0), "s");
    report.set("setup_s", median(setup_s), "s");
    report.set("objective_customers", objective, "customers");
    report.set("peak_rss_mb", peak_rss_mib(), "MiB");
    report.info["jobs"] = std::to_string(times.size());
    return report;
  }
  const std::size_t half_jobs = std::min(fixed_jobs, kMinMedianJobs);
  const std::vector<double> untraced = run_jobs(
      fixed_jobs, half_jobs, options.seconds / 2.0, nullptr, objective, job);
  trace.start_recording();
  {
    // Set-up is deterministic, so repeating it traced rebuilds the same
    // inputs the jobs use.
    const Span span(trace.tracer(), "setup");
    setup(trace.tracer());
  }
  const std::vector<double> traced = run_jobs(
      fixed_jobs, half_jobs, options.seconds / 2.0, trace.tracer(), objective, job);
  const double untraced_p50 = tail_percentile(untraced, 50.0);
  const double traced_p50 = tail_percentile(traced, 50.0);
  report.set("job_p90_s",
             percentile_supported(untraced.size(), 90.0) ? tail_percentile(untraced, 90.0)
                                                         : 0.0,
             "s");
  report.set("trace.job_p50_untraced_s", untraced_p50, "s");
  report.set("trace.job_p50_traced_s", traced_p50, "s");
  report.set("trace.overhead_ratio", traced_p50 / untraced_p50 - 1.0, "ratio");
  report.info["jobs_traced"] = std::to_string(traced.size());
  report.info["jobs_untraced"] = std::to_string(untraced.size());
  trace.report_self_times("setup", report);
  trace.report_self_times("job", report);
  report_layers(report, trace);
  trace.finish_recording(std::filesystem::path(options.work_dir) /
                         (options.workload + "-" + std::to_string(options.seed) +
                          ".trace.json"),
                     report);
  return report;
}

}  // namespace

// ---------------------------------------------------------------- metro_grid

Report run_metro_grid(const RunOptions& options) {
  const MetroSpec spec = metro_spec(options.smoke);
  std::optional<rap::citygen::GridCity> city;
  std::optional<MetroInputs> inputs;
  const rap::traffic::LinearUtility utility(spec.range_ft);
  LayerCounters counters;

  const auto setup = [&](Tracer* tracer) {
    {
      const Span span(tracer, "citygen.grid_city");
      city.emplace(metro_grid_spec(spec));
    }
    // Flows and shops are the benchmark's own seeded inputs.
    inputs.emplace(make_metro_inputs(spec, *city, options.seed));
  };
  const auto make_job = [&](Report& report) {
    return [&](std::size_t j, Tracer* tracer) {
      const rap::graph::RoadNetwork& net = city->network();
      const NodeId shop = inputs->shops[j];
      std::optional<rap::traffic::DetourEngine> engine;
      {
        const Span span(tracer, "traffic.detour_engine");
        engine.emplace(rap::traffic::make_detour_engine(net, shop, inputs->flows));
      }
      std::optional<rap::core::PlacementProblem> problem;
      {
        const Span span(tracer, "core.model_build");
        problem.emplace(build_problem(net, inputs->flows, shop, utility, *engine));
      }
      rap::core::LazyGreedyStats stats;
      rap::core::PlacementResult placement;
      {
        const Span span(tracer, "core.lazy");
        placement = rap::core::lazy_marginal_greedy_placement(*problem, spec.k,
                                                              &stats);
      }
      double evaluated = 0.0;
      {
        const Span span(tracer, "core.evaluate");
        evaluated = rap::core::evaluate_placement(*problem, placement.nodes);
      }
      // Output checks (outside every layer span): the engine resolved as
      // the auto policy predicts, and the independent oracle re-scores the
      // placement to the reported value.
      const bool above_crossover =
          net.num_nodes() >
          rap::traffic::DetourEnginePolicy{}.dijkstra_node_limit;
      report.check(engine->engine == (above_crossover ? "alt" : "dijkstra"));
      report.check(!placement.nodes.empty() && placement.nodes.size() <= spec.k);
      report.check(close_enough(evaluated, placement.customers));
      report.check(close_enough(
          rap::check::oracle_evaluate(*problem, placement.nodes),
          placement.customers));
      if (tracer != nullptr) {
        counters.jobs += 1.0;
        counters.incidences += static_cast<double>(incidence_count(*problem));
        if (engine->oracle != nullptr) {
          counters.oracle_mib +=
              static_cast<double>(engine->oracle->memory_bytes()) / (1024.0 * 1024.0);
        }
        if (engine->cache != nullptr) {
          const auto cache = engine->cache->stats();
          counters.cache_pairs += static_cast<double>(cache.insertions);
          counters.cache_hits += static_cast<double>(cache.hits);
          counters.cache_lookups += static_cast<double>(cache.hits + cache.misses);
        }
        counters.lazy_evaluations += static_cast<double>(stats.gain_evaluations);
        counters.lazy_selections += static_cast<double>(placement.nodes.size());
      }
      return JobOutcome{placement.customers};
    };
  };
  // Set-up is a few milliseconds here, so many repetitions steady its median.
  Report report = run_batch(
      options, spec.jobs, 9, setup, make_job, [&](Report& r, const LayerTrace& trace) {
        report_batch_layers(trace, counters, r);
      });
  report.info["nodes"] = std::to_string(city->network().num_nodes());
  report.info["flows"] = std::to_string(inputs->flows.size());
  return report;
}

// --------------------------------------------------------------- paper_sweep

Report run_paper_sweep(const RunOptions& options) {
  const SweepSpec spec = sweep_spec(options.smoke);
  const SweepTraceParams params;
  std::optional<rap::graph::RoadNetwork> net;
  std::vector<rap::traffic::TrafficFlow> flows;
  std::vector<NodeId> shops;
  std::size_t records = 0;
  const rap::traffic::ThresholdUtility threshold(spec.range_ft);
  const rap::traffic::LinearUtility linear(spec.range_ft);
  const rap::traffic::SqrtUtility sqrt_utility(spec.range_ft);
  const rap::traffic::UtilityFunction* utilities[] = {&threshold, &linear,
                                                      &sqrt_utility};
  LayerCounters counters;

  const auto setup = [&](Tracer* tracer) {
    {
      const Span span(tracer, "citygen.radial_city");
      net.emplace(make_sweep_network());
    }
    std::vector<rap::trace::TraceRecord> trace_records;
    {
      const Span span(tracer, "trace.generate");
      trace_records = make_sweep_trace(spec, *net, options.seed);
    }
    {
      const Span span(tracer, "trace.match");
      const rap::trace::MapMatcher matcher(*net, params.snap_radius);
      rap::trace::ExtractionOptions extract;
      extract.passengers_per_vehicle = params.passengers_per_vehicle;
      extract.alpha = params.alpha;
      flows = rap::trace::extract_flows(matcher, trace_records, extract);
    }
    {
      const Span span(tracer, "trace.classify");
      shops = make_sweep_shops(spec, *net, flows);
    }
    records = trace_records.size();
  };
  const auto make_job = [&](Report& report) {
    return [&](std::size_t j, Tracer* tracer) {
      const NodeId shop = shops[j];
      const rap::traffic::UtilityFunction& utility = *utilities[j % 3];
      std::optional<rap::traffic::DetourEngine> engine;
      {
        const Span span(tracer, "traffic.detour_engine");
        engine.emplace(rap::traffic::make_detour_engine(*net, shop, flows));
      }
      std::optional<rap::core::PlacementProblem> problem;
      {
        const Span span(tracer, "core.model_build");
        problem.emplace(build_problem(*net, flows, shop, utility, *engine));
      }
      // The paper's curves: every algorithm solved at every k = 1..K, as
      // the figure experiments run them. results[k - 1][a] is algorithm a
      // (Alg 1, Alg 2, lazy, MaxCardinality, MaxVehicles, MaxCustomers,
      // Random) at budget k.
      std::vector<std::vector<rap::core::PlacementResult>> results(spec.k_max);
      rap::core::LazyGreedyStats stats;
      rap::util::Rng rng = rap::util::Rng(options.seed).fork(1'000 + j);
      for (std::size_t k = 1; k <= spec.k_max; ++k) {
        auto& at_k = results[k - 1];
        {
          const Span span(tracer, "core.alg1");
          at_k.push_back(rap::core::greedy_coverage_placement(*problem, k));
        }
        {
          const Span span(tracer, "core.alg2");
          at_k.push_back(rap::core::composite_greedy_placement(*problem, k));
        }
        {
          const Span span(tracer, "core.lazy");
          rap::core::LazyGreedyStats call;
          at_k.push_back(
              rap::core::lazy_marginal_greedy_placement(*problem, k, &call));
          stats.gain_evaluations += call.gain_evaluations;
        }
        {
          const Span span(tracer, "core.baselines");
          at_k.push_back(rap::core::max_cardinality_placement(*problem, k));
          at_k.push_back(rap::core::max_vehicles_placement(*problem, k));
          at_k.push_back(rap::core::max_customers_placement(*problem, k));
          at_k.push_back(rap::core::random_placement(*problem, k, rng));
        }
      }
      std::vector<std::vector<double>> values(spec.k_max);
      {
        const Span span(tracer, "core.evaluate");
        for (std::size_t k = 1; k <= spec.k_max; ++k) {
          for (const rap::core::PlacementResult& result : results[k - 1]) {
            values[k - 1].push_back(
                rap::core::evaluate_placement(*problem, result.nodes));
          }
        }
      }
      std::optional<rap::exact::Bound> bound;
      {
        const Span span(tracer, "exact.bound");
        bound.emplace(rap::exact::certified_upper_bound(*problem, spec.bound_k));
      }
      // Output checks: the evaluator and the independent oracle agree with
      // every reported value, and the bound dominates every k = bound_k
      // placement and its own certificate.
      for (std::size_t k = 1; k <= spec.k_max; ++k) {
        for (std::size_t a = 0; a < results[k - 1].size(); ++a) {
          const rap::core::PlacementResult& result = results[k - 1][a];
          report.check(!result.nodes.empty() && result.nodes.size() <= k);
          report.check(close_enough(values[k - 1][a], result.customers));
          report.check(close_enough(
              rap::check::oracle_evaluate(*problem, result.nodes), result.customers));
          if (k == spec.bound_k) {
            report.check(result.customers <= bound->value * (1.0 + 1e-9));
          }
        }
      }
      report.check(bound->certificate.customers <= bound->value * (1.0 + 1e-9));
      const double alg2_at_bound = results[spec.bound_k - 1][1].customers;
      if (tracer != nullptr) {
        counters.jobs += 1.0;
        counters.incidences += static_cast<double>(incidence_count(*problem));
        counters.lazy_evaluations += static_cast<double>(stats.gain_evaluations);
        for (const auto& at_k : results) {
          counters.lazy_selections += static_cast<double>(at_k[2].nodes.size());
        }
        counters.bound_iterations += static_cast<double>(bound->iterations);
        counters.bound_gap += rap::exact::optimality_gap(alg2_at_bound, *bound);
      }
      return JobOutcome{results[spec.k_max - 1][1].customers};
    };
  };
  Report report = run_batch(
      options, spec.jobs, 3, setup, make_job, [&](Report& r, const LayerTrace& trace) {
        report_batch_layers(trace, counters, r);
        r.set("trace.records", static_cast<double>(records), "count");
        r.set("trace.flows", static_cast<double>(flows.size()), "count");
      });
  report.info["nodes"] = std::to_string(net->num_nodes());
  report.info["flows"] = std::to_string(flows.size());
  report.info["records"] = std::to_string(records);
  return report;
}

}  // namespace perfbench
