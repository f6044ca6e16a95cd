#include "src/check/bound_oracle.h"

#include <cstdio>
#include <memory>
#include <string>

#include "src/check/differential.h"
#include "src/core/composite_greedy.h"
#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/lazy_greedy.h"
#include "src/exact/bound.h"
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

std::string fmt_bound(const exact::Bound& bound) {
  return std::string(exact::to_string(bound.kind)) + " value " +
         full_precision(bound.value) + " certificate " +
         full_precision(bound.certificate.customers) + " after " +
         std::to_string(bound.iterations) + " iterations" +
         (bound.optimal ? " (optimal)" : "");
}

/// Fixed-point quantisation slack of the bound arithmetic, in customers:
/// one ceil() per flow plus double-rounding headroom. Objectives may exceed
/// the scaled bound by at most this (see src/exact/network.h).
double bound_quantum(const core::CoverageModel& model) {
  return static_cast<double>(model.num_flows() + 1) /
         static_cast<double>(exact::kDefaultBoundScale);
}

/// achieved <= bound.value + quantum, for any feasible placement's value.
void check_sound(const exact::Bound& bound, double achieved, double quantum,
                 const std::string& check_name, BoundFuzzReport& report) {
  ++report.checks_run;
  if (achieved <= bound.value + quantum) return;
  report.failures.push_back({check_name, "achievable " +
                                             full_precision(achieved) +
                                             " exceeds " + fmt_bound(bound)});
}

/// The certificate placement is feasible, replays bit-for-bit through
/// evaluate_placement, and never exceeds the bound's value.
void check_certificate(const core::CoverageModel& model, std::size_t k,
                       const exact::Bound& bound, const std::string& check_name,
                       BoundFuzzReport& report) {
  ++report.checks_run;
  if (bound.certificate.nodes.size() > k) {
    report.failures.push_back(
        {check_name, "certificate uses " +
                         std::to_string(bound.certificate.nodes.size()) +
                         " nodes for budget " + std::to_string(k)});
    return;
  }
  const double replayed =
      core::evaluate_placement(model, bound.certificate.nodes);
  if (replayed != bound.certificate.customers) {
    report.failures.push_back(
        {check_name, "certificate replays to " + full_precision(replayed) +
                         " != recorded " +
                         full_precision(bound.certificate.customers)});
    return;
  }
  if (bound.certificate.customers > bound.value) {
    report.failures.push_back(
        {check_name, "certificate exceeds its own bound: " + fmt_bound(bound)});
  }
}

void check_bounds_bitwise(const exact::Bound& want, const exact::Bound& got,
                          const std::string& check_name,
                          BoundFuzzReport& report) {
  ++report.checks_run;
  if (want.value != got.value || want.kind != got.kind ||
      want.iterations != got.iterations || want.optimal != got.optimal ||
      want.certificate.nodes != got.certificate.nodes ||
      want.certificate.customers != got.certificate.customers ||
      want.certificate.multipliers != got.certificate.multipliers) {
    report.failures.push_back(
        {check_name, fmt_bound(want) + " != " + fmt_bound(got)});
  }
}

}  // namespace

BoundFuzzReport fuzz_bound_one(std::uint64_t seed,
                               const BoundFuzzOptions& options) {
  BoundFuzzReport report;
  report.seed = seed;
  const std::unique_ptr<Scenario> scenario = generate_scenario(seed);
  const core::PlacementProblem& model = *scenario->problem;
  const std::size_t k = scenario->k;
  const bool monotone = is_monotone(scenario->utility_kind);
  const double quantum = bound_quantum(model);

  exact::BoundOptions forced_options;
  forced_options.monotone_utility = monotone;
  forced_options.exhaustive_tier = false;  // the machinery under test
  forced_options.max_iterations = options.max_iterations;
  exact::BoundOptions tiered_options;
  tiered_options.monotone_utility = monotone;

  // Serial leg: forced (flow/Lagrangian) and auto-tiered bounds.
  exact::Bound forced;
  exact::Bound tiered;
  {
    const ThreadConfigGuard guard;
    util::set_parallel_config({1});
    forced = exact::certified_upper_bound(model, k, forced_options);
    tiered = exact::certified_upper_bound(model, k, tiered_options);
  }

  // Soundness: every greedy family's objective stays under both bounds.
  // Feasibility is all that matters here, so the adversarial utility family
  // is NOT exempt — the bound dominates per-flow maxima regardless of the
  // evaluator's guarded branch.
  const core::PlacementResult naive =
      eager_marginal_greedy(model, k);
  const core::PlacementResult lazy =
      core::lazy_marginal_greedy_placement(model, k);
  const core::PlacementResult composite =
      core::composite_greedy_placement(model, k);
  check_sound(forced, naive.customers, quantum, "forced_bound_vs_naive",
              report);
  check_sound(forced, lazy.customers, quantum, "forced_bound_vs_lazy", report);
  check_sound(forced, composite.customers, quantum, "forced_bound_vs_composite",
              report);
  check_sound(tiered, composite.customers, quantum, "tiered_bound_vs_composite",
              report);

  check_certificate(model, k, forced, "forced_certificate", report);
  check_certificate(model, k, tiered, "tiered_certificate", report);

  // Gap is a well-formed ratio for every greedy value.
  {
    ++report.checks_run;
    const double gap = exact::optimality_gap(composite.customers, forced);
    if (!(gap >= 0.0 && gap <= 1.0)) {
      report.failures.push_back(
          {"gap_in_unit_interval", "gap " + full_precision(gap)});
    }
  }

  // Exactness at toy budgets: the exhaustive optimum is computable, so the
  // forced bound must dominate it, the auto tier must route to it, and a
  // forced bound claiming optimality must match it within the quantum.
  // Monotone families only: for adversarial utilities evaluation is
  // order-dependent, so the ascending-order exhaustive value is not the
  // optimum over orderings (same gating as check/differential.cpp).
  if (monotone && k <= 4 &&
      core::exhaustive_combination_count(model, k) <=
          exact::BoundOptions{}.exhaustive_cap) {
    const core::PlacementResult opt =
        core::exhaustive_optimal_placement(model, k);
    check_sound(forced, opt.customers, quantum, "forced_bound_vs_opt", report);
    ++report.checks_run;
    if (tiered.kind != exact::BoundKind::kExhaustive) {
      report.failures.push_back(
          {"tiered_routes_exhaustive", fmt_bound(tiered)});
    } else if (!tiered.optimal || tiered.value < opt.customers) {
      report.failures.push_back(
          {"tiered_equals_opt", fmt_bound(tiered) + " vs OPT " +
                                    full_precision(opt.customers)});
    }
    ++report.checks_run;
    if (forced.optimal &&
        forced.value - opt.customers > quantum) {
      report.failures.push_back(
          {"forced_optimal_is_tight", fmt_bound(forced) + " vs OPT " +
                                          full_precision(opt.customers)});
    }
  }

  // Determinism: the entire forced Bound is bitwise identical when the
  // worker pool is engaged (the tier is sequential by construction; this
  // pins that property against future parallelisation of its inputs).
  {
    const ThreadConfigGuard guard;
    util::set_parallel_config({options.parallel_threads});
    const exact::Bound parallel =
        exact::certified_upper_bound(model, k, forced_options);
    check_bounds_bitwise(forced, parallel, "forced_bound_serial_vs_parallel",
                         report);
  }

  if (!report.ok()) report.reproducer_json = scenario_to_json(*scenario);
  return report;
}

}  // namespace rap::check
