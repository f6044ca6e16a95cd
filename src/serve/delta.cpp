#include "src/serve/delta.h"

#include <cmath>

#include "src/core/evaluator.h"
#include "src/core/k_policy.h"
#include "src/core/lazy_greedy.h"

namespace rap::serve {
namespace {

/// Relative inflation applied to every seed. Stored gains are exact for the
/// pre-delta model; recomputing them on the post-delta model can differ in
/// the last ulps, so the seeds get a margin far above fp noise (1e-9
/// relative vs ~1e-16) yet far below any real gain difference. A fresh gain
/// above the inflated seed is a genuine bound violation.
constexpr double kSeedSlack = 1e-9;

void check_deadline(const Deadline& deadline) {
  if (deadline.has_value() &&
      std::chrono::steady_clock::now() > *deadline) {
    throw DeadlineExceeded("placement deadline exceeded");
  }
}

/// From-scratch run: full round-0 scan (recorded as exact warm gains), then
/// the core CELF loop from those exact seeds.
WarmStartResult run_cold(const core::CoverageModel& model, std::size_t k,
                         WarmState* refresh, const Deadline& deadline) {
  WarmStartResult out;
  core::PlacementState state(model);
  std::vector<double> round0 = core::marginal_gains(state);
  check_deadline(deadline);
  const core::CelfRun run =
      core::celf_extend(state, k, {round0}, [&](const core::CelfReevaluation&) {
        check_deadline(deadline);
        return true;
      });
  out.gain_evaluations = round0.size() + run.stats.gain_evaluations;
  out.placement = {state.placement(), state.value()};
  if (refresh != nullptr) {
    refresh->valid = true;
    refresh->gains = std::move(round0);
  }
  return out;
}

/// Seeded run. Returns false on a bound violation (caller falls back); only
/// then is `out` unusable.
bool run_warm(const core::CoverageModel& model, std::size_t k,
              const WarmState& warm, WarmState* refresh,
              const Deadline& deadline, WarmStartResult& out) {
  core::PlacementState state(model);
  std::vector<double> seeds(warm.gains.size());
  for (std::size_t v = 0; v < seeds.size(); ++v) {
    seeds[v] = warm.gains[v] + kSeedSlack * (std::fabs(warm.gains[v]) + 1.0);
  }
  std::vector<double> round0 = warm.gains;  // refined where re-evaluated
  check_deadline(deadline);
  const core::CelfRun run = core::celf_extend(
      state, k, {seeds, /*upper_bounds=*/true},
      [&](const core::CelfReevaluation& e) {
        check_deadline(deadline);
        // The audited bound: a marginal gain can never exceed the node's
        // seed (round-0 bound plus slack). Exceeding it means a delta was
        // not accounted for — discard the warm state rather than risk a
        // wrong placement.
        if (e.seeded && e.gain > e.key) return false;
        if (e.selections == 0) round0[e.node] = e.gain;  // exact round 0
        return true;
      });
  out.gain_evaluations = run.stats.gain_evaluations;
  if (!run.completed) return false;
  out.placement = {state.placement(), state.value()};
  out.reused = true;
  if (refresh != nullptr) {
    refresh->valid = true;
    refresh->gains = std::move(round0);
  }
  return true;
}

}  // namespace

void apply_delta_bound(WarmState& state, const DeltaOp& op,
                       const std::vector<traffic::TrafficFlow>& flows_before,
                       const traffic::UtilityFunction& utility) {
  if (!state.valid) return;
  double bound = 0.0;
  const std::vector<graph::NodeId>* path = nullptr;
  switch (op.kind) {
    case DeltaOp::Kind::kAddFlow:
      bound = utility.probability(0.0, op.flow.alpha) * op.flow.population();
      path = &op.flow.path;
      break;
    case DeltaOp::Kind::kRemoveFlow:
      return;  // gains can only shrink
    case DeltaOp::Kind::kScaleFlow: {
      if (op.factor <= 1.0) return;  // scale-down: gains can only shrink
      const traffic::TrafficFlow& flow = flows_before.at(op.index);
      bound = (op.factor - 1.0) * utility.probability(0.0, flow.alpha) *
              flow.population();
      path = &flow.path;
      break;
    }
  }
  for (const graph::NodeId node : *path) {
    if (node < state.gains.size()) state.gains[node] += bound;
  }
}

WarmStartResult warm_start_marginal_greedy(const core::CoverageModel& model,
                                           std::size_t k, const WarmState& warm,
                                           WarmState* refresh,
                                           Deadline deadline) {
  k = core::checked_budget(model, k, "serve warm-start placement");
  if (warm.valid && warm.gains.size() == model.num_nodes()) {
    WarmStartResult out;
    if (run_warm(model, k, warm, refresh, deadline, out)) return out;
    // Audited bound violated: the warm state lied. Recover with a full run
    // (which also rebuilds exact warm gains).
    WarmStartResult cold = run_cold(model, k, refresh, deadline);
    cold.fell_back = true;
    return cold;
  }
  return run_cold(model, k, refresh, deadline);
}

}  // namespace rap::serve
