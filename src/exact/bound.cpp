#include "src/exact/bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/core/evaluator.h"
#include "src/core/exhaustive.h"
#include "src/core/k_policy.h"
#include "src/core/lazy_greedy.h"

namespace rap::exact {
namespace {

/// Scaled-domain lower bound of a feasible objective: floor, so the
/// comparison against integer upper bounds can never overclaim.
std::int64_t scale_down(double customers, std::int64_t scale) {
  return static_cast<std::int64_t>(
      std::floor(customers * static_cast<double>(scale)));
}

Bound exhaustive_bound(const core::CoverageModel& model, std::size_t k,
                       const BoundOptions& options) {
  core::ExhaustiveOptions exhaustive;
  exhaustive.max_combinations = options.exhaustive_cap;
  core::PlacementResult opt =
      core::exhaustive_optimal_placement(model, k, exhaustive);
  Bound bound;
  bound.kind = BoundKind::kExhaustive;
  bound.iterations = 0;
  bound.optimal = true;
  bound.certificate.nodes = std::move(opt.nodes);
  // Certificates always replay through evaluate_placement so a verifier can
  // reproduce `customers` bit-for-bit; the search's incrementally-maintained
  // value may differ in the last ulp (different summation order).
  bound.certificate.customers =
      core::evaluate_placement(model, bound.certificate.nodes);
  bound.value = std::max(opt.customers, bound.certificate.customers);
  return bound;
}

Bound flow_bound(const core::CoverageModel& model,
                 const AssignmentNetwork& network,
                 const BoundOptions& options) {
  AssignmentSolution solution = solve_open_assignment(network);
  Bound bound;
  bound.kind = BoundKind::kFlow;
  bound.iterations = solution.augmentations;
  // The all-open profit is achievable only when evaluation is
  // order-independent; for adversarial utilities the value stays a sound
  // bound but the optimum may be lower.
  bound.optimal = options.monotone_utility;
  bound.certificate.nodes = std::move(solution.nodes_used);
  bound.certificate.customers =
      core::evaluate_placement(model, bound.certificate.nodes);
  // The scaled profit over-estimates OPT (ceil rounding); the certificate's
  // exact objective under-estimates it. Reporting the max keeps the bound
  // sound while guaranteeing value >= the achievable certificate.
  bound.value =
      std::max(network.to_customers(solution.profit), bound.certificate.customers);
  return bound;
}

Bound lagrangian_bound(const core::CoverageModel& model,
                       const AssignmentNetwork& network,
                       const BoundOptions& options) {
  const std::size_t m = network.num_flows;
  const std::size_t u = network.num_useful_nodes();

  // Per-flow weight ceiling: multipliers above it cannot lower L (reduced
  // profits are already clamped at zero), so capping keeps the search
  // bounded without ever excluding the dual optimum.
  std::vector<std::int64_t> max_weight(m, 0);
  for (std::size_t i = 0; i < network.num_options(); ++i) {
    max_weight[network.option_flow[i]] =
        std::max(max_weight[network.option_flow[i]], network.option_weight[i]);
  }
  // All-open relaxation sum_f max_v w~: the iteration-zero upper bound.
  std::int64_t best_ub = 0;
  for (const std::int64_t w : max_weight) best_ub += w;

  // Incumbent: the standard greedy on the true objective. Any feasible
  // placement works; greedy both seeds the Polyak step and guarantees the
  // reported bound dominates the caller's greedy run of the same family.
  Bound bound;
  bound.kind = BoundKind::kLagrangian;
  {
    core::PlacementResult greedy =
        core::lazy_marginal_greedy_placement(model, network.k);
    bound.certificate.nodes = std::move(greedy.nodes);
    // Replayable certificate: value the greedy set through
    // evaluate_placement, not the greedy's own incremental accumulator.
    bound.certificate.customers =
        core::evaluate_placement(model, bound.certificate.nodes);
  }
  std::int64_t incumbent_scaled =
      scale_down(bound.certificate.customers, network.scale);

  std::vector<std::int64_t> mu(m, 0);
  std::vector<std::int64_t> scores(u);
  std::vector<std::int64_t> assigned(m);
  core::Placement chosen_nodes;
  for (std::size_t t = 1; t <= options.max_iterations; ++t) {
    bound.iterations = t;
    // Inner problem: open the <= k intersections with the largest reduced
    // profit, answered exactly by min-cost flow on the decision arcs.
    for (std::size_t j = 0; j < u; ++j) {
      std::int64_t score = 0;
      for (std::uint32_t idx = network.node_start[j];
           idx < network.node_start[j + 1]; ++idx) {
        const std::uint32_t i = network.node_option[idx];
        const std::int64_t reduced =
            network.option_weight[i] - mu[network.option_flow[i]];
        if (reduced > 0) score += reduced;
      }
      scores[j] = score;
    }
    const std::vector<std::uint32_t> chosen =
        solve_open_selection(network, scores);

    std::int64_t dual = 0;
    for (const std::int64_t m_f : mu) dual += m_f;
    for (const std::uint32_t j : chosen) dual += scores[j];
    best_ub = std::min(best_ub, dual);

    // Primal candidate: the chosen set, valued exactly.
    chosen_nodes.clear();
    for (const std::uint32_t j : chosen) {
      chosen_nodes.push_back(network.useful_nodes[j]);
    }
    const double primal = core::evaluate_placement(model, chosen_nodes);
    if (primal > bound.certificate.customers) {
      bound.certificate.customers = primal;
      bound.certificate.nodes = chosen_nodes;
      incumbent_scaled = scale_down(primal, network.scale);
    }

    // Assignment counts of the inner solution: how many chosen
    // intersections take each flow at the current multipliers.
    std::fill(assigned.begin(), assigned.end(), 0);
    for (const std::uint32_t j : chosen) {
      for (std::uint32_t idx = network.node_start[j];
           idx < network.node_start[j + 1]; ++idx) {
        const std::uint32_t i = network.node_option[idx];
        if (network.option_weight[i] > mu[network.option_flow[i]]) {
          ++assigned[network.option_flow[i]];
        }
      }
    }
    // Complementary slackness: a primal-feasible inner solution whose
    // multipliers are all tight certifies L(mu) == OPT.
    bool certified = true;
    for (std::size_t f = 0; f < m && certified; ++f) {
      if (assigned[f] > 1 || (mu[f] > 0 && assigned[f] != 1)) certified = false;
    }
    if (certified) {
      // L(mu) is tight at this mu; no further subgradient step can improve
      // it. Achievability of the tight value — the `optimal` claim — needs
      // order-independent evaluation (monotone utilities).
      best_ub = std::min(best_ub, dual);
      bound.optimal = options.monotone_utility;
      break;
    }
    if (best_ub <= incumbent_scaled) {
      // The dual bound meets an achievable placement at fixed-point
      // resolution: the incumbent is optimal within quantum().
      bound.optimal = true;
      break;
    }
    // Deterministic integer Polyak step with a 2/(2+t) relaxation.
    std::int64_t denom = 0;
    std::int64_t gap = best_ub - incumbent_scaled;
    for (std::size_t f = 0; f < m; ++f) {
      if (max_weight[f] == 0) continue;  // no options: mu stays 0
      const std::int64_t g = 1 - assigned[f];
      denom += g * g;
    }
    if (denom == 0) break;  // every flow assigned exactly once
    const std::int64_t step = std::max<std::int64_t>(
        1, (2 * gap) / (denom * static_cast<std::int64_t>(2 + t)));
    for (std::size_t f = 0; f < m; ++f) {
      if (max_weight[f] == 0) continue;
      const std::int64_t g = 1 - assigned[f];
      mu[f] = std::clamp<std::int64_t>(mu[f] - step * g, 0, max_weight[f]);
    }
  }

  bound.value =
      std::max(network.to_customers(best_ub), bound.certificate.customers);
  bound.certificate.multipliers.reserve(m);
  for (const std::int64_t m_f : mu) {
    bound.certificate.multipliers.push_back(network.to_customers(m_f));
  }
  return bound;
}

}  // namespace

const char* to_string(BoundKind kind) noexcept {
  switch (kind) {
    case BoundKind::kExhaustive:
      return "exhaustive";
    case BoundKind::kFlow:
      return "flow";
    case BoundKind::kLagrangian:
      return "lagrangian";
  }
  return "unknown";
}

Bound certified_upper_bound(const core::CoverageModel& model, std::size_t k,
                            const BoundOptions& options) {
  k = core::checked_budget(model, k, "certified_upper_bound");
  if (options.monotone_utility && options.exhaustive_tier &&
      core::exhaustive_combination_count(model, k) <= options.exhaustive_cap) {
    return exhaustive_bound(model, k, options);
  }
  const AssignmentNetwork network =
      build_assignment_network(model, k, options.scale);
  if (options.flow_tier && network.num_useful_nodes() <= k) {
    return flow_bound(model, network, options);
  }
  return lagrangian_bound(model, network, options);
}

double optimality_gap(double achieved, const Bound& bound) noexcept {
  if (!(bound.value > 0.0)) return 0.0;
  const double gap = (bound.value - achieved) / bound.value;
  return std::clamp(gap, 0.0, 1.0);
}

}  // namespace rap::exact
