// Algorithm 2 — the composite greedy solution with the 1 - 1/sqrt(e) bound.
//
// At every step two candidate intersections are computed:
//   (i)  the intersection attracting the most customers from flows that
//        currently contribute nothing (cover new traffic), and
//   (ii) the intersection attracting the most *additional* customers from
//        already-contributing flows by offering a smaller detour distance
//        (the RAP-overlap factor).
// The better of the two candidates receives the RAP. With the threshold
// utility candidate (ii) is always worthless, so Algorithm 2 reduces to
// Algorithm 1 exactly as the paper observes. The plain marginal greedy
// discussed around Fig. 4 is core/lazy_greedy.h's
// lazy_marginal_greedy_placement.
#pragma once

#include "src/core/problem.h"

namespace rap::core {

/// Algorithm 2; stops once neither candidate gains. Budget contract
/// (core/k_policy.h): k == 0 throws std::invalid_argument, k > num_nodes
/// clamps and sets the "placement.k_clamped" telemetry gauge.
/// Deterministic (ties towards the lowest node id; candidate (i) wins exact
/// ties with candidate (ii), matching the listing's order).
[[nodiscard]] PlacementResult composite_greedy_placement(
    const CoverageModel& model, std::size_t k);

}  // namespace rap::core
