// Algorithm 1 — the greedy weighted-maximum-coverage solution.
//
// Iteratively places a RAP at the intersection attracting the most customers
// from *uncovered* traffic flows, then marks those flows covered. Under the
// threshold utility this is the classic (1 - 1/e)-approximate greedy for
// weighted maximum coverage; under decreasing utilities it degenerates to
// the "factor (i) only" heuristic the paper shows is insufficient (kept as
// an ablation point).
#pragma once

#include "src/core/problem.h"

namespace rap::core {

/// Places up to k RAPs with Algorithm 1, stopping as soon as no
/// intersection yields positive gain (the paper's example terminates early
/// once every flow is covered). Budget contract (core/k_policy.h): k == 0
/// throws std::invalid_argument, k > num_nodes clamps to num_nodes and sets
/// the "placement.k_clamped" telemetry gauge. Ties break towards the lowest
/// node id (deterministic).
[[nodiscard]] PlacementResult greedy_coverage_placement(
    const CoverageModel& model, std::size_t k);

}  // namespace rap::core
