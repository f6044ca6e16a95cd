// The CELF (lazy-evaluation) kernel and the lazy marginal greedy.
//
// The attracted-customers objective is monotone submodular for every
// non-increasing utility (it is a facility-location function: a per-flow
// maximum over placed RAPs), so the total marginal gain of any intersection
// can only shrink as RAPs are placed. A max-heap of cached gains therefore
// needs to re-evaluate only the top entry, cutting the k |V| |T| greedy
// sweep to a small fraction of gain evaluations on real workloads
// (measured in bench/ablation_design).
//
// celf_extend() is the library's one CELF loop. Every lazy placement runs
// through it:
//   * lazy_marginal_greedy_placement, from an empty state;
//   * the serve warm start (src/serve/delta.h), from audited upper-bound
//     seeds, with a hook for its deadline and bound checks;
//   * the two-stage Manhattan algorithms, extending a partial placement.
// The eager argmax scan (src/core/parallel_scan.h) is the other selection
// engine; Algorithms 1 and 2 run on it. Algorithm 2's candidate (ii)
// improvement gain is NOT monotone (a flow must first be covered before it
// can be improved), so the composite greedy has no lazy counterpart. The
// eager marginal greedy survives only as the reference in src/check/, which
// the differential fuzzer compares bitwise against the lazy one.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/problem.h"

namespace rap::core {

/// Per-call work counts. When ambient telemetry is installed
/// (src/obs/telemetry.h) lazy_marginal_greedy_placement also accumulates
/// them on the registry as `lazy_greedy.gain_evaluations` /
/// `lazy_greedy.heap_pops` / `lazy_greedy.selections`; this struct is the
/// registry-free view for direct callers (benches, tests).
struct LazyGreedyStats {
  std::size_t gain_evaluations = 0;  ///< gain_if_added calls performed
  std::size_t heap_pops = 0;
};

/// The heap a CELF run starts from: one key per node id (placed nodes are
/// skipped). Exact keys must equal gain_if_added at the starting state, so
/// the run may select them without re-evaluation; upper-bound keys are
/// re-evaluated before any selection, which makes any key at or above the
/// true gain safe.
struct CelfSeeds {
  std::span<const double> gains;
  bool upper_bounds = false;
};

/// One re-evaluation inside the loop, as passed to a CelfHook.
struct CelfReevaluation {
  graph::NodeId node = graph::kInvalidNode;
  double gain = 0.0;           ///< fresh gain_if_added at the current state
  double key = 0.0;            ///< heap key the entry was popped with
  bool seeded = false;         ///< `key` is a caller's upper-bound seed
  std::size_t selections = 0;  ///< RAPs this run has added so far
};

/// Called after every re-evaluation; returning false aborts the run.
using CelfHook = std::function<bool(const CelfReevaluation&)>;

struct CelfRun {
  bool completed = true;               ///< false when the hook aborted
  std::vector<double> selected_gains;  ///< gain of each added RAP, in order
  LazyGreedyStats stats;  ///< re-evaluations and pops (seeding excluded)
};

/// gain_if_added of every unplaced node at `state` (0 for placed nodes):
/// the exact seeds of a run from `state`.
[[nodiscard]] std::vector<double> marginal_gains(const PlacementState& state);

/// Adds up to `budget` RAPs to `state`, each the unplaced node of largest
/// marginal gain (ties to the lowest id), stopping once no node gains. On
/// monotone utilities the selection is bit-identical to the eager argmax
/// scan's. `budget` is taken as given: the budget contract
/// (core/k_policy.h) belongs to the public entry points. On abort `state`
/// holds the RAPs added so far.
[[nodiscard]] CelfRun celf_extend(PlacementState& state, std::size_t budget,
                                  CelfSeeds seeds, const CelfHook& hook = {});

/// The marginal greedy: maximise the plain total marginal gain at every
/// step — the strawman discussed around Fig. 4 (7 customers there against
/// the optimum 8), and the standard 1 - 1/e greedy on the monotone
/// submodular objective. Ties to lowest id; stops when nothing gains.
/// Budget contract: core/k_policy.h (k == 0 throws, k > num_nodes clamps).
[[nodiscard]] PlacementResult lazy_marginal_greedy_placement(
    const CoverageModel& model, std::size_t k,
    LazyGreedyStats* stats = nullptr);

}  // namespace rap::core
