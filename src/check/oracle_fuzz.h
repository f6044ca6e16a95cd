// Detour-pricing differential fuzz family (rap_fuzz --family=oracle,
// DESIGN.md §13). The family keeps its historical name; it now pins the one
// production detour pricer against the independent reference of
// src/check/detour_reference.h. On a seeded random scenario, all with
// exact `==`:
//   * DetourCalculator prices every flow like ReferenceDetours, in both
//     detour modes;
//   * the coverage model of a PlacementProblem (stops per flow, flows per
//     node, passing vehicles and flow counts) equals one assembled from
//     the reference's per-flow vectors, in both detour modes and on
//     paths that revisit nodes;
//   * lazy and composite greedy place identically (nodes and objective) on
//     a problem from make_detour_engine and on a problem priced by the
//     reference;
//   * serial vs parallel (OracleFuzzOptions::parallel_threads) runs of the
//     production pipeline are bit-identical.
// A failing seed attaches the scenario's JSON reproducer, like the core
// differential family.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/differential.h"

namespace rap::check {

struct OracleFuzzOptions {
  /// Thread count for the parallel leg of serial-vs-parallel checks.
  std::size_t parallel_threads = 4;
};

struct OracleFuzzReport {
  std::uint64_t seed = 0;
  std::size_t checks_run = 0;
  std::vector<DiffFailure> failures;
  /// Scenario reproducer JSON; filled when a check fails.
  std::string reproducer_json;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// generate_scenario(seed) + every detour differential check.
[[nodiscard]] OracleFuzzReport fuzz_oracle_one(
    std::uint64_t seed, const OracleFuzzOptions& options = {});

}  // namespace rap::check
