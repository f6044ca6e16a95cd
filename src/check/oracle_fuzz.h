// Oracle-backend differential fuzz family (rap_fuzz --family=oracle,
// DESIGN.md §13): on a seeded random scenario, every sparse distance
// backend must reproduce the dense APSP reference *bitwise* — point-to-point
// distances, per-flow detours in both detour modes, and the placements and
// objective values built on top of them. The family also pins:
//   * make_detour_engine under every engine name (dense, bidijkstra, alt)
//     prices detours and places composite greedy bitwise like its
//     "dijkstra" engine — the auto crossover never changes an answer;
//   * serial vs parallel (OracleFuzzOptions::parallel_threads) runs of the
//     oracle-backed pipeline are bit-identical, warm() included;
//   * a deliberately tiny distance cache — whose generation flushes force
//     constant recomputation — changes nothing but the hit rate.
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
  /// Capacity of the deliberately tiny cache leg; small enough that the
  /// scenario's pricing overflows it and exercises generation flushes.
  std::size_t tiny_cache_entries = 8;
  /// Landmark count for the ALT backend under test.
  std::size_t landmarks = 4;
};

struct OracleFuzzReport {
  std::uint64_t seed = 0;
  std::size_t checks_run = 0;
  std::vector<DiffFailure> failures;
  /// Scenario reproducer JSON; filled when a check fails.
  std::string reproducer_json;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// generate_scenario(seed) + every oracle differential check.
[[nodiscard]] OracleFuzzReport fuzz_oracle_one(
    std::uint64_t seed, const OracleFuzzOptions& options = {});

}  // namespace rap::check
