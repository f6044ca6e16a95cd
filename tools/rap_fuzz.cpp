// Differential fuzzer driver (DESIGN.md §9, §11, §16).
//
//   rap_fuzz --scenarios=500 --seed=1 --dump-dir=fuzz_failures
//   rap_fuzz --family=delta --scenarios=200 --seed=1
//   rap_fuzz --family=list
//
// Families (rap_fuzz --family=list prints this registry):
//   core   — run_differential_checks over consecutive seeds: algorithm
//            cross-checks, oracle comparisons, audit invariants (default);
//   delta  — serve-layer incremental updates: replay random delta sequences
//            through a serve session and require the warm-start placement to
//            match a from-scratch lazy greedy bit-for-bit;
//   oracle — the production detour pricer (the shop's Dijkstra trees)
//            against the Bellman–Ford reference in src/check: detours in
//            both modes and placements must be bitwise identical, serial
//            and parallel (DESIGN.md §13);
//   exact  — certified upper bounds (src/exact): soundness against every
//            greedy family, exactness against the exhaustive optimum at toy
//            budgets, certificate replay, and bitwise serial-vs-parallel
//            determinism (DESIGN.md §16);
//   all    — every family.
//
// On a core/oracle/exact failure, prints every violated check and writes the
// scenario's JSON reproducer ("rap.fuzz.scenario.v1") to `dump-dir` (when
// given) as fuzz[_<family>]_seed_<seed>.json, then exits 1. The seed alone
// already reproduces the instance deterministically; the dump makes it
// inspectable without re-running the generator. Delta failures are reported
// by seed + round (the seed replays the whole delta sequence).
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "src/check/bound_oracle.h"
#include "src/check/differential.h"
#include "src/check/oracle_fuzz.h"
#include "src/serve/delta_fuzz.h"
#include "src/util/cli.h"

namespace {

/// The family registry: names accepted by --family, in the order `list`
/// prints them. Adding a family here is the complete registration — the
/// validator and the listing both read this table.
struct FamilyInfo {
  std::string_view name;
  std::string_view summary;
};
constexpr FamilyInfo kFamilies[] = {
    {"core", "algorithm differential checks (default)"},
    {"delta", "serve-layer incremental updates vs from-scratch greedy"},
    {"oracle", "detour pricer vs Bellman-Ford reference"},
    {"exact", "certified upper bounds: soundness, exactness, determinism"},
    {"all", "every family above"},
};

bool known_family(std::string_view family) {
  for (const FamilyInfo& info : kFamilies) {
    if (family == info.name) return true;
  }
  return false;
}

void print_families(std::ostream& out) {
  out << "rap_fuzz families:\n";
  for (const FamilyInfo& info : kFamilies) {
    out << "  " << info.name << " — " << info.summary << "\n";
  }
}

void dump_reproducer(const std::string& dump_dir, const std::string& filename,
                     const std::string& reproducer_json) {
  if (!dump_dir.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(dump_dir) / filename;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    out << reproducer_json;
    std::cerr << "  reproducer: " << path.string() << "\n";
  } else {
    std::cerr << "  reproducer (pass --dump-dir to write to a file):\n"
              << reproducer_json;
  }
}

std::uint64_t run_core_family(std::uint64_t first_seed, std::uint64_t scenarios,
                              const std::string& dump_dir,
                              const rap::check::DiffOptions& options) {
  std::uint64_t failures = 0;
  std::size_t checks = 0;
  for (std::uint64_t i = 0; i < scenarios; ++i) {
    const std::uint64_t seed = first_seed + i;
    const rap::check::DiffReport report = rap::check::fuzz_one(seed, options);
    checks += report.checks_run;
    if (report.ok()) continue;
    ++failures;
    std::cerr << "FAIL seed " << seed << " (" << report.failures.size()
              << " check(s)):\n";
    for (const rap::check::DiffFailure& failure : report.failures) {
      std::cerr << "  " << failure.check << ": " << failure.detail << "\n";
    }
    dump_reproducer(dump_dir, "fuzz_seed_" + std::to_string(seed) + ".json",
                    report.reproducer_json);
  }
  std::cout << "rap_fuzz: core: " << scenarios << " scenario(s), " << checks
            << " check(s), " << failures << " failing scenario(s)\n";
  return failures;
}

std::uint64_t run_delta_family(std::uint64_t first_seed,
                               std::uint64_t scenarios) {
  std::uint64_t failures = 0;
  std::uint64_t skipped = 0;
  std::size_t deltas = 0;
  std::size_t reused = 0;
  std::size_t fallbacks = 0;
  for (std::uint64_t i = 0; i < scenarios; ++i) {
    const std::uint64_t seed = first_seed + i;
    const rap::serve::DeltaFuzzReport report =
        rap::serve::fuzz_delta_one(seed);
    if (report.skipped) {
      ++skipped;
      continue;
    }
    deltas += report.deltas_applied;
    reused += report.warm_reused;
    fallbacks += report.warm_fallbacks;
    if (report.ok) continue;
    ++failures;
    std::cerr << "FAIL delta seed " << seed << ": " << report.message << "\n";
  }
  std::cout << "rap_fuzz: delta: " << scenarios << " scenario(s) (" << skipped
            << " non-monotone skipped), " << deltas << " delta(s), " << reused
            << " warm reuse(s), " << fallbacks << " fallback(s), " << failures
            << " failing scenario(s)\n";
  return failures;
}

std::uint64_t run_oracle_family(std::uint64_t first_seed,
                                std::uint64_t scenarios,
                                const std::string& dump_dir) {
  std::uint64_t failures = 0;
  std::size_t checks = 0;
  for (std::uint64_t i = 0; i < scenarios; ++i) {
    const std::uint64_t seed = first_seed + i;
    const rap::check::OracleFuzzReport report =
        rap::check::fuzz_oracle_one(seed);
    checks += report.checks_run;
    if (report.ok()) continue;
    ++failures;
    std::cerr << "FAIL oracle seed " << seed << " ("
              << report.failures.size() << " check(s)):\n";
    for (const rap::check::DiffFailure& failure : report.failures) {
      std::cerr << "  " << failure.check << ": " << failure.detail << "\n";
    }
    dump_reproducer(dump_dir,
                    "fuzz_oracle_seed_" + std::to_string(seed) + ".json",
                    report.reproducer_json);
  }
  std::cout << "rap_fuzz: oracle: " << scenarios << " scenario(s), " << checks
            << " check(s), " << failures << " failing scenario(s)\n";
  return failures;
}

std::uint64_t run_exact_family(std::uint64_t first_seed,
                               std::uint64_t scenarios,
                               const std::string& dump_dir,
                               const rap::check::BoundFuzzOptions& options) {
  std::uint64_t failures = 0;
  std::size_t checks = 0;
  for (std::uint64_t i = 0; i < scenarios; ++i) {
    const std::uint64_t seed = first_seed + i;
    const rap::check::BoundFuzzReport report =
        rap::check::fuzz_bound_one(seed, options);
    checks += report.checks_run;
    if (report.ok()) continue;
    ++failures;
    std::cerr << "FAIL exact seed " << seed << " (" << report.failures.size()
              << " check(s)):\n";
    for (const rap::check::DiffFailure& failure : report.failures) {
      std::cerr << "  " << failure.check << ": " << failure.detail << "\n";
    }
    dump_reproducer(dump_dir,
                    "fuzz_exact_seed_" + std::to_string(seed) + ".json",
                    report.reproducer_json);
  }
  std::cout << "rap_fuzz: exact: " << scenarios << " scenario(s), " << checks
            << " check(s), " << failures << " failing scenario(s)\n";
  return failures;
}

int run(int argc, char** argv) {
  const rap::util::CliFlags flags(argc, argv);
  const auto scenarios =
      static_cast<std::uint64_t>(flags.get_int("scenarios", 200));
  const auto first_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string dump_dir = flags.get_string("dump-dir", "");
  const std::string family = flags.get_string("family", "core");
  rap::check::DiffOptions options;
  options.parallel_threads =
      static_cast<std::size_t>(flags.get_int("threads", 4));
  rap::check::BoundFuzzOptions bound_options;
  bound_options.parallel_threads = options.parallel_threads;
  for (const std::string& unknown : flags.unused()) {
    std::cerr << "rap_fuzz: unknown flag --" << unknown << "\n";
    return 2;
  }
  if (family == "list") {
    print_families(std::cout);
    return 0;
  }
  if (!known_family(family)) {
    std::cerr << "rap_fuzz: " << (family.empty() ? "missing" : "unknown")
              << " --family '" << family << "'\n";
    print_families(std::cerr);
    return 2;
  }

  std::uint64_t failures = 0;
  if (family == "core" || family == "all") {
    failures += run_core_family(first_seed, scenarios, dump_dir, options);
  }
  if (family == "delta" || family == "all") {
    failures += run_delta_family(first_seed, scenarios);
  }
  if (family == "oracle" || family == "all") {
    failures += run_oracle_family(first_seed, scenarios, dump_dir);
  }
  if (family == "exact" || family == "all") {
    failures += run_exact_family(first_seed, scenarios, dump_dir,
                                 bound_options);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "rap_fuzz: " << e.what() << "\n";
    return 2;
  }
}
