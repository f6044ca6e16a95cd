// The detour differential fuzz suite (ctest label "oracle-fuzz", selected
// by both -L oracle and -L fuzz): 150+ seeded scenarios where the production
// detour pricer must reproduce the Bellman–Ford reference bitwise — detours
// in both modes, placements and objectives — serial and under a 4-thread
// worker pool. A failure prints the seed and the JSON reproducer.
#include "src/check/oracle_fuzz.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/check/scenario.h"
#include "src/util/thread_pool.h"

namespace rap::check {
namespace {

class ConfigGuard {
 public:
  ConfigGuard() : saved_(util::parallel_config()) {}
  ~ConfigGuard() { util::set_parallel_config(saved_); }

 private:
  util::ParallelConfig saved_;
};

std::string describe(const OracleFuzzReport& report) {
  std::string out =
      "seed " + std::to_string(report.seed) + " failed checks:\n";
  for (const DiffFailure& failure : report.failures) {
    out += "  " + failure.check + ": " + failure.detail + "\n";
  }
  return out + "reproducer:\n" + report.reproducer_json;
}

TEST(OracleFuzz, OneHundredSixtySeededScenariosAgree) {
  std::set<FuzzUtility> families;
  std::size_t checks = 0;
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    const OracleFuzzReport report = fuzz_oracle_one(seed);
    EXPECT_TRUE(report.ok()) << describe(report);
    checks += report.checks_run;
    families.insert(generate_scenario(seed)->utility_kind);
  }
  // A contiguous window covers every utility family (seed % 5), and each
  // seed runs the full check battery (2 detour + 3 placement).
  EXPECT_EQ(families.size(), 5u);
  EXPECT_GE(checks, 160u * 5u);
}

TEST(OracleFuzz, AgreesUnderFourWorkerThreads) {
  // The whole pipeline — model build, greedy scans — on a 4-thread pool;
  // RAP_THREADS=4 in CI exercises the same configuration.
  const ConfigGuard guard;
  util::set_parallel_config({4});
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const OracleFuzzReport report = fuzz_oracle_one(seed);
    EXPECT_TRUE(report.ok()) << describe(report);
  }
}

TEST(OracleFuzz, HighSeedWindowAgreesToo) {
  for (std::uint64_t seed = 5'000'000; seed < 5'000'020; ++seed) {
    const OracleFuzzReport report = fuzz_oracle_one(seed);
    EXPECT_TRUE(report.ok()) << describe(report);
  }
}

TEST(OracleFuzz, ReportCarriesSeedAndCounts) {
  const OracleFuzzReport report = fuzz_oracle_one(7);
  EXPECT_EQ(report.seed, 7u);
  EXPECT_GE(report.checks_run, 5u);
  EXPECT_TRUE(report.reproducer_json.empty());  // only filled on failure
}

}  // namespace
}  // namespace rap::check
