// Seeded input generation for the three workloads. Everything the program
// under test receives is made here, so one seed always gives the same
// networks, flows, shops and request schedules (write_inputs serialises
// them for the determinism test).
//
// The maps are fixed — the grid, the Dublin-like city, the served scenario
// catalogue — and the seed draws what travels on them and what is asked of
// them: flows, traces, shops and requests. Like the paper's one Dublin map
// with many traces, this keeps seeds comparable: a seed changes the sample,
// not the city, so run-to-run spread measures the program, not the map.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/citygen/grid_city.h"
#include "src/graph/road_network.h"
#include "src/trace/record.h"
#include "src/traffic/flow.h"

namespace perfbench {

/// Seed of every fixed map.
inline constexpr std::uint64_t kMapSeed = 20'150'701;

// ---------------------------------------------------------------- metro_grid

struct MetroSpec {
  std::size_t side = 65;       ///< 65^2 = 4,225 nodes: above the auto crossover
  std::size_t flows = 20'000;
  std::size_t max_trip = 40;   ///< blocks per corridor leg span
  std::size_t jobs = 42;       ///< fixed job list (6 x 7 shop cells)
  double block_ft = 100.0;
  double range_ft = 3'000.0;   ///< linear utility range
  std::size_t k = 8;
};

[[nodiscard]] MetroSpec metro_spec(bool smoke);

[[nodiscard]] rap::citygen::GridSpec metro_grid_spec(const MetroSpec& spec);

struct MetroInputs {
  std::vector<rap::traffic::TrafficFlow> flows;
  std::vector<rap::graph::NodeId> shops;  ///< one per job
};

/// Bounded L-shaped corridor flows on `city` and one shop per job.
[[nodiscard]] MetroInputs make_metro_inputs(const MetroSpec& spec,
                                            const rap::citygen::GridCity& city,
                                            std::uint64_t seed);

// --------------------------------------------------------------- paper_sweep

struct SweepSpec {
  std::size_t journeys = 1'000;  ///< Dublin-like trace journeys
  std::size_t jobs = 120;        ///< fixed job list scored into the objective
  std::size_t k_max = 10;        ///< the paper's k = 1..10 sweep
  std::size_t bound_k = 8;       ///< certified bound budget
  double range_ft = 20'000.0;    ///< the paper's D for Dublin
};

[[nodiscard]] SweepSpec sweep_spec(bool smoke);

/// Matching parameters of the Dublin-like trace (Section V-A scales).
struct SweepTraceParams {
  double snap_radius = 450.0;
  double passengers_per_vehicle = 100.0;
  double alpha = 0.001;
};

/// The Dublin-like radial city: ~80,000 ft across with jittered rings, so
/// street lengths are non-integer and the city stays below the auto engine
/// crossover.
[[nodiscard]] rap::graph::RoadNetwork make_sweep_network();

/// The raw GPS bus trace the set-up map-matches into flows.
[[nodiscard]] std::vector<rap::trace::TraceRecord> make_sweep_trace(
    const SweepSpec& spec, const rap::graph::RoadNetwork& net,
    std::uint64_t seed);

/// Shops for the job list: spread over the matched flows' city-class
/// intersections (the paper's Fig. 10 shop class).
[[nodiscard]] std::vector<rap::graph::NodeId> make_sweep_shops(
    const SweepSpec& spec, const rap::graph::RoadNetwork& net,
    const std::vector<rap::traffic::TrafficFlow>& flows);

// ----------------------------------------------------------------- serve_mix

/// One generated-city scenario, as a rap.serve.v1 `load` names it.
struct ServeScenarioSpec {
  std::string city;  ///< seattle | dublin
  std::uint64_t seed = 1;
  std::size_t journeys = 0;
  std::string utility;
  double range_ft = 0.0;
  bool stored = true;  ///< persisted in set-up; false = first built mid-run
};

enum class ServeOp { kLoad, kPlace, kPlaceBatch, kEvaluate, kDelta, kStats };

[[nodiscard]] const char* to_string(ServeOp op) noexcept;

/// One delta operation with raw random draws; the client maps them onto
/// the live session (node and flow counts come from server replies).
struct DeltaDraw {
  int kind = 0;  ///< 0 add_flow, 1 remove_flow, 2 scale_flow
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double value = 0.0;  ///< vehicles (add) or factor (scale)
};

struct ServeRequest {
  std::size_t session = 0;
  std::size_t connection = 0;
  std::uint64_t due_ns = 0;  ///< the session's start, from the phase start
  ServeOp op = ServeOp::kPlace;
  std::size_t scenario = 0;         ///< kLoad
  std::size_t k = 0;                ///< kPlace
  std::vector<std::size_t> ks;      ///< kPlaceBatch
  std::vector<DeltaDraw> deltas;    ///< kDelta
};

struct ServeSpec {
  std::size_t connections = 4;
  std::size_t stored_scenarios = 12;
  std::size_t fresh_scenarios = 2;  ///< built on first load during the run
  std::size_t cache_mb = 2;         ///< well under the scenario set's bytes
  double session_rate = 50.0;       ///< fixed open-loop rate, sessions/s
  double p99_limit_ms = 10.0;       ///< ladder latency limit per request
  std::size_t journeys_small = 300;
  std::size_t journeys_large = 500;
};

[[nodiscard]] ServeSpec serve_spec(bool smoke);

/// The served scenario catalogue (fixed; the seed draws the requests).
[[nodiscard]] std::vector<ServeScenarioSpec> make_serve_scenarios(
    const ServeSpec& spec);

/// Requests in one session of the serve mix.
[[nodiscard]] std::size_t requests_per_session() noexcept;

/// The open-loop schedule: `sessions` user sessions starting evenly spaced
/// at `session_rate`, dealt round-robin over the connections. A session is
/// load, place, place_batch, delta, place, delta, place, evaluate (of the
/// last place's nodes); the client pipelines the requests between the load
/// and the evaluate. Loads
/// pick among the `stored` scenarios with skewed popularity, so the cache
/// sees hits and misses; the `fresh` scenarios (indices after the stored
/// ones) are each loaded once, at evenly spaced points. `stream` separates
/// schedules drawn from one seed (phases, ladder steps).
[[nodiscard]] std::vector<ServeRequest> make_serve_schedule(
    const ServeSpec& spec, std::size_t stored, std::size_t fresh,
    double session_rate, std::size_t sessions, std::uint64_t seed,
    std::uint64_t stream);

/// Writes every generated input of `workload` for `seed` to `path` in a
/// stable text form (networks and flows as the repo's CSV formats).
void write_inputs(const std::string& workload, std::uint64_t seed, bool smoke,
                  const std::filesystem::path& path);

}  // namespace perfbench
