#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "src/citygen/grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/graph/io.h"
#include "src/trace/classify.h"
#include "src/trace/generator.h"
#include "src/trace/io.h"
#include "src/util/rng.h"

namespace perfbench {

using rap::graph::NodeId;
using rap::traffic::TrafficFlow;

// ---------------------------------------------------------------- metro_grid

MetroSpec metro_spec(bool smoke) {
  MetroSpec spec;
  if (smoke) {
    // Below the crossover, so the smoke run is fast.
    spec.side = 24;
    spec.flows = 1'000;
    spec.max_trip = 16;
  }
  return spec;
}

rap::citygen::GridSpec metro_grid_spec(const MetroSpec& spec) {
  return {spec.side, spec.side, spec.block_ft, {0.0, 0.0}};
}

MetroInputs make_metro_inputs(const MetroSpec& spec,
                              const rap::citygen::GridCity& city,
                              std::uint64_t seed) {
  rap::util::Rng rng(seed);
  rap::util::Rng flow_rng = rng.fork(1);
  rap::util::Rng shop_rng = rng.fork(2);

  MetroInputs out;
  // Corridor flows: a column leg then a row leg, each spanning at most
  // max_trip / 2 blocks either way — a shortest path under uniform blocks.
  const auto leg = [&](std::size_t at) {
    const auto half = static_cast<std::int64_t>(spec.max_trip / 2);
    const std::int64_t target = static_cast<std::int64_t>(at) +
                                flow_rng.next_int(-half, half);
    const auto last = static_cast<std::int64_t>(spec.side) - 1;
    return static_cast<std::size_t>(std::clamp<std::int64_t>(target, 0, last));
  };
  out.flows.reserve(spec.flows);
  for (std::size_t i = 0; i < spec.flows; ++i) {
    const std::size_t c0 = flow_rng.next_below(spec.side);
    const std::size_t r0 = flow_rng.next_below(spec.side);
    std::size_t c1 = leg(c0);
    const std::size_t r1 = leg(r0);
    if (c1 == c0 && r1 == r0) c1 = c0 + 1 < spec.side ? c0 + 1 : c0 - 1;
    TrafficFlow flow;
    flow.origin = city.node_at(c0, r0);
    flow.destination = city.node_at(c1, r1);
    for (std::size_t c = c0;; c = c < c1 ? c + 1 : c - 1) {
      flow.path.push_back(city.node_at(c, r0));
      if (c == c1) break;
    }
    for (std::size_t r = r0; r != r1;) {
      r = r < r1 ? r + 1 : r - 1;
      flow.path.push_back(city.node_at(c1, r));
    }
    flow.daily_vehicles = 1.0 + static_cast<double>(flow_rng.next_below(50));
    out.flows.push_back(std::move(flow));
  }
  // One shop per cell of a jobs-cell partition of the grid: a job's cost
  // depends on where its shop sits, so stratifying keeps every seed's job
  // list an even spread of central and outlying shops.
  std::size_t cell_cols = 1;
  while ((cell_cols + 1) * (cell_cols + 1) <= spec.jobs) ++cell_cols;
  const std::size_t cell_rows = (spec.jobs + cell_cols - 1) / cell_cols;
  out.shops.reserve(spec.jobs);
  for (std::size_t j = 0; j < spec.jobs; ++j) {
    const std::size_t c0 = (j % cell_cols) * spec.side / cell_cols;
    const std::size_t c1 = (j % cell_cols + 1) * spec.side / cell_cols;
    const std::size_t r0 = (j / cell_cols) * spec.side / cell_rows;
    const std::size_t r1 = (j / cell_cols + 1) * spec.side / cell_rows;
    out.shops.push_back(city.node_at(c0 + shop_rng.next_below(c1 - c0),
                                     r0 + shop_rng.next_below(r1 - r0)));
  }
  return out;
}

// --------------------------------------------------------------- paper_sweep

SweepSpec sweep_spec(bool smoke) {
  SweepSpec spec;
  if (smoke) {
    spec.journeys = 60;
    spec.jobs = 30;
  }
  return spec;
}

rap::graph::RoadNetwork make_sweep_network() {
  rap::util::Rng rng(kMapSeed);
  rap::citygen::RadialSpec city;
  city.rings = 12;
  city.nodes_on_first_ring = 8;
  city.nodes_per_ring_step = 5;
  city.ring_spacing = 3'300.0;
  city.angular_jitter = 0.12;
  city.radial_jitter = 0.08;
  city.chord_prob = 0.06;
  city.oneway_prob = 0.06;
  return rap::citygen::build_radial_city(city, rng);
}

std::vector<rap::trace::TraceRecord> make_sweep_trace(
    const SweepSpec& spec, const rap::graph::RoadNetwork& net,
    std::uint64_t seed) {
  rap::util::Rng rng = rap::util::Rng(seed).fork(6);
  const SweepTraceParams params;
  rap::trace::TraceGenSpec gen;
  gen.num_journeys = spec.journeys;
  gen.mean_runs_per_journey = 40.0;
  gen.sample_spacing = 900.0;
  gen.gps_noise = 150.0;
  gen.drop_prob = 0.05;
  gen.speed = 30.0;
  gen.passengers_per_vehicle = params.passengers_per_vehicle;
  gen.alpha = params.alpha;
  gen.min_trip_fraction = 0.2;
  return rap::trace::generate_trace(net, gen, rng).records;
}

std::vector<NodeId> make_sweep_shops(const SweepSpec& spec,
                                     const rap::graph::RoadNetwork& net,
                                     const std::vector<TrafficFlow>& flows) {
  const auto classes = rap::trace::classify_intersections(net, flows);
  const auto pool =
      rap::trace::nodes_in_class(classes, rap::trace::LocationClass::kCity);
  if (pool.empty()) throw std::runtime_error("no city-class intersection");
  // Evenly spaced over the whole pool rather than drawn: a job's cost and
  // value depend on where its shop sits, so covering the pool keeps every
  // seed's job list alike.
  std::vector<NodeId> shops;
  shops.reserve(spec.jobs);
  for (std::size_t j = 0; j < spec.jobs; ++j) {
    shops.push_back(pool[j * pool.size() / spec.jobs]);
  }
  return shops;
}

// ----------------------------------------------------------------- serve_mix

const char* to_string(ServeOp op) noexcept {
  switch (op) {
    case ServeOp::kLoad: return "load";
    case ServeOp::kPlace: return "place";
    case ServeOp::kPlaceBatch: return "place_batch";
    case ServeOp::kEvaluate: return "evaluate";
    case ServeOp::kDelta: return "delta";
    case ServeOp::kStats: return "stats";
  }
  return "unknown";
}

ServeSpec serve_spec(bool smoke) {
  ServeSpec spec;
  if (smoke) {
    spec.stored_scenarios = 3;
    spec.fresh_scenarios = 1;
    spec.cache_mb = 1;
    spec.journeys_small = 40;
    spec.journeys_large = 60;
  }
  return spec;
}

std::vector<ServeScenarioSpec> make_serve_scenarios(const ServeSpec& spec) {
  static const char* const kUtilities[] = {"linear", "threshold", "sqrt"};
  std::vector<ServeScenarioSpec> out;
  const std::size_t total = spec.stored_scenarios + spec.fresh_scenarios;
  for (std::size_t i = 0; i < total; ++i) {
    ServeScenarioSpec scenario;
    const bool seattle = i % 2 == 0;
    scenario.city = seattle ? "seattle" : "dublin";
    scenario.seed = kMapSeed + i;
    scenario.journeys =
        i % 4 < 2 ? spec.journeys_small : spec.journeys_large;
    scenario.utility = kUtilities[i % 3];
    scenario.range_ft = seattle ? 2'500.0 : 20'000.0;
    scenario.stored = i < spec.stored_scenarios;
    out.push_back(std::move(scenario));
  }
  return out;
}

namespace {

/// One session: a load, reads and writes against the loaded scenario, and
/// an evaluate of the last placement.
constexpr ServeOp kSessionScript[] = {
    ServeOp::kLoad,  ServeOp::kPlace, ServeOp::kPlaceBatch, ServeOp::kDelta,
    ServeOp::kPlace, ServeOp::kDelta, ServeOp::kPlace,      ServeOp::kEvaluate};

}  // namespace

std::size_t requests_per_session() noexcept { return std::size(kSessionScript); }

std::vector<ServeRequest> make_serve_schedule(const ServeSpec& spec,
                                              std::size_t stored,
                                              std::size_t fresh,
                                              double session_rate,
                                              std::size_t sessions,
                                              std::uint64_t seed,
                                              std::uint64_t stream) {
  if (stored == 0 || session_rate <= 0.0 || spec.connections == 0) {
    throw std::invalid_argument("serve schedule needs scenarios and a rate");
  }
  rap::util::Rng rng = rap::util::Rng(seed).fork(100 + stream);
  // Zipf-like popularity (weight 1/(rank+1)) over the stored scenarios.
  std::vector<double> popularity(stored);
  for (std::size_t i = 0; i < stored; ++i) {
    popularity[i] = 1.0 / static_cast<double>(i + 1);
  }
  std::size_t fresh_next = 0;
  const double interval_ns = 1e9 / session_rate;

  std::vector<ServeRequest> out;
  out.reserve(sessions * requests_per_session());
  for (std::size_t s = 0; s < sessions; ++s) {
    for (const ServeOp op : kSessionScript) {
      ServeRequest request;
      request.session = s;
      request.connection = s % spec.connections;
      request.due_ns = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(s) * interval_ns));
      request.op = op;
      switch (op) {
        case ServeOp::kLoad:
          // Fresh scenarios are first loaded at evenly spaced points of the
          // schedule; every other session picks by popularity.
          if (fresh_next < fresh &&
              s * (fresh + 1) >= (fresh_next + 1) * sessions) {
            request.scenario = stored + fresh_next++;
          } else {
            request.scenario = rng.next_weighted(popularity);
          }
          break;
        case ServeOp::kPlace:
          request.k = 4 + rng.next_below(9);
          break;
        case ServeOp::kPlaceBatch:
          for (int b = 0; b < 4; ++b) request.ks.push_back(2 + rng.next_below(11));
          break;
        case ServeOp::kDelta: {
          const std::size_t ops = 1 + rng.next_below(3);
          for (std::size_t d = 0; d < ops; ++d) {
            DeltaDraw draw;
            const std::uint64_t roll = rng.next_below(10);
            draw.kind = roll < 4 ? 0 : roll < 7 ? 1 : 2;
            draw.a = rng.next_u64();
            draw.b = rng.next_u64();
            draw.value = draw.kind == 0
                             ? 1.0 + static_cast<double>(rng.next_below(40))
                             : 0.5 + rng.next_double();
            request.deltas.push_back(draw);
          }
          break;
        }
        case ServeOp::kEvaluate:
        case ServeOp::kStats:
          break;
      }
      out.push_back(std::move(request));
    }
  }
  return out;
}

// ------------------------------------------------------------------ dumping

void write_inputs(const std::string& workload, std::uint64_t seed, bool smoke,
                  const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "workload " << workload << "\n";
  if (workload == "metro_grid") {
    const MetroSpec spec = metro_spec(smoke);
    const rap::citygen::GridCity city(metro_grid_spec(spec));
    const MetroInputs inputs = make_metro_inputs(spec, city, seed);
    out << rap::graph::network_to_csv(city.network())
        << rap::trace::flows_to_csv(inputs.flows) << "shops";
    for (const NodeId shop : inputs.shops) out << ' ' << shop;
    out << "\n";
  } else if (workload == "paper_sweep") {
    const rap::graph::RoadNetwork net = make_sweep_network();
    out << rap::graph::network_to_csv(net)
        << rap::trace::records_to_csv(
               make_sweep_trace(sweep_spec(smoke), net, seed));
  } else if (workload == "serve_mix") {
    const ServeSpec spec = serve_spec(smoke);
    for (const ServeScenarioSpec& s : make_serve_scenarios(spec)) {
      out << "scenario " << s.city << ' ' << s.seed << ' ' << s.journeys << ' '
          << s.utility << ' ' << s.range_ft << ' ' << s.stored << "\n";
    }
    for (const ServeRequest& r :
         make_serve_schedule(spec, spec.stored_scenarios, spec.fresh_scenarios,
                             spec.session_rate, 200, seed, 0)) {
      out << r.session << ' ' << r.connection << ' ' << r.due_ns << ' ' << to_string(r.op) << ' '
          << r.scenario << ' ' << r.k;
      for (const std::size_t k : r.ks) out << " k" << k;
      for (const DeltaDraw& d : r.deltas) {
        out << " d" << d.kind << ':' << d.a << ':' << d.b << ':' << d.value;
      }
      out << "\n";
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
}

}  // namespace perfbench
