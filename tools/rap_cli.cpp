// rap_cli — end-to-end RAP placement from the command line.
//
// Composes the full pipeline: obtain a city (generate one, or load a CSV
// network), obtain traffic flows (synthesize a GPS trace and extract them,
// or load a flow CSV), pick the shop, run a placement algorithm, and report
// the result — optionally persisting the network/flows/scenario.
//
//   # plan a campaign on a generated Seattle-like city
//   rap_cli --city=seattle --seed=7 --k=8 --utility=linear --d=2500
//
//   # same, but keep the inputs and a map
//   rap_cli --city=dublin --save-network=net.csv --save-flows=flows.csv
//           --geojson=plan.geojson          (one line)
//
//   # re-plan on saved data with a different algorithm
//   rap_cli --network=net.csv --flows=flows.csv --algorithm=alg1 --k=10
//
// Flags:
//   --city=dublin|seattle|grid   generate a city (default seattle)
//   --network=PATH --flows=PATH  or load both from CSV
//   --journeys=N --seed=N        trace synthesis controls
//   --shop=ID | --shop-class=center|city|suburb   (default: city class)
//   --utility=threshold|linear|sqrt  --d=FEET     driver model
//   --algorithm=alg1|alg2|lazy|local|maxcustomers|maxcardinality|
//               maxvehicles|random                 (default alg2)
//   --k=N                        number of RAPs
//   --optgap                     additionally compute a certified upper
//                                bound on OPT (src/exact, DESIGN.md §16) and
//                                report the optimality gap of the placement:
//                                gap = (bound - achieved) / bound
//   --save-network --save-flows --geojson          outputs
//   --threads=N                  worker threads for parallel kernels (APSP,
//                                greedy scans); default: hardware
//                                concurrency. Results are bit-identical for
//                                any N (see DESIGN.md §8)
//   --metrics-out=PATH           telemetry JSON (schema rap.telemetry.v1):
//                                per-stage spans, algorithm counters,
//                                histogram percentiles
//   --verbose-timings            print the span tree after the run
//   --quiet                      suppress the narrative report (machine
//                                consumers read --metrics-out / --geojson)
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "src/citygen/grid_city.h"
#include "src/citygen/partial_grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/core/baselines.h"
#include "src/core/composite_greedy.h"
#include "src/core/greedy.h"
#include "src/core/lazy_greedy.h"
#include "src/core/local_search.h"
#include "src/eval/geojson.h"
#include "src/exact/bound.h"
#include "src/graph/io.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"
#include "src/trace/classify.h"
#include "src/trace/flow_extractor.h"
#include "src/trace/generator.h"
#include "src/trace/io.h"
#include "src/util/cli.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "tools/version_info.h"

namespace {

using namespace rap;

struct Inputs {
  graph::RoadNetwork net;
  std::vector<traffic::TrafficFlow> flows;
};

Inputs generate_city(const std::string& kind, std::uint64_t seed,
                     std::size_t journeys) {
  util::Rng rng(seed);
  Inputs inputs;
  trace::TraceGenSpec spec;
  spec.num_journeys = journeys;
  spec.alpha = 0.001;
  double snap_radius = 0.0;
  {
    const obs::Span span("city_gen");
    if (kind == "dublin") {
      citygen::RadialSpec city;
      city.rings = 12;
      city.nodes_on_first_ring = 8;
      city.nodes_per_ring_step = 5;
      city.ring_spacing = 3'300.0;
      inputs.net = citygen::build_radial_city(city, rng);
      spec.mean_runs_per_journey = 40.0;
      spec.sample_spacing = 900.0;
      spec.gps_noise = 150.0;
      spec.passengers_per_vehicle = 100.0;
      snap_radius = 450.0;
    } else if (kind == "seattle") {
      citygen::PartialGridSpec city;
      city.grid = {21, 21, 500.0, {0.0, 0.0}};
      const citygen::PartialGridCity built(city, rng);
      inputs.net = built.network();
      spec.mean_runs_per_journey = 30.0;
      spec.sample_spacing = 350.0;
      spec.gps_noise = 60.0;
      spec.passengers_per_vehicle = 200.0;
      snap_radius = 230.0;
    } else if (kind == "grid") {
      inputs.net = citygen::GridCity({15, 15, 500.0, {0.0, 0.0}}).network();
      spec.mean_runs_per_journey = 30.0;
      spec.sample_spacing = 350.0;
      spec.gps_noise = 60.0;
      spec.passengers_per_vehicle = 200.0;
      snap_radius = 230.0;
    } else {
      throw std::invalid_argument("unknown --city '" + kind +
                                  "' (dublin|seattle|grid)");
    }
  }
  std::optional<trace::SyntheticTrace> day;
  {
    const obs::Span span("trace_synthesis");
    day = trace::generate_trace(inputs.net, spec, rng);
    obs::add_counter("trace.records", day->records.size());
  }
  {
    const obs::Span span("flow_extraction");
    const trace::MapMatcher matcher(inputs.net, snap_radius);
    trace::ExtractionOptions extract;
    extract.passengers_per_vehicle = spec.passengers_per_vehicle;
    extract.alpha = spec.alpha;
    inputs.flows = trace::extract_flows(matcher, day->records, extract);
  }
  return inputs;
}

graph::NodeId pick_shop(const Inputs& inputs, const util::CliFlags& flags,
                        util::Rng& rng) {
  if (flags.has("shop")) {
    const auto shop = static_cast<graph::NodeId>(flags.get_int("shop", 0));
    inputs.net.check_node(shop);
    return shop;
  }
  const std::string wanted = flags.get_string("shop-class", "city");
  trace::LocationClass cls = trace::LocationClass::kCity;
  if (wanted == "center") {
    cls = trace::LocationClass::kCityCenter;
  } else if (wanted == "city") {
    cls = trace::LocationClass::kCity;
  } else if (wanted == "suburb") {
    cls = trace::LocationClass::kSuburb;
  } else {
    throw std::invalid_argument("unknown --shop-class '" + wanted + "'");
  }
  const obs::Span span("classify");
  const auto classes = trace::classify_intersections(inputs.net, inputs.flows);
  const auto pool = trace::nodes_in_class(classes, cls);
  if (pool.empty()) {
    throw std::runtime_error("no intersection in the requested shop class");
  }
  return pool[rng.next_below(pool.size())];
}

core::PlacementResult run_algorithm(const std::string& name,
                                    const core::PlacementProblem& problem,
                                    std::size_t k, util::Rng& rng) {
  if (name == "alg1") return core::greedy_coverage_placement(problem, k);
  if (name == "alg2") return core::composite_greedy_placement(problem, k);
  if (name == "lazy") return core::lazy_marginal_greedy_placement(problem, k);
  if (name == "local") return core::greedy_with_local_search(problem, k).placement;
  if (name == "maxcustomers") return core::max_customers_placement(problem, k);
  if (name == "maxcardinality") return core::max_cardinality_placement(problem, k);
  if (name == "maxvehicles") return core::max_vehicles_placement(problem, k);
  if (name == "random") return core::random_placement(problem, k, rng);
  throw std::invalid_argument("unknown --algorithm '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--version") == 0) {
        tools::print_version(std::cout, "rap_cli");
        return 0;
      }
    }
    const util::CliFlags flags(argc, argv);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    util::Rng rng(seed ^ 0x5eed);

    // Parallelism is a resource knob, never a results knob: any value here
    // produces bit-identical placements (DESIGN.md §8).
    if (flags.has("threads")) {
      util::set_parallel_config(
          {static_cast<std::size_t>(flags.get_int("threads", 0))});
    }

    const bool quiet = flags.get_bool("quiet", false);
    const bool verbose_timings = flags.get_bool("verbose-timings", false);
    const std::string metrics_out = flags.get_string("metrics-out", "");

    // Telemetry records only when some consumer asked for it; otherwise all
    // instrumentation below stays on its disabled fast path.
    obs::Telemetry telemetry;
    std::optional<obs::TelemetryScope> telemetry_scope;
    if (!metrics_out.empty() || verbose_timings) {
      telemetry_scope.emplace(telemetry);
    }

    // 1. Inputs: load or generate.
    Inputs inputs;
    if (flags.has("network")) {
      const obs::Span span("load_inputs");
      inputs.net = graph::read_network_csv(flags.get_string("network", ""));
      if (!flags.has("flows")) {
        throw std::invalid_argument("--network requires --flows");
      }
      inputs.flows =
          trace::read_flows_csv(inputs.net, flags.get_string("flows", ""));
    } else {
      inputs = generate_city(
          flags.get_string("city", "seattle"), seed,
          static_cast<std::size_t>(flags.get_int("journeys", 100)));
    }
    obs::set_gauge("city.nodes", static_cast<double>(inputs.net.num_nodes()));
    obs::set_gauge("city.edges", static_cast<double>(inputs.net.num_edges()));
    obs::set_gauge("traffic.flows", static_cast<double>(inputs.flows.size()));
    for (const traffic::TrafficFlow& flow : inputs.flows) {
      obs::observe("flow.population", flow.population());
    }
    if (!quiet) {
      std::cout << "city: " << inputs.net.num_nodes() << " intersections, "
                << inputs.net.num_edges() << " directed streets, "
                << inputs.flows.size() << " flows ("
                << util::format_fixed(traffic::total_population(inputs.flows),
                                      0)
                << " potential customers)\n";
    }

    // 2. Driver model + shop.
    const std::string utility_name = flags.get_string("utility", "linear");
    traffic::UtilityKind kind = traffic::UtilityKind::kLinear;
    if (utility_name == "threshold") {
      kind = traffic::UtilityKind::kThreshold;
    } else if (utility_name == "linear") {
      kind = traffic::UtilityKind::kLinear;
    } else if (utility_name == "sqrt") {
      kind = traffic::UtilityKind::kSqrt;
    } else {
      throw std::invalid_argument("unknown --utility '" + utility_name + "'");
    }
    const auto utility =
        traffic::make_utility(kind, flags.get_double("d", 2'500.0));
    const graph::NodeId shop = pick_shop(inputs, flags, rng);
    if (!quiet) {
      std::cout << "shop at intersection " << shop << " ("
                << trace::to_string(trace::classify_intersections(
                       inputs.net, inputs.flows)[shop])
                << " class), utility=" << utility->name()
                << " D=" << util::format_fixed(utility->range(), 0) << " ft\n";
    }

    // 3. Place.
    std::optional<core::PlacementProblem> problem;
    {
      const obs::Span span("model_build");
      problem.emplace(inputs.net, inputs.flows, shop, *utility);
    }
    const auto k = static_cast<std::size_t>(flags.get_int("k", 5));
    const std::string algorithm = flags.get_string("algorithm", "alg2");
    std::optional<core::PlacementResult> result;
    {
      const obs::Span span("placement");
      result = run_algorithm(algorithm, *problem, k, rng);
    }
    if (!quiet) {
      std::cout << algorithm << " placed " << result->nodes.size()
                << " RAPs attracting "
                << util::format_fixed(result->customers, 1)
                << " expected customers/day\n  intersections:";
      for (const graph::NodeId v : result->nodes) std::cout << " " << v;
      std::cout << "\n";
    }

    // 3b. Optional certified optimality gap.
    if (flags.get_bool("optgap", false)) {
      const obs::Span span("certified_bound");
      const exact::Bound bound = exact::certified_upper_bound(*problem, k);
      const double gap = exact::optimality_gap(result->customers, bound);
      obs::set_gauge("exact.upper_bound", bound.value);
      obs::set_gauge("exact.gap", gap);
      if (!quiet) {
        std::cout << "certified upper bound: "
                  << util::format_fixed(bound.value, 1) << " customers/day ("
                  << exact::to_string(bound.kind) << " tier, "
                  << bound.iterations << " iteration(s)"
                  << (bound.optimal ? ", provably optimal" : "")
                  << ")\n  optimality gap: <= "
                  << util::format_fixed(gap * 100.0, 2) << "%\n";
      }
    }

    // 4. Optional outputs.
    if (flags.has("save-network")) {
      graph::write_network_csv(flags.get_string("save-network", ""), inputs.net);
    }
    if (flags.has("save-flows")) {
      trace::write_flows_csv(flags.get_string("save-flows", ""), inputs.flows);
    }
    if (flags.has("geojson")) {
      eval::write_geojson(flags.get_string("geojson", ""), inputs.net,
                          inputs.flows, shop, result->nodes);
      if (!quiet) {
        std::cout << "wrote scenario to " << flags.get_string("geojson", "")
                  << "\n";
      }
    }
    if (verbose_timings) {
      std::cout << obs::format_trace_text(telemetry.trace);
    }
    if (!metrics_out.empty()) {
      obs::write_json(metrics_out, telemetry);
      if (!quiet) std::cout << "wrote telemetry to " << metrics_out << "\n";
    }
    for (const std::string& unknown : flags.unused()) {
      std::cerr << "warning: unused flag --" << unknown << "\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "rap_cli: " << error.what() << "\n";
    return 1;
  }
}
