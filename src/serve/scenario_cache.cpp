#include "src/serve/scenario_cache.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/citygen/grid_city.h"
#include "src/citygen/partial_grid_city.h"
#include "src/citygen/radial_city.h"
#include "src/graph/io.h"
#include "src/obs/events.h"
#include "src/obs/telemetry.h"
#include "src/trace/classify.h"
#include "src/trace/flow_extractor.h"
#include "src/trace/generator.h"
#include "src/trace/io.h"
#include "src/traffic/oracle_detour.h"
#include "src/util/rng.h"

namespace rap::serve {
namespace {

std::string cache_key_hex(std::uint64_t key) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(key));
  return buffer;
}

std::string read_file_or_throw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("serve: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

traffic::UtilityKind utility_kind_or_throw(const std::string& name) {
  if (name == "threshold") return traffic::UtilityKind::kThreshold;
  if (name == "linear") return traffic::UtilityKind::kLinear;
  if (name == "sqrt") return traffic::UtilityKind::kSqrt;
  throw std::invalid_argument("unknown utility '" + name +
                              "' (threshold|linear|sqrt)");
}

trace::LocationClass shop_class_or_throw(const std::string& name) {
  if (name == "center") return trace::LocationClass::kCityCenter;
  if (name == "city") return trace::LocationClass::kCity;
  if (name == "suburb") return trace::LocationClass::kSuburb;
  throw std::invalid_argument("unknown shop class '" + name +
                              "' (center|city|suburb)");
}

/// Full-precision double rendering for the canonical key string.
std::string key_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The canonical parameter prefix hashed into every key. File/inline
/// content is folded in separately by scenario_key().
std::string key_prefix(const ScenarioSpec& spec) {
  std::string prefix = "rap.serve.scenario.v1|utility=";
  prefix += spec.utility;
  prefix += "|d=";
  prefix += key_double(spec.range);
  prefix += "|shop=";
  if (spec.shop != graph::kInvalidNode) {
    prefix += std::to_string(spec.shop);
  } else {
    prefix += "class:" + spec.shop_class;
  }
  prefix += "|seed=" + std::to_string(spec.seed);
  return prefix;
}

/// City generation mirrors rap_cli's presets exactly, so the CLI and the
/// server agree on what "seattle seed 1" means.
void generate_city_inputs(const ScenarioSpec& spec, ServeScenario& out) {
  util::Rng rng(spec.seed);
  trace::TraceGenSpec gen;
  gen.num_journeys = spec.journeys;
  gen.alpha = 0.001;
  double snap_radius = 0.0;
  if (spec.city == "dublin") {
    citygen::RadialSpec city;
    city.rings = 12;
    city.nodes_on_first_ring = 8;
    city.nodes_per_ring_step = 5;
    city.ring_spacing = 3'300.0;
    out.net = citygen::build_radial_city(city, rng);
    gen.mean_runs_per_journey = 40.0;
    gen.sample_spacing = 900.0;
    gen.gps_noise = 150.0;
    gen.passengers_per_vehicle = 100.0;
    snap_radius = 450.0;
  } else if (spec.city == "seattle") {
    citygen::PartialGridSpec city;
    city.grid = {21, 21, 500.0, {0.0, 0.0}};
    const citygen::PartialGridCity built(city, rng);
    out.net = built.network();
    gen.mean_runs_per_journey = 30.0;
    gen.sample_spacing = 350.0;
    gen.gps_noise = 60.0;
    gen.passengers_per_vehicle = 200.0;
    snap_radius = 230.0;
  } else {
    out.net = citygen::GridCity({15, 15, 500.0, {0.0, 0.0}}).network();
    gen.mean_runs_per_journey = 30.0;
    gen.sample_spacing = 350.0;
    gen.gps_noise = 60.0;
    gen.passengers_per_vehicle = 200.0;
    snap_radius = 230.0;
  }
  const trace::SyntheticTrace day = trace::generate_trace(out.net, gen, rng);
  const trace::MapMatcher matcher(out.net, snap_radius);
  trace::ExtractionOptions extract;
  extract.passengers_per_vehicle = gen.passengers_per_vehicle;
  extract.alpha = gen.alpha;
  out.flows = trace::extract_flows(matcher, day.records, extract);
}

graph::NodeId pick_shop(const ScenarioSpec& spec, const graph::RoadNetwork& net,
                        const std::vector<traffic::TrafficFlow>& flows) {
  if (spec.shop != graph::kInvalidNode) {
    net.check_node(spec.shop);
    return spec.shop;
  }
  const trace::LocationClass cls = shop_class_or_throw(spec.shop_class);
  const auto classes = trace::classify_intersections(net, flows);
  const auto pool = trace::nodes_in_class(classes, cls);
  if (pool.empty()) {
    throw std::runtime_error("no intersection in shop class '" +
                             spec.shop_class + "'");
  }
  // Seed-deterministic pick matching rap_cli's shop selection stream.
  util::Rng rng(spec.seed ^ 0x5eed);
  return pool[rng.next_below(pool.size())];
}

/// Approximate resident footprint for LRU accounting: network CSR, flow
/// paths, the two shop shortest-path trees, and the incidence index (one
/// entry per (flow, path node) pair). Order-of-magnitude is all eviction
/// needs.
std::size_t estimate_bytes(const ServeScenario& scenario) {
  std::size_t bytes = sizeof(ServeScenario);
  bytes += scenario.net.num_nodes() * 48;
  bytes += scenario.net.num_edges() * 24;
  std::size_t path_nodes = 0;
  for (const traffic::TrafficFlow& flow : scenario.flows) {
    path_nodes += flow.path.size();
    bytes += sizeof(traffic::TrafficFlow);
  }
  bytes += path_nodes * sizeof(graph::NodeId);  // the paths themselves
  bytes += scenario.net.num_nodes() * 2 * 16;   // to-shop + from-shop trees
  bytes += path_nodes * 2 * 16;                 // incidence index, both axes
  return bytes;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void validate_spec(const ScenarioSpec& spec) {
  const int sources = static_cast<int>(!spec.city.empty()) +
                      static_cast<int>(!spec.network_path.empty()) +
                      static_cast<int>(!spec.network_csv.empty());
  if (sources != 1) {
    throw std::invalid_argument(
        "scenario spec needs exactly one input source: city, network_path, or "
        "network_csv");
  }
  if (!spec.city.empty() && spec.city != "dublin" && spec.city != "seattle" &&
      spec.city != "grid") {
    throw std::invalid_argument("unknown city '" + spec.city +
                                "' (dublin|seattle|grid)");
  }
  if (!spec.network_path.empty() && spec.flows_path.empty()) {
    throw std::invalid_argument("network_path requires flows_path");
  }
  if (!spec.network_csv.empty() && spec.flows_csv.empty()) {
    throw std::invalid_argument("network_csv requires flows_csv");
  }
  if (!(spec.range > 0.0)) {
    throw std::invalid_argument("utility range d must be > 0");
  }
  utility_kind_or_throw(spec.utility);
  if (spec.shop == graph::kInvalidNode) shop_class_or_throw(spec.shop_class);
}

std::uint64_t scenario_key(const ScenarioSpec& spec) {
  validate_spec(spec);
  std::uint64_t key = fnv1a64(key_prefix(spec));
  if (!spec.city.empty()) {
    key = fnv1a64("|city=" + spec.city +
                      "|journeys=" + std::to_string(spec.journeys),
                  key);
  } else if (!spec.network_path.empty()) {
    key = fnv1a64("|net-file:", key);
    key = fnv1a64(read_file_or_throw(spec.network_path), key);
    key = fnv1a64("|flows-file:", key);
    key = fnv1a64(read_file_or_throw(spec.flows_path), key);
  } else {
    key = fnv1a64("|net-inline:", key);
    key = fnv1a64(spec.network_csv, key);
    key = fnv1a64("|flows-inline:", key);
    key = fnv1a64(spec.flows_csv, key);
  }
  return key;
}

std::shared_ptr<const ServeScenario> build_scenario(
    const ScenarioSpec& spec, std::uint64_t key) {
  validate_spec(spec);
  const obs::Span span("serve.scenario_build");
  auto scenario = std::make_shared<ServeScenario>();
  scenario->key = key;
  std::string source;
  if (!spec.city.empty()) {
    generate_city_inputs(spec, *scenario);
    source = spec.city + " seed " + std::to_string(spec.seed);
  } else if (!spec.network_path.empty()) {
    scenario->net = graph::network_from_csv(
        read_file_or_throw(spec.network_path), spec.network_path);
    scenario->flows = trace::flows_from_csv(
        scenario->net, read_file_or_throw(spec.flows_path), spec.flows_path);
    source = spec.network_path;
  } else {
    scenario->net = graph::network_from_csv(spec.network_csv, "<network_csv>");
    scenario->flows =
        trace::flows_from_csv(scenario->net, spec.flows_csv, "<flows_csv>");
    source = "inline csv";
  }
  scenario->utility =
      traffic::make_utility(utility_kind_or_throw(spec.utility), spec.range);
  scenario->shop = pick_shop(spec, scenario->net, scenario->flows);
  traffic::DetourEngine engine = traffic::make_detour_engine(
      scenario->net, scenario->shop, scenario->flows);
  scenario->detours = std::move(engine.detours);
  scenario->detour_engine = std::move(engine.engine);
  scenario->problem = std::make_unique<core::PlacementProblem>(
      scenario->net, scenario->flows, scenario->shop, *scenario->utility,
      std::make_unique<SharedDetours>(scenario->detours));
  scenario->bytes = estimate_bytes(*scenario);
  scenario->summary = source + ": " +
                      std::to_string(scenario->net.num_nodes()) +
                      " intersections, " + std::to_string(scenario->flows.size()) +
                      " flows, utility " + scenario->utility->name();
  // Scenarios labelled "dijkstra" keep the historical summary
  // byte-identical; metro-sized ones announce their label.
  if (scenario->detour_engine != "dijkstra") {
    scenario->summary += ", detours " + scenario->detour_engine;
  }
  return scenario;
}

std::shared_ptr<const ServeScenario> ScenarioCache::lookup(std::uint64_t key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    obs::add_counter("serve.cache.misses");
    obs::record_instant("serve.cache.miss", "key", cache_key_hex(key));
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  obs::add_counter("serve.cache.hits");
  obs::record_instant("serve.cache.hit", "key", cache_key_hex(key));
  return it->second->scenario;
}

void ScenarioCache::insert(std::shared_ptr<const ServeScenario> scenario) {
  if (max_bytes_ == 0 || scenario == nullptr) return;
  const std::uint64_t key = scenario->key;
  const std::size_t inserted_bytes = scenario->bytes;
  if (const auto it = index_.find(key); it != index_.end()) {
    stats_.bytes -= it->second->scenario->bytes;
    stats_.bytes += scenario->bytes;
    it->second->scenario = std::move(scenario);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    stats_.bytes += scenario->bytes;
    lru_.push_front(Entry{key, std::move(scenario)});
    index_.emplace(key, lru_.begin());
  }
  obs::record_instant("serve.cache.insert", "key", cache_key_hex(key));
  if (log_ != nullptr) {
    log_->log(obs::LogLevel::kInfo, "cache.insert",
              {obs::log_str("key", cache_key_hex(key)),
               obs::log_num("bytes", static_cast<double>(inserted_bytes))});
  }
  // Evict from the cold end; the entry just touched is at the front and is
  // never evicted by its own insertion.
  while (stats_.bytes > max_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.scenario->bytes;
    const std::string victim_key = cache_key_hex(victim.key);
    const std::size_t victim_bytes = victim.scenario->bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    obs::add_counter("serve.cache.evictions");
    obs::record_instant("serve.cache.evict", "key", victim_key);
    if (log_ != nullptr) {
      log_->log(obs::LogLevel::kInfo, "cache.evict",
                {obs::log_str("key", victim_key),
                 obs::log_num("bytes", static_cast<double>(victim_bytes))});
    }
  }
  stats_.entries = lru_.size();
  obs::set_gauge("serve.cache.bytes", static_cast<double>(stats_.bytes));
  obs::set_gauge("serve.cache.entries", static_cast<double>(stats_.entries));
}

}  // namespace rap::serve
