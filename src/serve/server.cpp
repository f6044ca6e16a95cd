#include "src/serve/server.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "src/obs/events.h"
#include "src/traffic/flow.h"
#include "src/util/thread_pool.h"

namespace rap::serve {
namespace {

// One virtual-clock tick per request: under a VirtualClockGuard every
// request takes exactly this long, which pins latencies, percentiles and
// uptime to the request sequence alone.
constexpr std::uint64_t kVirtualTickNs = 1'000'000;

// Deadlines at or beyond this many milliseconds (~11.5 days) are treated as
// "no deadline": far enough out to never fire, small enough that the
// nanosecond arithmetic below cannot overflow std::int64_t.
constexpr double kMaxDeadlineMs = 1e9;

/// The request's verb for latency bucketing: a known op name, else "other"
/// (unknown ops, missing/ill-typed op fields). Returns a static literal so
/// callers can hold it across the dispatch.
const char* known_op_label(const JsonValue::Object& request) {
  const JsonValue* op = find_field(request, "op");
  if (op == nullptr || !op->is_string()) return "other";
  const std::string& name = op->as_string();
  for (const char* known : {"load", "place", "place_batch", "evaluate",
                            "delta", "stats", "shutdown"}) {
    if (name == known) return known;
  }
  return "other";
}

std::string hex_key(std::uint64_t key) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(key));
  return buffer;
}

JsonValue ok_base() {
  JsonValue::Object object;
  object.emplace("schema", kServeSchema);
  object.emplace("ok", true);
  return JsonValue(std::move(object));
}

JsonValue error_response(const JsonValue* id, const std::string& code,
                         const std::string& message) {
  JsonValue::Object error;
  error.emplace("code", code);
  error.emplace("message", message);
  JsonValue::Object object;
  object.emplace("schema", kServeSchema);
  object.emplace("ok", false);
  object.emplace("error", JsonValue(std::move(error)));
  if (id != nullptr) object.emplace("id", *id);
  return JsonValue(std::move(object));
}

/// The one checked double -> integer conversion: every numeric field that
/// ends up in an integer goes through here BEFORE any cast, because casting
/// an out-of-range double to an integer type is undefined behaviour — a
/// request carrying k=1e300 or seed=-2 must become a bad_request response,
/// not UB. `min`/`max` are inclusive and must be exactly representable as
/// doubles (everything up to 2^53). NaN fails the >= comparison.
std::uint64_t parse_integer(double raw, const char* what, double min,
                            double max) {
  if (!(raw >= min) || !(raw <= max) || raw != std::floor(raw)) {
    char bounds[64];
    std::snprintf(bounds, sizeof bounds, " must be an integer in [%.0f, %.0f]",
                  min, max);
    throw RequestError("bad_request", std::string(what) + bounds);
  }
  return static_cast<std::uint64_t>(raw);
}

/// parse_integer over a required numeric field.
std::uint64_t require_integer(const JsonValue::Object& request,
                              const char* field, double min, double max) {
  return parse_integer(require_number(request, field), field, min, max);
}

/// parse_integer over an optional numeric field with a default.
std::uint64_t get_integer(const JsonValue::Object& request, const char* field,
                          std::uint64_t fallback, double min, double max) {
  return parse_integer(
      get_number(request, field, static_cast<double>(fallback)), field, min,
      max);
}

/// Per-request deadline from the optional "deadline_ms" field. Non-positive
/// and NaN mean no deadline; huge values clamp to no-deadline instead of
/// overflowing into the past (a client asking for ~forever should wait, not
/// get an instant deadline_exceeded).
Deadline parse_deadline(const JsonValue::Object& request) {
  const double ms = get_number(request, "deadline_ms", 0.0);
  if (!(ms > 0.0) || ms >= kMaxDeadlineMs) return {};
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0));
}

std::size_t parse_budget(const JsonValue::Object& request) {
  return static_cast<std::size_t>(require_integer(request, "k", 1.0, 1e12));
}

graph::NodeId parse_node(const JsonValue& value, const char* what) {
  if (!value.is_number()) {
    throw RequestError("bad_request", std::string(what) + " must be a number");
  }
  // Upper bound: the largest valid NodeId (kInvalidNode - 1).
  return static_cast<graph::NodeId>(
      parse_integer(value.as_number(), what, 0.0, 4294967294.0));
}

JsonValue placement_json(const WarmStartResult& result) {
  JsonValue::Object object;
  JsonValue::Array nodes;
  nodes.reserve(result.placement.nodes.size());
  for (const graph::NodeId node : result.placement.nodes) {
    nodes.emplace_back(static_cast<double>(node));
  }
  object.emplace("nodes", JsonValue(std::move(nodes)));
  object.emplace("customers", result.placement.customers);
  object.emplace("warm_reused", result.reused);
  object.emplace("warm_fell_back", result.fell_back);
  object.emplace("gain_evaluations",
                 static_cast<double>(result.gain_evaluations));
  return JsonValue(std::move(object));
}

DeltaOp parse_delta_op(const JsonValue& value, const graph::RoadNetwork& net) {
  if (!value.is_object()) {
    throw RequestError("bad_request", "delta ops must be objects");
  }
  const JsonValue::Object& object = value.as_object();
  const std::string& kind = require_string(object, "kind");
  DeltaOp op;
  if (kind == "add_flow") {
    op.kind = DeltaOp::Kind::kAddFlow;
    const JsonValue* origin = find_field(object, "origin");
    const JsonValue* destination = find_field(object, "destination");
    if (origin == nullptr || destination == nullptr) {
      throw RequestError("bad_request", "add_flow needs origin + destination");
    }
    const double vehicles = get_number(object, "vehicles", 1.0);
    const double passengers = get_number(object, "passengers_per_vehicle", 1.0);
    const double alpha = get_number(object, "alpha", 0.001);
    try {
      op.flow = traffic::make_shortest_path_flow(
          net, parse_node(*origin, "origin"),
          parse_node(*destination, "destination"), vehicles, passengers, alpha);
    } catch (const RequestError&) {
      throw;
    } catch (const std::exception& error) {
      throw RequestError("bad_request", error.what());
    }
  } else if (kind == "remove_flow" || kind == "scale_flow") {
    op.kind = kind == "remove_flow" ? DeltaOp::Kind::kRemoveFlow
                                    : DeltaOp::Kind::kScaleFlow;
    op.index = static_cast<std::size_t>(
        require_integer(object, "index", 0.0, 9e15));
    if (op.kind == DeltaOp::Kind::kScaleFlow) {
      op.factor = require_number(object, "factor");
    }
  } else {
    throw RequestError("bad_request", "unknown delta kind '" + kind +
                                          "' (add_flow|remove_flow|scale_flow)");
  }
  return op;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes),
      start_ns_(obs::EventClock::now_ns()),
      pool_baseline_(util::pool_counters()) {
  cache_.set_event_log(options_.log);
  if (!options_.store_dir.empty()) {
    store_ = std::make_unique<ScenarioStore>(options_.store_dir);
    // Rehydration replaces the builds a warm cache would have absorbed: no
    // generation, no matching, no Dijkstras — just mmap + incidence.
    rehydrated_at_start_ = store_->rehydrate_into(cache_);
    if (options_.log != nullptr && rehydrated_at_start_ > 0) {
      options_.log->log(
          obs::LogLevel::kInfo, "store.rehydrate",
          {obs::log_num("scenarios",
                        static_cast<double>(rehydrated_at_start_))});
    }
  }
}

void Server::record_verb_latency(const char* verb, double elapsed_ms) {
  const auto verb_it = verb_latency_.find(verb);
  obs::Histogram& verb_hist =
      verb_it != verb_latency_.end()
          ? verb_it->second
          : verb_latency_.emplace(verb, obs::Histogram(std::vector<double>{}))
                .first->second;
  verb_hist.observe(elapsed_ms);
}

Session& Server::session_or_throw(ClientLock& client) {
  if (client.session() == nullptr) {
    throw RequestError("no_session", "no scenario loaded; send a load request");
  }
  return *client.session();
}

JsonValue Server::handle_load(ClientLock& client,
                              const JsonValue::Object& request) {
  ScenarioSpec spec;
  spec.city = get_string(request, "city", "");
  spec.seed = get_integer(request, "seed", 1, 0.0, 9e15);
  spec.journeys = static_cast<std::size_t>(
      get_integer(request, "journeys", 100, 0.0, 1e9));
  spec.network_path = get_string(request, "network_path", "");
  spec.flows_path = get_string(request, "flows_path", "");
  spec.network_csv = get_string(request, "network_csv", "");
  spec.flows_csv = get_string(request, "flows_csv", "");
  spec.utility = get_string(request, "utility", "linear");
  spec.range = get_number(request, "d", 2'500.0);
  if (const JsonValue* shop = find_field(request, "shop"); shop != nullptr) {
    spec.shop = parse_node(*shop, "shop");
  }
  spec.shop_class = get_string(request, "shop_class", "city");

  std::shared_ptr<const ServeScenario> scenario;
  const char* source = "built";
  try {
    const std::uint64_t key = scenario_key(spec);
    {
      const util::MutexLock lock(cache_mutex_);
      scenario = cache_.lookup(key);
    }
    if (scenario != nullptr) {
      source = "cache";
    } else if (store_ != nullptr) {
      // Disk beats rebuild: one mmap + incidence instead of generation,
      // matching and Dijkstras. load() is internally synchronized.
      scenario = store_->load(key);
      if (scenario != nullptr) {
        source = "store";
        const util::MutexLock lock(cache_mutex_);
        cache_.insert(scenario);
      }
    }
    if (scenario == nullptr) {
      // Build outside every lock: concurrent clients racing on the same key
      // both build, and the second insert refreshes the first — benign,
      // content-keyed results are interchangeable.
      scenario = build_scenario(spec, key);
      {
        const util::MutexLock lock(stats_mutex_);
        ++scenario_builds_;
      }
      {
        const util::MutexLock lock(cache_mutex_);
        cache_.insert(scenario);
      }
      if (store_ != nullptr) (void)store_->put(*scenario);
    }
  } catch (const RequestError&) {
    throw;
  } catch (const std::exception& error) {
    throw RequestError("bad_scenario", error.what());
  }
  client.set_session(std::make_unique<Session>(scenario));

  JsonValue response = ok_base();
  JsonValue::Object& object = response.as_object();
  object.emplace("key", hex_key(scenario->key));
  object.emplace("cached", source == std::string_view("cache"));
  object.emplace("source", source);
  object.emplace("engine", scenario->detour_engine);
  object.emplace("summary", scenario->summary);
  object.emplace("nodes", static_cast<double>(scenario->net.num_nodes()));
  object.emplace("flows", static_cast<double>(scenario->flows.size()));
  object.emplace("shop", static_cast<double>(scenario->shop));
  return response;
}

JsonValue Server::handle_place(ClientLock& client,
                               const JsonValue::Object& request) {
  Session& session = session_or_throw(client);
  const std::size_t k = parse_budget(request);
  const WarmStartResult result = session.place(k, parse_deadline(request));
  if (result.fell_back && options_.log != nullptr) {
    options_.log->log(obs::LogLevel::kWarn, "warm_start.fallback",
                      {obs::log_num("k", static_cast<double>(k))});
  }
  JsonValue response = ok_base();
  JsonValue::Object& object = response.as_object();
  object.emplace("result", placement_json(result));
  return response;
}

JsonValue Server::handle_place_batch(ClientLock& client,
                                     const JsonValue::Object& request) {
  Session& session = session_or_throw(client);
  const JsonValue* ks = find_field(request, "ks");
  if (ks == nullptr || !ks->is_array() || ks->as_array().empty()) {
    throw RequestError("bad_request", "ks must be a non-empty array");
  }
  std::vector<std::size_t> budgets;
  budgets.reserve(ks->as_array().size());
  for (const JsonValue& k : ks->as_array()) {
    if (!k.is_number()) {
      throw RequestError("bad_request", "ks entries must be positive integers");
    }
    budgets.push_back(static_cast<std::size_t>(
        parse_integer(k.as_number(), "ks entries", 1.0, 1e12)));
  }
  const Deadline deadline = parse_deadline(request);
  obs::observe("serve.batch.size", static_cast<double>(budgets.size()));

  // Warm the session once so the concurrent read-only placements all start
  // from exact round-0 gains instead of each running a cold full scan.
  if (!session.warm_valid()) (void)session.place(budgets.front(), deadline);

  // One private telemetry sink per chunk, merged in chunk order after the
  // join — workers never share a sink (src/obs/telemetry.h).
  std::vector<WarmStartResult> results(budgets.size());
  std::vector<obs::Telemetry> chunk_telemetry(budgets.size());
  std::exception_ptr first_error;
  util::Mutex error_mutex;
  util::parallel_for(
      0, budgets.size(), 1,
      [&](const util::ChunkRange& chunk) {
        obs::TelemetryScope scope(chunk_telemetry[chunk.index]);
        for (std::size_t i = chunk.first; i < chunk.last; ++i) {
          try {
            results[i] = session.place_const(budgets[i], deadline);
          } catch (...) {
            const util::MutexLock lock(error_mutex);
            if (first_error == nullptr) first_error = std::current_exception();
          }
        }
      },
      options_.threads);
  if (first_error != nullptr) std::rethrow_exception(first_error);
  // Merge into this request's ambient sink (installed by handle_line), NOT
  // the server's telemetry_ — concurrent requests each own their sink.
  if (obs::Telemetry* ambient = obs::ambient(); ambient != nullptr) {
    for (const obs::Telemetry& telemetry : chunk_telemetry) {
      ambient->merge(telemetry);
    }
  }

  JsonValue response = ok_base();
  JsonValue::Array out;
  out.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    JsonValue item = placement_json(results[i]);
    item.as_object().emplace("k", static_cast<double>(budgets[i]));
    out.push_back(std::move(item));
  }
  response.as_object().emplace("results", JsonValue(std::move(out)));
  return response;
}

JsonValue Server::handle_evaluate(ClientLock& client,
                                  const JsonValue::Object& request) {
  Session& session = session_or_throw(client);
  const JsonValue* nodes = find_field(request, "nodes");
  if (nodes == nullptr || !nodes->is_array()) {
    throw RequestError("bad_request", "nodes must be an array");
  }
  std::vector<graph::NodeId> placement;
  placement.reserve(nodes->as_array().size());
  for (const JsonValue& node : nodes->as_array()) {
    placement.push_back(parse_node(node, "nodes entry"));
  }
  JsonValue response = ok_base();
  response.as_object().emplace("customers", session.evaluate(placement));
  return response;
}

JsonValue Server::handle_delta(ClientLock& client,
                               const JsonValue::Object& request) {
  Session& session = session_or_throw(client);
  const JsonValue* ops = find_field(request, "ops");
  if (ops == nullptr || !ops->is_array() || ops->as_array().empty()) {
    throw RequestError("bad_request", "ops must be a non-empty array");
  }
  std::size_t applied = 0;
  for (const JsonValue& value : ops->as_array()) {
    const DeltaOp op = parse_delta_op(value, session.scenario().net);
    try {
      session.apply_delta(op);
    } catch (const std::exception& error) {
      // Earlier ops in the request stay applied; the error says how far the
      // batch got so the client can resynchronize.
      throw RequestError("bad_request",
                         "op " + std::to_string(applied) + ": " + error.what());
    }
    ++applied;
  }
  JsonValue response = ok_base();
  JsonValue::Object& object = response.as_object();
  object.emplace("applied", static_cast<double>(applied));
  object.emplace("flows", static_cast<double>(session.flows().size()));
  return response;
}

JsonValue Server::handle_stats(ClientLock& client, const JsonValue::Object&) {
  JsonValue response = ok_base();
  JsonValue::Object& object = response.as_object();

  ScenarioCache::Stats cache;
  std::size_t cache_max_bytes = 0;
  {
    const util::MutexLock lock(cache_mutex_);
    cache = cache_.stats();
    cache_max_bytes = cache_.max_bytes();
  }
  JsonValue::Object cache_json;
  cache_json.emplace("hits", static_cast<double>(cache.hits));
  cache_json.emplace("misses", static_cast<double>(cache.misses));
  const std::uint64_t lookups = cache.hits + cache.misses;
  cache_json.emplace("hit_rate",
                     lookups == 0 ? 0.0
                                  : static_cast<double>(cache.hits) /
                                        static_cast<double>(lookups));
  cache_json.emplace("evictions", static_cast<double>(cache.evictions));
  cache_json.emplace("bytes", static_cast<double>(cache.bytes));
  cache_json.emplace("entries", static_cast<double>(cache.entries));
  cache_json.emplace("max_bytes", static_cast<double>(cache_max_bytes));
  object.emplace("cache", JsonValue(std::move(cache_json)));

  JsonValue::Object store_json;
  store_json.emplace("configured", store_ != nullptr);
  if (store_ != nullptr) {
    const ScenarioStore::Stats store = store_->stats();
    store_json.emplace("persisted", static_cast<double>(store.persisted));
    store_json.emplace("skipped", static_cast<double>(store.skipped));
    store_json.emplace("rehydrated", static_cast<double>(store.rehydrated));
    store_json.emplace("corrupt", static_cast<double>(store.corrupt));
    store_json.emplace("io_errors", static_cast<double>(store.io_errors));
    store_json.emplace("segments", static_cast<double>(store_->segment_count()));
    store_json.emplace("rehydrated_at_start",
                       static_cast<double>(rehydrated_at_start_));
  }
  object.emplace("store", JsonValue(std::move(store_json)));

  // The requesting client's session — sessions are per-client now.
  JsonValue::Object session_json;
  Session* session = client.session();
  session_json.emplace("present", session != nullptr);
  if (session != nullptr) {
    const Session::Stats& stats = session->stats();
    session_json.emplace("key", hex_key(session->scenario().key));
    session_json.emplace("summary", session->scenario().summary);
    session_json.emplace("flows", static_cast<double>(session->flows().size()));
    session_json.emplace("places", static_cast<double>(stats.places));
    session_json.emplace("deltas", static_cast<double>(stats.deltas));
    session_json.emplace("warm_attempts",
                         static_cast<double>(stats.warm_attempts));
    session_json.emplace("warm_reused",
                         static_cast<double>(stats.warm_reused));
    session_json.emplace("warm_fallbacks",
                         static_cast<double>(stats.warm_fallbacks));
  }
  object.emplace("session", JsonValue(std::move(session_json)));

  JsonValue::Object server_json;
  {
    const util::MutexLock lock(stats_mutex_);
    server_json.emplace("requests", static_cast<double>(requests_));
    server_json.emplace("errors", static_cast<double>(errors_));
    server_json.emplace("scenario_builds",
                        static_cast<double>(scenario_builds_));
  }
  server_json.emplace("clients", static_cast<double>(client_count()));
  // Uptime in the EventClock domain: wall-clock normally, exactly one tick
  // per completed request under a VirtualClockGuard.
  server_json.emplace(
      "uptime_ms",
      static_cast<double>(obs::EventClock::now_ns() - start_ns_) / 1e6);
  object.emplace("server", JsonValue(std::move(server_json)));

  // Per-verb latency distributions; the sorted member map fixes field order.
  JsonValue::Object verbs_json;
  {
    const util::MutexLock lock(stats_mutex_);
    for (const auto& [verb, hist] : verb_latency_) {
      JsonValue::Object verb_json;
      verb_json.emplace("count", static_cast<double>(hist.count()));
      verb_json.emplace("mean_ms", hist.stats().mean());
      verb_json.emplace("p50_ms", hist.percentile(50.0));
      verb_json.emplace("p95_ms", hist.percentile(95.0));
      verb_json.emplace("p99_ms", hist.percentile(99.0));
      verbs_json.emplace(verb, JsonValue(std::move(verb_json)));
    }
  }
  object.emplace("verbs", JsonValue(std::move(verbs_json)));

  // Thread-pool utilization since this server was constructed. The counts
  // are deterministic for a fixed request sequence (static chunking);
  // `workers` describes the machine's shared pool.
  const util::PoolCounters pool = util::pool_counters();
  JsonValue::Object pool_json;
  pool_json.emplace("regions",
                    static_cast<double>(pool.regions - pool_baseline_.regions));
  pool_json.emplace("chunks",
                    static_cast<double>(pool.chunks - pool_baseline_.chunks));
  pool_json.emplace(
      "workers", static_cast<double>(util::ThreadPool::shared().worker_count()));
  pool_json.emplace("configured_threads",
                    static_cast<double>(options_.threads));
  object.emplace("pool", JsonValue(std::move(pool_json)));

  JsonValue::Object clock_json;
  clock_json.emplace("virtual", obs::EventClock::virtual_enabled());
  object.emplace("clock", JsonValue(std::move(clock_json)));

  JsonValue::Object recorder_json;
  const obs::FlightRecorder* recorder = obs::FlightRecorder::active();
  recorder_json.emplace("installed", recorder != nullptr);
  if (recorder != nullptr) {
    recorder_json.emplace("threads",
                          static_cast<double>(recorder->thread_count()));
    recorder_json.emplace("events",
                          static_cast<double>(recorder->total_events()));
    recorder_json.emplace("dropped",
                          static_cast<double>(recorder->total_dropped()));
    recorder_json.emplace(
        "ring_capacity",
        static_cast<double>(recorder->options().ring_capacity));
  }
  object.emplace("recorder", JsonValue(std::move(recorder_json)));
  return response;
}

JsonValue Server::dispatch(ClientLock& client,
                           const JsonValue::Object& request) {
  const std::string& op = require_string(request, "op");
  if (op == "load") return handle_load(client, request);
  if (op == "place") return handle_place(client, request);
  if (op == "place_batch") return handle_place_batch(client, request);
  if (op == "evaluate") return handle_evaluate(client, request);
  if (op == "delta") return handle_delta(client, request);
  if (op == "stats") return handle_stats(client, request);
  if (op == "shutdown") {
    shutdown_.store(true, std::memory_order_relaxed);
    return ok_base();
  }
  throw RequestError(
      "unknown_op",
      "unknown op '" + op +
          "' (load|place|place_batch|evaluate|delta|stats|shutdown)");
}

std::string Server::handle_line(const std::string& line) {
  return handle_line(kStdioClient, line);
}

std::string Server::handle_line(ClientId client_id, const std::string& line) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  JsonValue response;
  {
    // Only this client's slot is held across the request: same-client
    // requests serialize in arrival order, distinct clients run
    // concurrently.
    ClientLock client = scheduler_.lock_client(client_id);
    // Latency on the EventClock: wall-clock normally; under a
    // VirtualClockGuard the advance below makes every request exactly one
    // tick long, so histograms and stats snapshots depend only on the
    // request sequence.
    const std::uint64_t start_ns = obs::EventClock::now_ns();
    // Request-private sink, merged into the server's under stats_mutex_ at
    // the end — concurrent requests never share ambient telemetry.
    obs::Telemetry request_telemetry;
    {
      const obs::TelemetryScope scope(request_telemetry);
      obs::set_gauge(
          "serve.queue.depth",
          static_cast<double>(pending_.load(std::memory_order_relaxed)));
      {
        const util::MutexLock lock(stats_mutex_);
        ++requests_;
      }
      obs::add_counter("serve.requests");

      const char* op_label = "other";
      std::string error_code;
      const JsonValue* id = nullptr;
      JsonValue id_storage;
      try {
        if (!client) {
          throw RequestError("no_session", "client is closed");
        }
        JsonValue request = parse_json(line);
        if (!request.is_object()) {
          throw RequestError("bad_request", "request must be a JSON object");
        }
        if (const JsonValue* found = find_field(request.as_object(), "id");
            found != nullptr) {
          id_storage = *found;
          id = &id_storage;
        }
        op_label = known_op_label(request.as_object());
        obs::record_instant("serve.request", "op", op_label);
        if (options_.log != nullptr) {
          options_.log->log(obs::LogLevel::kDebug, "request.start",
                            {obs::log_str("op", op_label)});
        }
        response = dispatch(client, request.as_object());
        if (id != nullptr) response.as_object().emplace("id", *id);
      } catch (const RequestError& error) {
        error_code = error.code();
        response = error_response(id, error.code(), error.what());
      } catch (const DeadlineExceeded& error) {
        error_code = "deadline_exceeded";
        response = error_response(id, error_code, error.what());
      } catch (const std::invalid_argument& error) {
        error_code = "bad_request";
        response = error_response(id, error_code, error.what());
      } catch (const std::out_of_range& error) {
        error_code = "bad_request";
        response = error_response(id, error_code, error.what());
      } catch (const std::exception& error) {
        error_code = "internal";
        response = error_response(id, error_code, error.what());
      }
      const bool ok = error_code.empty();
      if (!ok) {
        {
          const util::MutexLock lock(stats_mutex_);
          ++errors_;
        }
        obs::add_counter("serve.errors");
        if (options_.log != nullptr) {
          options_.log->log(obs::LogLevel::kError, "request.error",
                            {obs::log_str("op", op_label),
                             obs::log_str("code", error_code)});
        }
      }

      obs::EventClock::advance_virtual(kVirtualTickNs);
      const double elapsed_ms =
          static_cast<double>(obs::EventClock::now_ns() - start_ns) / 1e6;
      obs::observe("serve.request_ms", elapsed_ms);
      {
        const util::MutexLock lock(stats_mutex_);
        record_verb_latency(op_label, elapsed_ms);
      }
      if (options_.log != nullptr) {
        options_.log->log(obs::LogLevel::kInfo, "request.finish",
                          {obs::log_str("op", op_label),
                           obs::log_num("ms", elapsed_ms),
                           obs::log_bool("ok", ok)});
      }
    }
    {
      const util::MutexLock lock(stats_mutex_);
      telemetry_.merge(request_telemetry);
    }
  }
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return to_json(response);
}

int Server::run(std::istream& in, std::ostream& out) {
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    out << handle_line(line) << '\n' << std::flush;
  }
  return 0;
}

}  // namespace rap::serve
