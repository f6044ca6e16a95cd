// The serve_mix workload: a rap_serve --listen --store-dir child process
// driven open loop over at most nproc unix-socket connections.
//
// Set-up populates the scenario store (untimed), then times restarts that
// rehydrate it. The measured phase starts seeded user sessions at a fixed
// rate — each a load over a scenario set larger than --cache-mb, reads
// (place, place_batch, evaluate) and writes (delta, then place) — and times
// every session from the moment it was due, so a stall also charges the
// sessions queued behind it. Pipelining the requests that need no earlier
// reply keeps the session time mostly server work rather than wake-ups.
// Traced runs add a traced phase and a rate ladder.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/inputs.h"
#include "src/check/oracle.h"
#include "src/core/lazy_greedy.h"
#include "src/serve/protocol.h"
#include "src/serve/scenario_cache.h"
#include "src/serve/transport.h"
#include "src/util/rng.h"

extern char** environ;

namespace perfbench {
namespace {

using rap::obs::Span;
using rap::obs::Tracer;
using rap::serve::JsonValue;

/// Timed restarts per run (tens of milliseconds each); setup_s is their
/// median.
constexpr int kSetupRepetitions = 7;
/// Place results re-scored against local copies of their scenario.
constexpr std::size_t kRescoreSample = 12;
/// Fewest requests in a phase or ladder step: ten beyond the request p99
/// (and, at eight requests a session, ten sessions beyond the session p90).
constexpr std::size_t kMinPhaseRequests = 1'000;
/// How long before a session's due time its client thread stops sleeping.
constexpr std::chrono::microseconds kSpinWindow{300};

// ------------------------------------------------------------ child process

/// The run's private directory (store, sockets, server log), removed on
/// every exit path. Declared before the servers, so they stop first.
struct ScratchDir {
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::filesystem::path path;
};

/// A running rap_serve child. The destructor kills and reaps it, so no
/// exit path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& socket,
                const std::string& store_dir, std::size_t cache_mb, std::size_t threads,
                const std::string& log_path)
      : socket_(socket) {
    std::filesystem::remove(socket_);
    const std::vector<std::string> args = {
        binary, "--listen=" + socket, "--store-dir=" + store_dir,
        "--cache-mb=" + std::to_string(cache_mb),
        "--threads=" + std::to_string(threads)};
    std::vector<char*> argv;
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + binary);
  }
  ~ServerProcess() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the server answers on its socket (it binds only after
  /// the store is rehydrated).
  void wait_ready() const {
    const Clock::time_point start = Clock::now();
    while (true) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        throw std::runtime_error("rap_serve exited during start-up");
      }
      try {
        rap::serve::UnixClient client(socket_);
        const std::string reply = client.request(R"({"op":"stats"})");
        if (reply.find("\"ok\":true") != std::string::npos) return;
      } catch (const std::runtime_error&) {
      }
      if (seconds_since(start) > 120.0) {
        throw std::runtime_error("rap_serve did not come up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mib(pid_); }

  /// Sends shutdown and reaps the process.
  void stop() {
    try {
      rap::serve::UnixClient client(socket_);
      (void)client.request(R"({"op":"shutdown"})");
    } catch (const std::runtime_error&) {
      kill(pid_, SIGKILL);
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------- protocol

JsonValue load_request(const ServeScenarioSpec& s) {
  JsonValue::Object request;
  request.emplace("op", "load");
  request.emplace("city", s.city);
  request.emplace("seed", static_cast<double>(s.seed));
  request.emplace("journeys", static_cast<double>(s.journeys));
  request.emplace("utility", s.utility);
  request.emplace("d", s.range_ft);
  return JsonValue(std::move(request));
}

rap::serve::ScenarioSpec local_spec(const ServeScenarioSpec& s) {
  rap::serve::ScenarioSpec spec;
  spec.city = s.city;
  spec.seed = s.seed;
  spec.journeys = s.journeys;
  spec.utility = s.utility;
  spec.range = s.range_ft;
  return spec;
}

double number_at(const JsonValue::Object& object, const char* key) {
  return rap::serve::require_number(object, key);
}

/// A reply field that must be present (throws std::invalid_argument).
const JsonValue& field_at(const JsonValue::Object& object, const char* key) {
  const JsonValue* value = rap::serve::find_field(object, key);
  if (value == nullptr) {
    throw std::invalid_argument(std::string("reply lacks ") + key);
  }
  return *value;
}

std::vector<rap::graph::NodeId> nodes_of(const JsonValue::Object& result) {
  std::vector<rap::graph::NodeId> nodes;
  const JsonValue* array = rap::serve::find_field(result, "nodes");
  if (array == nullptr) return nodes;
  for (const JsonValue& node : array->as_array()) {
    nodes.push_back(static_cast<rap::graph::NodeId>(node.as_number()));
  }
  return nodes;
}

// ---------------------------------------------------------------- the client

/// What one request did, in schedule order.
struct RequestRecord {
  std::string verb;          ///< load_hit | load_miss | place | ...
  double latency_ms = 0.0;   ///< from due time to reply
  double session_ms = 0.0;   ///< from the session's start to this reply
  double rtt_ms = 0.0;       ///< from send to reply
  double lateness_ms = 0.0;  ///< generator send delay past its due time
  bool ok = false;
  bool place = false;
  bool base_session = false;  ///< place on an unmodified scenario
  bool warm_reused = false;
  std::size_t scenario = 0;
  std::size_t k = 0;
  double customers = 0.0;
  std::vector<rap::graph::NodeId> nodes;
  double parse_us = 0.0;
  double serialize_us = 0.0;
};

struct Phase {
  std::vector<RequestRecord> records;  ///< in schedule order
};

/// Live per-connection session state the next request depends on.
struct Session {
  std::size_t scenario = 0;
  std::size_t nodes = 0;
  std::size_t flows = 0;
  bool base = true;
  double last_customers = -1.0;
  std::vector<rap::graph::NodeId> last_nodes;
};

JsonValue build_request(const ServeRequest& request,
                        const std::vector<ServeScenarioSpec>& scenarios,
                        const Session& session, std::size_t& expected_flows) {
  expected_flows = session.flows;
  switch (request.op) {
    case ServeOp::kLoad:
      return load_request(scenarios[request.scenario]);
    case ServeOp::kPlace: {
      JsonValue::Object r;
      r.emplace("op", "place");
      r.emplace("k", static_cast<double>(request.k));
      return JsonValue(std::move(r));
    }
    case ServeOp::kPlaceBatch: {
      JsonValue::Object r;
      r.emplace("op", "place_batch");
      JsonValue::Array ks;
      for (const std::size_t k : request.ks) ks.emplace_back(static_cast<double>(k));
      r.emplace("ks", JsonValue(std::move(ks)));
      return JsonValue(std::move(r));
    }
    case ServeOp::kEvaluate: {
      JsonValue::Object r;
      r.emplace("op", "evaluate");
      JsonValue::Array nodes;
      for (const auto node : session.last_nodes) nodes.emplace_back(static_cast<double>(node));
      r.emplace("nodes", JsonValue(std::move(nodes)));
      return JsonValue(std::move(r));
    }
    case ServeOp::kDelta: {
      JsonValue::Object r;
      r.emplace("op", "delta");
      JsonValue::Array ops;
      for (const DeltaDraw& draw : request.deltas) {
        JsonValue::Object op;
        if (draw.kind == 0) {
          const std::size_t origin = draw.a % session.nodes;
          std::size_t destination = draw.b % session.nodes;
          if (destination == origin) destination = (origin + 1) % session.nodes;
          op.emplace("kind", "add_flow");
          op.emplace("origin", static_cast<double>(origin));
          op.emplace("destination", static_cast<double>(destination));
          op.emplace("vehicles", draw.value);
          op.emplace("passengers_per_vehicle", 100.0);
          ++expected_flows;
        } else {
          op.emplace("kind", draw.kind == 1 ? "remove_flow" : "scale_flow");
          op.emplace("index", static_cast<double>(draw.a % expected_flows));
          if (draw.kind == 1) {
            --expected_flows;
          } else {
            op.emplace("factor", draw.value);
          }
        }
        ops.emplace_back(JsonValue(std::move(op)));
      }
      r.emplace("ops", JsonValue(std::move(ops)));
      return JsonValue(std::move(r));
    }
    case ServeOp::kStats:
      break;
  }
  JsonValue::Object r;
  r.emplace("op", "stats");
  return JsonValue(std::move(r));
}

/// Checks one reply against what the request and session predict, updates
/// the session, and fills the record. Returns whether the reply is right.
bool absorb_reply(const ServeRequest& request, const JsonValue& reply,
                  std::size_t expected_flows, Session& session,
                  RequestRecord& record) {
  const JsonValue::Object& object = reply.as_object();
  const JsonValue* ok = rap::serve::find_field(object, "ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return false;
  switch (request.op) {
    case ServeOp::kLoad: {
      const std::string& source = rap::serve::require_string(object, "source");
      record.verb = source == "cache" ? "load_hit" : "load_miss";
      session = Session{};
      session.scenario = request.scenario;
      session.nodes = static_cast<std::size_t>(number_at(object, "nodes"));
      session.flows = static_cast<std::size_t>(number_at(object, "flows"));
      return session.nodes > 1 && session.flows > 1;
    }
    case ServeOp::kPlace: {
      const JsonValue::Object& result = field_at(object, "result").as_object();
      record.place = true;
      record.base_session = session.base;
      record.scenario = session.scenario;
      record.k = request.k;
      record.customers = number_at(result, "customers");
      record.nodes = nodes_of(result);
      const JsonValue* warm = rap::serve::find_field(result, "warm_reused");
      record.warm_reused = warm != nullptr && warm->is_bool() && warm->as_bool();
      session.last_customers = record.customers;
      session.last_nodes = record.nodes;
      return !record.nodes.empty() && record.nodes.size() <= request.k &&
             record.customers >= 0.0;
    }
    case ServeOp::kEvaluate:
      // The session has not changed since the place whose nodes it scores.
      return close_enough(number_at(object, "customers"), session.last_customers);
    case ServeOp::kPlaceBatch: {
      const JsonValue::Array& results = field_at(object, "results").as_array();
      if (results.size() != request.ks.size()) return false;
      // Greedy placements nest, so a larger budget never scores lower.
      std::map<double, double> by_k;
      for (std::size_t i = 0; i < results.size(); ++i) {
        const JsonValue::Object& result = results[i].as_object();
        const double k = number_at(result, "k");
        if (k != static_cast<double>(request.ks[i])) return false;
        if (nodes_of(result).size() > request.ks[i]) return false;
        by_k[k] = number_at(result, "customers");
      }
      double previous = -1.0;
      for (const auto& [k, customers] : by_k) {
        if (customers < previous * (1.0 - 1e-12)) return false;
        previous = customers;
      }
      return true;
    }
    case ServeOp::kDelta: {
      session.base = false;
      const auto flows = static_cast<std::size_t>(number_at(object, "flows"));
      const bool right =
          number_at(object, "applied") == static_cast<double>(request.deltas.size()) &&
          flows == expected_flows;
      session.flows = flows;
      return right;
    }
    case ServeOp::kStats:
      return true;
  }
  return false;
}

/// A unix-socket connection that can pipeline: send() writes any number of
/// request lines at once, read_line() returns the replies in order. (The
/// library's UnixClient answers one request per call.)
class LineClient {
 public:
  explicit LineClient(const std::string& socket_path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (fd_ < 0 || socket_path.size() >= sizeof address.sun_path) {
      throw std::runtime_error("cannot open a socket for " + socket_path);
    }
    std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + socket_path);
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("serve connection closed on send");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("serve connection closed on read");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Whether a request needs the replies before it: a load opens the session
/// (and may wait for the previous session), an evaluate scores the nodes
/// the last place returned. Every other request is pipelined behind them.
bool waits_for_replies(ServeOp op) {
  return op == ServeOp::kLoad || op == ServeOp::kEvaluate;
}

/// Runs `schedule` open loop: one thread per connection starts each of its
/// sessions at the session's due time (or when its previous session ends,
/// if later). Within a session, requests that need earlier replies wait for
/// them; runs of requests that do not are written at once and answered in
/// order. Spans go to per-thread tracers when `traced`.
Phase run_phase(const std::string& socket, std::size_t connections,
                const std::vector<ServeRequest>& schedule,
                const std::vector<ServeScenarioSpec>& scenarios,
                LayerTrace& trace, bool traced) {
  Phase phase;
  phase.records.resize(schedule.size());
  std::vector<std::unique_ptr<LineClient>> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<LineClient>(socket));
  }
  std::vector<Tracer> tracers(connections);
  std::vector<std::string> errors(connections);
  std::vector<std::vector<std::size_t>> mine(connections);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    mine[schedule[i].connection].push_back(i);
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        Tracer* tracer = traced ? &tracers[c] : nullptr;
        Session session;
        Clock::time_point previous_done = start;
        std::optional<Span> job_span;  // one per session: the workload's job
        const std::vector<std::size_t>& order = mine[c];
        for (std::size_t at = 0; at < order.size();) {
          // The next group: one waiting request, or a run of pipelined ones.
          std::size_t end = at + 1;
          if (!waits_for_replies(schedule[order[at]].op)) {
            while (end < order.size() && !waits_for_replies(schedule[order[end]].op)) {
              ++end;
            }
          }
          const ServeRequest& first = schedule[order[at]];
          const Clock::time_point session_due =
              start + std::chrono::nanoseconds(first.due_ns);
          Clock::time_point due = previous_done;
          if (first.op == ServeOp::kLoad) {
            job_span.reset();
            due = session_due;
            // Sleep to just short of the due time, then spin: timer wake-up
            // jitter would otherwise be charged to the server.
            std::this_thread::sleep_until(due - kSpinWindow);
            while (Clock::now() < due) {
            }
            job_span.emplace(tracer, "job");
          }
          const Clock::time_point send = Clock::now();
          // Build the whole group against the flows each delta will leave.
          std::vector<std::size_t> expected_flows(end - at);
          std::string lines;
          {
            const Span span(tracer, "protocol.serialize");
            Session planned = session;
            for (std::size_t g = at; g < end; ++g) {
              lines += rap::serve::to_json(build_request(
                  schedule[order[g]], scenarios, planned, expected_flows[g - at]));
              lines += '\n';
              planned.flows = expected_flows[g - at];
            }
          }
          const Clock::time_point serialized = Clock::now();
          {
            const Span span(tracer, "serve.round_trip");
            clients[c]->send(lines);
          }
          Clock::time_point answered = serialized;
          for (std::size_t g = at; g < end; ++g) {
            const ServeRequest& request = schedule[order[g]];
            RequestRecord& record = phase.records[order[g]];
            record.verb = to_string(request.op);
            std::string reply_line;
            {
              const Span span(tracer, "serve.round_trip");
              reply_line = clients[c]->read_line();
            }
            const Clock::time_point received = Clock::now();
            std::optional<JsonValue> reply;
            try {
              const Span span(tracer, "protocol.parse");
              reply.emplace(rap::serve::parse_json(reply_line));
            } catch (const std::invalid_argument&) {
            }
            const Clock::time_point done = Clock::now();
            try {
              record.ok = reply.has_value() &&
                          absorb_reply(request, *reply, expected_flows[g - at],
                                       session, record);
            } catch (const std::exception&) {
              record.ok = false;  // a reply missing a field or of the wrong type
            }
            // Costs of the group are split evenly over its requests; a
            // pipelined request's round trip starts when the reply before it
            // arrives, since the server answers a connection in order.
            const double share = 1.0 / static_cast<double>(end - at);
            // Only a session's load has a scheduled send time.
            record.lateness_ms = request.op == ServeOp::kLoad
                                     ? ms_between(std::max(due, previous_done), send)
                                     : -1.0;
            record.serialize_us = ms_between(send, serialized) * 1e3 * share;
            record.parse_us = ms_between(received, done) * 1e3;
            record.rtt_ms = ms_between(answered, received);
            record.latency_ms = ms_between(g == at ? due : answered, received);
            record.session_ms = ms_between(session_due, done);
            answered = done;
          }
          previous_done = answered;
          at = end;
        }
      } catch (const std::exception& error) {
        errors[c] = error.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error("serve client: " + error);
  }
  for (const Tracer& tracer : tracers) trace.merge(tracer);
  return phase;
}

/// Per-request latencies (ms), each from the request's due time.
std::vector<double> latencies(const Phase& phase) {
  std::vector<double> out;
  out.reserve(phase.records.size());
  for (const RequestRecord& r : phase.records) out.push_back(r.latency_ms);
  return out;
}

/// Per-session latencies (ms): from the session's due time to its last
/// reply. A session is the serve workload's job.
std::vector<double> session_latencies(const Phase& phase) {
  std::vector<double> out;
  const std::size_t length = requests_per_session();
  for (std::size_t last = length - 1; last < phase.records.size(); last += length) {
    out.push_back(phase.records[last].session_ms);
  }
  return out;
}

/// The server's `stats` reply, parsed.
JsonValue server_stats(const std::string& socket) {
  rap::serve::UnixClient client(socket);
  JsonValue reply = rap::serve::parse_json(client.request(R"({"op":"stats"})"));
  if (!field_at(reply.as_object(), "ok").as_bool()) {
    throw std::runtime_error("stats request failed");
  }
  return reply;
}

double stat(const JsonValue& stats, const char* section, const char* key) {
  const JsonValue* part = rap::serve::find_field(stats.as_object(), section);
  if (part == nullptr) return 0.0;
  const JsonValue* value = rap::serve::find_field(part->as_object(), key);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

/// Sum over verbs of count * mean_ms: total server-side request time.
double server_busy_ms(const JsonValue& stats) {
  double total = 0.0;
  for (const auto& [verb, entry] : field_at(stats.as_object(), "verbs").as_object()) {
    total += number_at(entry.as_object(), "count") *
             number_at(entry.as_object(), "mean_ms");
  }
  return total;
}

double verb_stat(const JsonValue& stats, const std::string& verb,
                 const char* key) {
  const JsonValue* entry =
      rap::serve::find_field(field_at(stats.as_object(), "verbs").as_object(), verb);
  return entry == nullptr ? 0.0 : number_at(entry->as_object(), key);
}

/// Loads every stored scenario once, spread over the connections.
void populate(const std::string& socket, std::size_t connections,
              const std::vector<ServeScenarioSpec>& scenarios, Report& report) {
  std::vector<std::thread> threads;
  std::vector<int> ok(scenarios.size(), 0);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      try {
        rap::serve::UnixClient client(socket);
        for (std::size_t s = c; s < scenarios.size(); s += connections) {
          if (!scenarios[s].stored) continue;
          const JsonValue reply = rap::serve::parse_json(
              client.request(rap::serve::to_json(load_request(scenarios[s]))));
          ok[s] = field_at(reply.as_object(), "ok").as_bool() ? 1 : 0;
        }
      } catch (const std::exception&) {
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (scenarios[s].stored) report.check(ok[s] == 1);
  }
}

/// Re-scores a seeded sample of base-session place results against a copy
/// of each scenario built in this process: the same lazy greedy must pick
/// the same nodes, and the independent oracle must agree on the value.
void rescore_sample(const std::vector<ServeScenarioSpec>& scenarios,
                    const Phase& phase, std::uint64_t seed, Report& report) {
  std::vector<const RequestRecord*> candidates;
  for (const RequestRecord& r : phase.records) {
    // The three most popular scenarios bound the local build cost.
    if (r.ok && r.place && r.base_session && r.scenario < 3) candidates.push_back(&r);
  }
  rap::util::Rng rng = rap::util::Rng(seed).fork(7);
  rng.shuffle(candidates);
  if (candidates.size() > kRescoreSample) candidates.resize(kRescoreSample);
  std::map<std::size_t, std::shared_ptr<const rap::serve::ServeScenario>> local;
  for (const RequestRecord* r : candidates) {
    auto& built = local[r->scenario];
    if (built == nullptr) {
      const rap::serve::ScenarioSpec spec = local_spec(scenarios[r->scenario]);
      built = rap::serve::build_scenario(spec, rap::serve::scenario_key(spec));
    }
    const rap::core::PlacementResult expected =
        rap::core::lazy_marginal_greedy_placement(*built->problem, r->k);
    report.check(expected.nodes == r->nodes &&
                 close_enough(expected.customers, r->customers, 1e-12));
    report.check(close_enough(
        rap::check::oracle_evaluate(*built->problem, r->nodes), r->customers));
  }
  report.info["rescored_places"] = std::to_string(candidates.size());
}

}  // namespace

Report run_serve_mix(const RunOptions& options) {
  ServeSpec spec = serve_spec(options.smoke);
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  // One client thread per connection: never more than the cores.
  if (spec.connections > nproc) spec.connections = nproc;
  Report report;
  report.info["connections"] = std::to_string(spec.connections);
  LayerTrace trace(options.trace);
  const std::vector<ServeScenarioSpec> scenarios = make_serve_scenarios(spec);

  const ScratchDir scratch(std::filesystem::path(options.work_dir) /
                          ("serve-" + std::to_string(options.seed) + "-" +
                           std::to_string(getpid())));
  const std::filesystem::path& dir = scratch.path;
  std::filesystem::create_directories(dir / "store");
  std::filesystem::create_directories(dir / "empty");
  const std::string log = (dir / "rap_serve.log").string();
  int starts = 0;
  const auto start_server = [&](const std::filesystem::path& store) {
    return std::make_unique<ServerProcess>(
        options.serve_binary, (dir / ("s" + std::to_string(starts++) + ".sock")).string(),
        store.string(), spec.cache_mb, options.threads, log);
  };

  // Set-up 1 (untimed): build and persist every stored scenario.
  {
    auto server = start_server(dir / "store");
    server->wait_ready();
    populate(server->socket(), spec.connections, scenarios, report);
    server->stop();
  }
  // Set-up 2: start-up cost without a store, then timed restarts that
  // rehydrate the populated one; the last restart serves the run.
  std::vector<double> empty_ms;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const Clock::time_point t0 = Clock::now();
    auto server = start_server(dir / "empty");
    server->wait_ready();
    empty_ms.push_back(ms_between(t0, Clock::now()));
    server->stop();
  }
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    if (server != nullptr) server->stop();
    const Clock::time_point t0 = Clock::now();
    {
      const Span span(r + 1 == kSetupRepetitions ? trace.tracer() : nullptr, "setup");
      const Span restart(r + 1 == kSetupRepetitions ? trace.tracer() : nullptr,
                         "serve.restart_rehydrate");
      server = start_server(dir / "store");
      server->wait_ready();
    }
    setup_s.push_back(seconds_since(t0));
  }

  const std::size_t stored = spec.stored_scenarios;
  const double phase_seconds = options.trace ? options.seconds / 3.0 : options.seconds;
  const auto schedule_for = [&](double session_rate, double seconds,
                                std::size_t fresh, std::uint64_t stream) {
    const auto sessions = static_cast<std::size_t>(session_rate * seconds);
    const std::size_t min_sessions =
        (kMinPhaseRequests + requests_per_session() - 1) / requests_per_session();
    return make_serve_schedule(spec, stored, fresh, session_rate,
                               std::max(sessions, min_sessions), options.seed,
                               stream);
  };

  const JsonValue stats_before = server_stats(server->socket());
  const Phase fixed = run_phase(
      server->socket(), spec.connections,
      schedule_for(spec.session_rate, phase_seconds, spec.fresh_scenarios, 0),
      scenarios, trace, false);
  for (const RequestRecord& r : fixed.records) report.check(r.ok);
  const std::vector<double> fixed_latency = latencies(fixed);
  const std::vector<double> fixed_sessions = session_latencies(fixed);

  if (!options.trace) {
    report.set("setup_s", median(setup_s), "s");
    report.set("job_p50_s", tail_percentile(fixed_sessions, 50.0) / 1e3, "s");
    // Every place of the phase: the schedule, and so this set, is fixed by
    // the seed and the run length.
    double objective = 0.0;
    for (const RequestRecord& r : fixed.records) {
      if (r.place) objective += r.customers;
    }
    report.set("objective_customers", objective, "customers");
    report.set("peak_rss_mb", server->peak_rss_mb(), "MiB");
    report.info["jobs"] = std::to_string(fixed_sessions.size());
    report.info["requests"] = std::to_string(fixed.records.size());
  } else {
    // Traced phase: same rate, a new stream of the same mix, spans and the
    // flight recorder on (only for this phase).
    trace.start_recording();
    const Phase traced =
        run_phase(server->socket(), spec.connections,
                  schedule_for(spec.session_rate, phase_seconds, 0, 1), scenarios,
                  trace, true);
    trace.finish_recording(std::filesystem::path(options.work_dir) /
                               ("serve_mix-" + std::to_string(options.seed) +
                                ".trace.json"),
                           report);
    for (const RequestRecord& r : traced.records) report.check(r.ok);
    const JsonValue stats_after = server_stats(server->socket());

    report.set("job_p90_s", tail_percentile(fixed_sessions, 90.0) / 1e3, "s");
    report.set("serve_p50_ms", tail_percentile(fixed_latency, 50.0), "ms");
    report.set("serve_p99_ms", tail_percentile(fixed_latency, 99.0), "ms");
    const double untraced_p50 = tail_percentile(fixed_sessions, 50.0) / 1e3;
    const double traced_p50 = tail_percentile(session_latencies(traced), 50.0) / 1e3;
    report.set("trace.job_p50_untraced_s", untraced_p50, "s");
    report.set("trace.job_p50_traced_s", traced_p50, "s");
    report.set("trace.overhead_ratio", traced_p50 / untraced_p50 - 1.0, "ratio");

    std::map<std::string, std::vector<double>> rtt;
    std::vector<double> parse_us;
    std::vector<double> serialize_us;
    std::vector<double> lateness;
    double places = 0.0;
    double warm = 0.0;
    double rtt_total = 0.0;
    // Both fixed-rate phases: the stopwatch readings exclude span costs.
    for (const Phase* phase : {&fixed, &traced}) {
      for (const RequestRecord& r : phase->records) {
        rtt_total += r.rtt_ms;
        rtt[r.verb].push_back(r.rtt_ms);
        parse_us.push_back(r.parse_us);
        serialize_us.push_back(r.serialize_us);
        if (r.lateness_ms >= 0.0) lateness.push_back(r.lateness_ms);
        if (r.verb == "place") {
          places += 1.0;
          warm += r.warm_reused ? 1.0 : 0.0;
        }
      }
    }
    for (const char* verb :
         {"load_hit", "load_miss", "place", "place_batch", "evaluate", "delta"}) {
      const std::vector<double>& samples = rtt[verb];
      const std::string name = std::string("serve.") + verb;
      report.set(name + ".rtt_p50_ms",
                 percentile_supported(samples.size(), 50.0) ? tail_percentile(samples, 50.0) : 0.0,
                 "ms");
      report.set(name + ".rtt_p90_ms",
                 percentile_supported(samples.size(), 90.0) ? tail_percentile(samples, 90.0) : 0.0,
                 "ms");
      report.info[name + ".samples"] = std::to_string(samples.size());
    }
    for (const char* verb : {"load", "place", "place_batch", "evaluate", "delta"}) {
      report.set(std::string("serve.") + verb + ".server_p50_ms",
                 verb_stat(stats_after, verb, "p50_ms"), "ms");
    }
    const double requests =
        static_cast<double>(fixed.records.size() + traced.records.size());
    report.set("serve.transport_ms",
               (rtt_total - (server_busy_ms(stats_after) - server_busy_ms(stats_before))) /
                   requests,
               "ms");
    const double hits = stat(stats_after, "cache", "hits") - stat(stats_before, "cache", "hits");
    const double misses =
        stat(stats_after, "cache", "misses") - stat(stats_before, "cache", "misses");
    report.set("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio");
    report.set("serve.cache_evictions",
               stat(stats_after, "cache", "evictions") - stat(stats_before, "cache", "evictions"),
               "count");
    report.set("serve.scenario_builds",
               stat(stats_after, "server", "scenario_builds") -
                   stat(stats_before, "server", "scenario_builds"),
               "count");
    report.set("serve.warm_start_ratio", places > 0 ? warm / places : 0.0, "ratio");
    const double regions = stat(stats_after, "pool", "regions") - stat(stats_before, "pool", "regions");
    const double chunks = stat(stats_after, "pool", "chunks") - stat(stats_before, "pool", "chunks");
    const double executors = stat(stats_after, "pool", "workers") + 1.0;
    report.set("serve.pool_utilization", regions > 0 ? chunks / (regions * executors) : 0.0,
               "ratio");
    report.set("protocol.parse_us", median(parse_us), "us");
    report.set("protocol.serialize_us", median(serialize_us), "us");
    report.set("serve.store_rehydrate_ms",
               std::max(0.0, median(setup_s) * 1e3 - median(empty_ms)), "ms");

    // Rate ladder: raise the session rate by half until the per-request p99
    // breaks the limit or the backlog grows (the last session starts later
    // than the limit past its due time; a load's latency runs from the
    // session's due time). Untraced, so it measures the service, not the
    // tracer.
    double max_rate = 0.0;
    const double step_seconds = 0.5;
    double rate = spec.session_rate;
    for (int step = 0; step < 16; ++step, rate *= 1.5) {
      const Phase ladder =
          run_phase(server->socket(), spec.connections,
                    schedule_for(rate, step_seconds, 0, 10 + step), scenarios, trace, false);
      bool ok = true;
      for (const RequestRecord& r : ladder.records) {
        report.check(r.ok);
        ok = ok && r.ok;
      }
      const double last_start_ms =
          ladder.records[ladder.records.size() - requests_per_session()].latency_ms;
      const bool meets = ok &&
                         tail_percentile(latencies(ladder), 99.0) <= spec.p99_limit_ms &&
                         last_start_ms <= spec.p99_limit_ms;
      const double request_rate = rate * static_cast<double>(requests_per_session());
      report.info["ladder." + std::to_string(std::lround(request_rate))] =
          meets ? "meets" : "misses";
      if (!meets) break;
      max_rate = request_rate;
    }
    report.set("serve_max_req_s", max_rate, "req/s");
    // Session starts of both fixed-rate phases.
    report.set("client.lateness_p99_ms",
               percentile_supported(lateness.size(), 99.0) ? tail_percentile(lateness, 99.0)
                                                           : 0.0,
               "ms");
    report.info["client.lateness.samples"] = std::to_string(lateness.size());
    trace.report_self_times("setup", report);
    trace.report_self_times("job", report);
  }

  server->stop();
  rescore_sample(scenarios, fixed, options.seed, report);
  return report;
}

}  // namespace perfbench
