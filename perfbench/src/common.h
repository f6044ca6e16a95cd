// Shared pieces of the benchmark driver: timing, percentiles, the result
// document, and the layer tracer the traced runs record into.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/events.h"
#include "src/obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// True when `q` (in [0, 100)) is a percentile that `count` samples can
/// support: at least kTailSamples of them lie above it.
[[nodiscard]] bool percentile_supported(std::size_t count, double q);

/// Nearest-rank percentile of `samples` (unsorted; a sorted copy is made).
/// Throws std::invalid_argument when the percentile is not supported by
/// the sample count (see percentile_supported).
[[nodiscard]] double tail_percentile(std::vector<double> samples, double q);

/// Median of a non-empty sample set (no tail rule: used for the set-up
/// repetitions and for per-request layer costs).
[[nodiscard]] double median(std::vector<double> samples);

/// Peak resident set size of process `pid` (0 = this process) in MiB, from
/// VmHWM in /proc/<pid>/status. Throws std::runtime_error when unavailable.
[[nodiscard]] double peak_rss_mib(long pid = 0);

/// One measured metric of a run.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// A run's result: what run.py turns into the final JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Descriptive fields (job counts, trace file, notes) — never compared.
  std::map<std::string, std::string> info;

  void set(const std::string& name, double value, std::string unit) {
    metrics[name] = Metric{value, std::move(unit)};
  }
  /// Counts one checked operation; a failed check also clears `correct`.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  [[nodiscard]] std::string to_json() const;
};

/// Relative equality used by the output checks.
[[nodiscard]] bool close_enough(double a, double b, double rel = 1e-9);

/// The layer names of the self-time table, in report order. Every span the
/// benchmark opens around a library call is named "<layer>.<what>".
inline const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "citygen", "trace", "traffic", "core", "exact", "serve", "protocol"};
  return names;
}

/// Spans recorded from the benchmark's own files around calls into each
/// layer. Disabled, every span is inert (the untraced runs). Enabled, spans
/// aggregate into an obs::Tracer and, once start_recording() has installed
/// the process-wide FlightRecorder, into the rap.trace.v1 timeline.
class LayerTrace {
 public:
  explicit LayerTrace(bool enabled) : enabled_(enabled) {}
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Installs the flight recorder (when enabled). Every obs::Span in the
  /// process, the library's own included, records from then on, so the
  /// untraced half of a traced run must finish first.
  void start_recording();

  /// The tracer spans of this thread's phase attribute to (nullptr when
  /// disabled).
  [[nodiscard]] rap::obs::Tracer* tracer() noexcept {
    return enabled_ ? &tracer_ : nullptr;
  }
  /// The aggregated span tree (empty when disabled).
  [[nodiscard]] const rap::obs::Tracer& tree() const noexcept { return tracer_; }

  /// Adds the per-layer self time (ms per root span) of the tree under the
  /// root span named `root` to `report`, as selftime.<root>.<layer>_ms plus
  /// selftime.<root>.unattributed_ms for the part of the root span no layer
  /// span covers. Layers with no span report 0.
  void report_self_times(const std::string& root, Report& report) const;

  /// Writes the flight recorder's timeline as rap.trace.v1 to `path` and
  /// uninstalls the recorder, so later phases run unrecorded.
  void finish_recording(const std::filesystem::path& path, Report& report);

  /// Merges another thread's tracer into this one (under the root).
  void merge(const rap::obs::Tracer& other) { tracer_.merge(other); }

 private:
  bool enabled_;
  rap::obs::Tracer tracer_;
  std::unique_ptr<rap::obs::FlightRecorder> recorder_;
};

/// The command-line options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< tiny inputs, for the benchmark's own tests
  std::string work_dir;     ///< scratch directory inside the checkout
  std::string serve_binary; ///< path of rap_serve (serve_mix)
  std::size_t threads = 1;  ///< thread-pool width, for rap_serve as well
};

Report run_metro_grid(const RunOptions& options);
Report run_paper_sweep(const RunOptions& options);
Report run_serve_mix(const RunOptions& options);

}  // namespace perfbench
