#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/obs/trace_export.h"

namespace perfbench {

bool percentile_supported(std::size_t count, double q) {
  if (!(q >= 0.0 && q < 100.0)) return false;
  // Samples strictly above the nearest-rank position of q.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(count)));
  return count >= rank && count - rank >= kTailSamples;
}

double tail_percentile(std::vector<double> samples, double q) {
  if (!percentile_supported(samples.size(), q)) {
    throw std::invalid_argument(
        "p" + std::to_string(q) + " needs at least " +
        std::to_string(kTailSamples) + " samples beyond it; have " +
        std::to_string(samples.size()) + " samples");
  }
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(samples.size())));
  rank = std::max<std::size_t>(rank, 1);
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double peak_rss_mib(long pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                     : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    if (kib > 0.0) return kib / 1024.0;
  }
  throw std::runtime_error("no VmHWM in " + path);
}

bool close_enough(double a, double b, double rel) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) <= rel * scale;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + json_string(value);
  }
  return out + "}}";
}

void LayerTrace::start_recording() {
  if (enabled_ && !recorder_) {
    rap::obs::RecorderOptions options;
    options.ring_capacity = 1 << 16;
    recorder_ = std::make_unique<rap::obs::FlightRecorder>(options);
  }
}

namespace {

const rap::obs::Tracer::Node* find_child(const rap::obs::Tracer::Node& node,
                                         const std::string& name) {
  for (const auto& child : node.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

void add_layer_self(const rap::obs::Tracer::Node& node,
                    std::map<std::string, std::uint64_t>& by_layer) {
  for (const auto& child : node.children) {
    const std::string layer = child->name.substr(0, child->name.find('.'));
    by_layer[layer] += child->self_ns();
    add_layer_self(*child, by_layer);
  }
}

}  // namespace

void LayerTrace::report_self_times(const std::string& root,
                                   Report& report) const {
  std::map<std::string, std::uint64_t> by_layer;
  double per_root = 0.0;
  double unattributed_ns = 0.0;
  if (const rap::obs::Tracer::Node* node = find_child(tracer_.root(), root);
      node != nullptr && node->calls > 0) {
    add_layer_self(*node, by_layer);
    per_root = 1.0 / static_cast<double>(node->calls);
    unattributed_ns = static_cast<double>(node->self_ns());
  }
  for (const std::string& layer : layer_names()) {
    const auto it = by_layer.find(layer);
    const double ns = it == by_layer.end() ? 0.0 : static_cast<double>(it->second);
    report.set("selftime." + root + "." + layer + "_ms", ns * per_root / 1e6,
               "ms");
  }
  report.set("selftime." + root + ".unattributed_ms",
             unattributed_ns * per_root / 1e6, "ms");
}

void LayerTrace::finish_recording(const std::filesystem::path& path,
                                  Report& report) {
  if (!recorder_) return;
  const rap::obs::ExportSummary summary =
      rap::obs::write_chrome_trace(path, *recorder_);
  recorder_.reset();
  report.info["trace_file"] = path.string();
  report.info["trace_events"] = std::to_string(summary.events_exported);
  report.info["trace_dropped_events"] = std::to_string(summary.dropped_events);
}

}  // namespace perfbench
