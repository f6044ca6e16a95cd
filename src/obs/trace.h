// Hierarchical wall-clock tracing: a Tracer owns a tree of named nodes and
// RAII Spans attribute elapsed time to the node matching their nesting.
//
// Entering the same name twice under one parent reuses the node (call count
// increments, durations accumulate), so loops produce one line per stage,
// not one per iteration. Children keep first-entered order, which makes the
// exported tree read in pipeline order.
//
// A Span constructed from a null Tracer* is inert: no clock read, no
// allocation — a single branch (plus the flight recorder's relaxed-load
// guard, see below). That is the "disabled" fast path relied on by the
// instrumented algorithm kernels (see src/obs/telemetry.h for how call
// sites usually obtain the tracer).
//
// Spans also feed the flight recorder (src/obs/events.h): when one is
// installed, every Span — even a tracer-null one — emits begin/end events
// into the recorder's per-thread ring, so the raw timeline and the
// aggregated tree come from the same call sites and cannot disagree about
// what ran.
//
// Like MetricsRegistry, a Tracer is thread-compatible, not thread-safe:
// give each worker its own and merge() afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/events.h"

namespace rap::obs {

class Tracer {
 public:
  struct Node {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::vector<std::unique_ptr<Node>> children;

    [[nodiscard]] double total_ms() const noexcept {
      return static_cast<double>(total_ns) / 1e6;
    }
    /// Time not attributed to any child, in ns (>= 0 for well-nested spans).
    [[nodiscard]] std::uint64_t self_ns() const noexcept;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) = default;
  Tracer& operator=(Tracer&&) = default;

  /// The synthetic root; its children are the top-level spans. The root's
  /// calls/total_ns stay zero — it only anchors the tree.
  [[nodiscard]] const Node& root() const noexcept { return *root_; }
  [[nodiscard]] bool empty() const noexcept { return root_->children.empty(); }

  /// Grafts `other`'s tree onto this one under the innermost open span (the
  /// root when none is open), matching nodes by name per level (calls and
  /// durations add; unmatched subtrees are deep-copied in order). Merging
  /// under an open span is how worker telemetry nests inside the caller's
  /// enclosing stage. Throws std::logic_error if `other` has open spans.
  void merge(const Tracer& other);

 private:
  friend class Span;

  /// Find-or-create a child of the current node and descend into it.
  Node* enter(std::string_view name);
  /// Ascend after attributing `elapsed_ns`; `node` must be current.
  void exit(Node* node, std::uint64_t elapsed_ns) noexcept;

  std::unique_ptr<Node> root_;
  // Raw parent links would dangle under Tracer moves; a stack of actives is
  // enough because spans close in LIFO order.
  std::vector<Node*> open_;
};

/// RAII span: times from construction to destruction and attributes the
/// elapsed wall-clock to `name` under the tracer's currently open span.
/// Pass nullptr to disable (no clock read, no tree mutation).
class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : tracer_(tracer),
        node_(tracer != nullptr ? tracer->enter(name) : nullptr),
        start_(tracer != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {
    if (recorder_active()) {
      recorded_name_ = std::string(name);
      record_span_begin(recorded_name_);
    }
  }

  /// Convenience: span on the ambient tracer (src/obs/telemetry.h); inert
  /// when no telemetry is installed on this thread.
  explicit Span(std::string_view name);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    // The captured name — not a fresh recorder_active() check — decides
    // whether to emit the end event, so a recorder installed or removed
    // mid-span cannot produce an unbalanced begin/end pair.
    if (!recorded_name_.empty()) record_span_end(recorded_name_);
    if (tracer_ == nullptr) return;
    const auto elapsed =
        std::chrono::steady_clock::now() - start_;
    tracer_->exit(node_, static_cast<std::uint64_t>(
                             std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 elapsed)
                                 .count()));
  }

 private:
  Tracer* tracer_;
  Tracer::Node* node_;
  std::chrono::steady_clock::time_point start_;
  std::string recorded_name_;  // non-empty iff a begin event was recorded
};

}  // namespace rap::obs
